import dataclasses
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from filtadm import linalg, subobjects
from filtadm.filtration import build_transverse_filtration, check_admissible
from filtadm.frobenius import ModificationEdge, build_modified_frobenius, realize_matrices
from filtadm.model import (
    CapExceededError,
    Config,
    Family,
    GoodSubobject,
    InternalConsistencyError,
    ModuleSpec,
    Summand,
)
from filtadm.pairs import _clause
from filtadm.subobjects import (
    StableLattice,
    _NONZERO_DIGITS,
    enumerate_concrete_subobjects,
    is_stable_good,
    random_round_subobjects,
    smallest_enclosing_good,
    stable_good_subobjects,
)
from filtadm.slopes import check_slope_chain
from helpers import (
    closure_rows,
    equal_total_stream,
    instance_stream,
    random_single_component_spec,
    random_spec,
)
import oracles
from oracles import (
    SpecialPairViolation,
    flag_chain,
    good_profile,
    good_span,
    greedy_flag,
    omega_from_flag,
    special_pair_from_flag,
)

CFG = Config(p=2)
F = Family("F", 1, Fraction(0))


def rows(*vs):
    """Canonical integer rows, written out."""
    return tuple(map(tuple, vs))


def profile(spec, *vs, edges=()):
    """The intersection profile of hand-written rows, from the dense oracle."""
    return oracles.intersection_profile(spec, oracles.mat(vs), edges)


def test_good_counts(ex1a, ex2):
    assert len(ex1a.goods) == 6
    assert len(ex2.goods) == 9
    single = ModuleSpec(CFG, (Family("F", 2, Fraction(0)),), (Summand("F", 0, 1),))
    assert [g.counts for g in single.goods] == [(0,), (1,)]


def test_stability_filter(ex1a):
    edges = build_modified_frobenius(ex1a)
    stable = stable_good_subobjects(ex1a, edges)
    assert len(stable) == 5
    assert GoodSubobject((1, 0)) not in stable
    assert all(is_stable_good(g, edges) for g in stable)


def test_concrete_ex1a_modified(ex1a):
    real = realize_matrices(ex1a, build_modified_frobenius(ex1a))
    subs = enumerate_concrete_subobjects(real)
    proper = [s for s in subs if 0 < s.rank < 3]
    expected = {
        rows([0, 1, 0]),
        rows([1, 0, 0], [0, 1, 0]),
        rows([0, 1, 0], [0, 0, 1]),
    }
    assert {s.rows for s in proper} == expected


def test_concrete_ex2_includes_mixed_line(ex2):
    real = realize_matrices(ex2, build_modified_frobenius(ex2))
    subs = {s.rows for s in enumerate_concrete_subobjects(real)}
    assert rows([1, 0, 0, 0], [0, 1, 1, 0]) in subs
    assert len(subs) == 10


def test_concrete_diagonal_coordinates():
    g = Family("G", 1, Fraction(0))
    spec = ModuleSpec(CFG, (F, g), (Summand("F", 0, 1), Summand("G", 0, 1)))
    real = realize_matrices(spec, ())
    subs = {s.rows for s in enumerate_concrete_subobjects(real)}
    assert subs == {
        (),
        rows([1, 0]),
        rows([0, 1]),
        rows([1, 0], [0, 1]),
    }


def test_enumerated_are_exactly_stable(ex2):
    real = realize_matrices(ex2, build_modified_frobenius(ex2))
    lattice = StableLattice(real)
    for sub in enumerate_concrete_subobjects(real, lattice=lattice):
        assert oracles.is_stable(sub.rows, [real.phi, real.nmat])
        assert closure_rows(real, sub.rows) == sub.rows
        # the key the subspace was born with agrees with its rows, which
        # are canonical
        assert lattice.int_rows(sub.key) == sub.rows == oracles.canonical(sub.rows)
        assert (sub.rank, lattice.good_dims(sub.key)) == oracles.class_key(real, sub.rows)


def test_cap_exceeded():
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 3), Summand("F", 0, 3)))
    real = realize_matrices(spec, build_modified_frobenius(spec))
    with pytest.raises(CapExceededError):
        enumerate_concrete_subobjects(real, cap=5)


def test_alpha_examples(ex2):
    dp = profile(ex2, [1, 0, 0, 0], [0, 1, 1, 0])
    zero = GoodSubobject((0, 0))
    assert oracles.alpha_ratio(zero, GoodSubobject((1, 0)), dp, ex2) == 1
    assert oracles.alpha_ratio(GoodSubobject((1, 0)), GoodSubobject((2, 0)), dp, ex2) == 0
    empty = profile(ex2)
    assert oracles.alpha_ratio(zero, GoodSubobject((1, 0)), empty, ex2) == 0
    with pytest.raises(ValueError):
        oracles.alpha_ratio(GoodSubobject((1, 0)), GoodSubobject((1, 0)), dp, ex2)


def test_greedy_flag_ex2(ex2):
    dp = profile(ex2, [1, 0, 0, 0], [0, 1, 1, 0])
    flag = greedy_flag(ex2, dp)
    assert [m.dimension(ex2) for m in flag.members] == [1, 3]
    assert [m.counts for m in flag.members] == [(1, 0), (2, 1)]
    assert flag.alphas == (Fraction(1), Fraction(1, 2), Fraction(0))


def test_greedy_flag_ex1a_modified(ex1a):
    edges = build_modified_frobenius(ex1a)
    flag = greedy_flag(ex1a, profile(ex1a, [0, 1, 0], edges=edges))
    assert [m.counts for m in flag.members] == [(0, 1), (0, 2)]
    assert [m.dimension(ex1a) for m in flag.members] == [1, 2]


def test_greedy_flag_whole_module(ex2):
    dp = profile(ex2, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    flag = greedy_flag(ex2, dp)
    assert all(a == 1 for a in flag.alphas)
    dims = [m.dimension(ex2) for m in flag.members]
    assert dims == sorted(dims)


def test_omega_examples(ex2):
    dp = profile(ex2, [1, 0, 0, 0], [0, 1, 1, 0])
    flag = greedy_flag(ex2, dp)
    assert omega_from_flag(ex2, flag, dp) == frozenset({1, 3})
    empty = profile(ex2)
    assert omega_from_flag(ex2, greedy_flag(ex2, empty), empty) == frozenset()
    full = profile(ex2, *oracles.identity(4))
    assert omega_from_flag(ex2, greedy_flag(ex2, full), full) == frozenset({1, 2, 3, 4})


def test_omega_size_invariant(ex2):
    real = realize_matrices(ex2, build_modified_frobenius(ex2))
    lattice = StableLattice(real)
    for dp in enumerate_concrete_subobjects(real, lattice=lattice):
        prof = lattice.profile(dp.key)
        om = omega_from_flag(ex2, greedy_flag(ex2, prof), prof)
        assert len(om) == dp.rank
        assert all(1 <= j <= 4 for j in om)


def test_special_pair_ex2(ex2):
    dp = profile(ex2, [1, 0, 0, 0], [0, 1, 1, 0])
    pair = special_pair_from_flag(ex2, greedy_flag(ex2, dp), dp)
    assert pair.a == (1, 2, 1) and pair.c == (1,)
    assert _clause(*oracles.common_scale(pair.a, pair.c)[0]) is None
    assert pair.t == (1,) and pair.r == 1


def test_special_pair_good_dprime(ex2):
    dp = good_profile(ex2, GoodSubobject((2, 1)))
    assert dp == profile(ex2, *good_span(ex2, GoodSubobject((2, 1))))
    pair = special_pair_from_flag(ex2, greedy_flag(ex2, dp), dp)
    assert pair.k == 0
    assert pair.a == (3, 1)


def test_special_pair_vacuous(ex2):
    dp = profile(ex2)
    pair = special_pair_from_flag(ex2, greedy_flag(ex2, dp), dp)
    assert pair.vacuous


def test_special_pair_boundary_violation():
    # the hull-at-the-top boundary: the smallest good containing D' is the
    # whole module while the last flag step is mixed, so the closing
    # inequality of the special conditions fails by design
    spec = ModuleSpec(
        CFG, (F,), (Summand("F", 0, 2), Summand("F", 0, 3), Summand("F", 1, 1))
    )
    edges = build_modified_frobenius(spec)
    dp = profile(
        spec,
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        edges=edges,
    )
    flag = greedy_flag(spec, dp)
    assert smallest_enclosing_good(spec, dp) == GoodSubobject((2, 3, 1))
    with pytest.raises(SpecialPairViolation) as exc:
        special_pair_from_flag(spec, flag, dp)
    assert exc.value.clause == "iii"
    assert exc.value.a[-1] == 0


def test_tie_break_randomization_invariance():
    rng = random.Random(17)
    done = 0
    while done < 25:
        spec = random_single_component_spec(rng)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec)
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        subs = enumerate_concrete_subobjects(real, seed=done, lattice=lattice)
        dp = lattice.profile(subs[rng.randrange(len(subs))].key)
        base = greedy_flag(spec, dp)
        dims = tuple(m.dimension(spec) for m in base.members)
        for trial in range(3):
            other = greedy_flag(spec, dp, rng=random.Random(trial))
            assert tuple(m.dimension(spec) for m in other.members) == dims
            assert other.alphas == base.alphas
        done += 1


def test_flag_conditions_on_examples(ex1a, ex2):
    for spec in (ex1a, ex2):
        edges = build_modified_frobenius(spec)
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        for dp in enumerate_concrete_subobjects(real, lattice=lattice):
            flag = greedy_flag(spec, lattice.profile(dp.key))
            conds = oracles.flag_conditions(spec, flag, real)
            assert all(conds.values()), (spec.summands, dp.rows, conds)


def test_greedy_rejects_multi_component():
    g = Family("G", 1, Fraction(0))
    spec = ModuleSpec(CFG, (F, g), (Summand("F", 0, 1), Summand("G", 0, 1)))
    with pytest.raises(ValueError):
        greedy_flag(spec, profile(spec))


def test_split_and_global_omega_multi_component():
    g = Family("G", 1, Fraction(1))
    spec = ModuleSpec(
        CFG, (F, g), (Summand("F", 0, 2), Summand("G", 0, 2))
    )
    edges = build_modified_frobenius(spec)
    real = realize_matrices(spec, edges)
    lattice = StableLattice(real)
    for dp in enumerate_concrete_subobjects(real, lattice=lattice):
        prof = lattice.profile(dp.key)
        parts = oracles.component_analysis(real, prof)
        # the rank of each part is that of D' meeting the component's span
        for part in parts:
            coords = [i for i, blk in enumerate(real.basis) if blk.summand in part["component"]]
            span = oracles.coordinate_rows(coords, real.dimension)
            assert part["rank"] == len(oracles.intersect_basis(span, dp.rows))
        assert sum(part["rank"] for part in parts) == dp.rank
        om = oracles.global_omega(real, prof)
        assert len(om) == dp.rank


def test_random_rounds_consistent(ex2):
    real = realize_matrices(ex2, build_modified_frobenius(ex2))
    # several seeds, none may discover a new relative-position class
    for seed in range(4):
        enumerate_concrete_subobjects(real, seed=seed)


def test_audit_fires_when_the_sign_patterns_of_a_level_are_missing(monkeypatch, ex1a):
    # unmodified, ex1a has the uncoupled level {(0, 0), (1, 0)}: its lines
    # off both axes form one class, which only the patterns (1, +-1) list
    # (dropping one of the two loses nothing, the other lists the class)
    real = realize_matrices(ex1a, ())
    assert sorted(map(len, real.levels)) == [1, 2]
    enumerate_concrete_subobjects(real)
    patterns = subobjects._pattern_vectors
    monkeypatch.setattr(
        subobjects, "_pattern_vectors",
        lambda width: [v for v in patterns(width) if width != 2 or 0 in v],
    )
    with pytest.raises(InternalConsistencyError, match="random-coefficient round"):
        enumerate_concrete_subobjects(real)


def test_audit_fires_when_a_width_one_line_is_missing(monkeypatch, ex1a):
    # the closure of the unit vector of a width-1 level is the span of the
    # smallest stable good holding its block, and no pattern is a unit
    # vector: the good span alone lists its class.  Unmodified, ex1a has a
    # lattice with infinitely many subspaces, listed by the patterns and
    # the good spans: without the span, the random rounds on that level
    # (multiples of the unit vector, memoized per line) must find the
    # class.  Modified, every level is a chain and the stable good spans
    # are the list: it stands without any pattern, and without the span it
    # loses that one class.
    assert subobjects._pattern_vectors(1) == []
    for edges in ((), build_modified_frobenius(ex1a)):
        real = realize_matrices(ex1a, edges)
        level = next(k for k, coords in enumerate(real.levels) if len(coords) == 1)

        def without_span():
            lattice = StableLattice(real)
            span = lattice.closures([[(level, (1,))]])[0]
            assert span in lattice.good_keys
            lattice.good_keys = [key for key in lattice.good_keys if key != span]
            return lattice

        want = enumerate_concrete_subobjects(real)
        if edges:
            assert real.uniserial
            with monkeypatch.context() as patch:
                patch.setattr(subobjects, "_pattern_vectors", lambda width: [])
                assert enumerate_concrete_subobjects(real) == want
            got = enumerate_concrete_subobjects(real, lattice=without_span())
            assert len(got) == len(want) - 1 and set(got) < set(want)
            continue
        assert not real.uniserial
        with pytest.raises(InternalConsistencyError, match="random-coefficient"):
            enumerate_concrete_subobjects(real, lattice=without_span())


def test_line_memo_is_exact():
    # the memoized closure of c*v has the pieces of an unmemoized closure
    # of v in a fresh lattice, whichever multiple of the line came first
    rng = random.Random(141)
    checked = 0
    while checked < 300:
        spec = random_spec(rng, max_dim=6)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec) if rng.random() < 0.5 else ()
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        for level, coords in enumerate(real.levels):
            v = [rng.randint(-3, 3) for _ in coords]
            if not any(v):
                continue
            fresh = StableLattice(real)
            want = fresh.int_rows(fresh.closures([[(level, v)]])[0])
            for c in (rng.choice((-6, -2, 3, 7)), 1, -1, rng.randint(2, 40)):
                key = lattice.closure(level, [c * x for x in v])
                assert lattice.int_rows(key) == want
                checked += 1


def test_random_rounds_keep_their_draws():
    # one digit in +-1..9 and one denominator in 1..4 per coordinate, level
    # by level: the rng leaves a round where it did before the memo, and
    # each key is the closure of the drawn coefficient vector
    rng = random.Random(142)
    rounds = 0
    while rounds < 60:
        spec = random_spec(rng, max_dim=6)
        if spec is None:
            continue
        real = realize_matrices(spec, build_modified_frobenius(spec))
        lattice = StableLattice(real)
        seed = rng.randrange(1000)
        draws, replay = random.Random(seed), random.Random(seed)
        for _ in range(5):
            keys = random_round_subobjects(lattice, draws)
            for level, (coords, key) in enumerate(zip(real.levels, keys)):
                v = [
                    Fraction(replay.choice(_NONZERO_DIGITS), replay.randint(1, 4))
                    for _ in coords
                ]
                # the same vector scaled to integers
                v = list(oracles.int_rows([v])[0])
                fresh = StableLattice(real)
                assert lattice.int_rows(key) == fresh.int_rows(fresh.closures([[(level, v)]])[0])
            assert draws.getstate() == replay.getstate()
            rounds += 1


def test_combinatorial_greedy_h2():
    # good-against-good intersections need no matrix realization, so the
    # flag machinery runs for families of dimension two as well
    fam = Family("F", 2, Fraction(0))
    spec = ModuleSpec(CFG, (fam,), (Summand("F", 0, 1), Summand("F", 0, 2)))
    edges = build_modified_frobenius(spec)
    dp = good_profile(spec, GoodSubobject((0, 1)), edges)
    assert oracles.alpha_ratio(GoodSubobject((0, 0)), GoodSubobject((0, 1)), dp, spec) == 1
    flag = greedy_flag(spec, dp)
    dims = [m.dimension(spec) for m in flag.members]
    assert all(d % 2 == 0 for d in dims)
    pair = special_pair_from_flag(spec, flag, dp)
    assert _clause(*oracles.common_scale(pair.a, pair.c)[0]) is None
    om = omega_from_flag(spec, flag, dp)
    assert len(om) == GoodSubobject((0, 1)).dimension(spec)


def test_smallest_enclosing_good_matches_a_brute_force_scan():
    # against the least-dimension stable good whose dense intersection with
    # D' has dimension rank D', and for block-aligned D' the least-dimension
    # stable good containing it, on random specs with and without edges
    rng = random.Random(121)
    checked = coupled = proper = 0
    while checked < 400:
        spec = random_spec(rng)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec) if rng.random() < 0.5 else ()
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        goods = stable_good_subobjects(spec, edges)
        for sub in enumerate_concrete_subobjects(real, lattice=lattice):
            rank, dims = oracles.class_key(real, sub.rows)
            want = min(
                (g for g, d in zip(goods, dims) if d == rank),
                key=lambda g: g.dimension(spec),
            )
            assert smallest_enclosing_good(spec, lattice.profile(sub.key)) == want
            checked += 1
            coupled += bool(edges)
            proper += want != goods[-1]
        for dp in spec.goods:
            want = min(
                (g for g in goods if oracles.contains(g, dp)), key=lambda g: g.dimension(spec)
            )
            assert smallest_enclosing_good(spec, good_profile(spec, dp, edges)) == want
    assert coupled >= 100 and proper >= 100


def test_flag_layer_does_no_linear_algebra(monkeypatch, ex1a, ex2):
    cases = []
    for spec in (ex1a, ex2):
        edges = build_modified_frobenius(spec)
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        subs = enumerate_concrete_subobjects(real, lattice=lattice)
        cases += [(spec, lattice.profile(sub.key)) for sub in subs]
        cases += [(spec, good_profile(spec, g, edges)) for g in spec.goods]

    def refuse(*args, **kwargs):
        raise AssertionError("the flag layer called into linalg")

    monkeypatch.setattr(linalg, "Echelon", refuse)
    monkeypatch.setattr(linalg, "rank", refuse)
    pairs = 0
    for spec, prof in cases:
        flag = greedy_flag(spec, prof)
        assert greedy_flag(spec, prof, rng=random.Random(1)).alphas == flag.alphas
        assert len(omega_from_flag(spec, flag, prof)) == prof[flag_chain(spec, flag)[-1]]
        smallest_enclosing_good(spec, prof)
        try:
            special_pair_from_flag(spec, flag, prof)
            pairs += 1
        except SpecialPairViolation:
            pass
    assert pairs >= 20


def test_integer_class_order_matches_fraction_rows(ex1a, ex1b, ex2, ex3):
    # the representatives chosen and sorted on integer rows are those the
    # Fraction rows give, key for key and in the same order, on the worked
    # examples and random specs up to dimension 8, modified and not
    rng = random.Random(122)
    specs = [ex1a, ex1b, ex2, ex3]
    while len(specs) < 40:
        spec = random_spec(rng, max_dim=8, max_summands=4)
        if spec is not None:
            specs.append(spec)
    multi = big = 0
    for k, spec in enumerate(specs):
        for modify in (True, False):
            real = realize_matrices(spec, build_modified_frobenius(spec) if modify else ())
            # one lattice for both, so that equal keys mean equal pieces
            lattice = StableLattice(real)
            want = oracles.class_subobjects(real, seed=k, lattice=lattice)
            keys = subobjects._class_keys(lattice, seed=k)
            assert keys == [sub.key for sub in want]
            assert [lattice.int_rows(key) for key in keys] == [sub.rows for sub in want]
            assert enumerate_concrete_subobjects(real, seed=k) == want
            # classes holding several saturated keys, where the tie-break chooses
            atoms = [lattice.zero, *lattice.good_keys] + [
                lattice.closure(level, v)
                for level, coords in enumerate(real.levels)
                for v in subobjects._pattern_vectors(len(coords))
            ]
            counts = Counter(
                (lattice.dim(key), lattice.good_dims(key))
                for key in subobjects._saturate(lattice, atoms)
            )
            multi += sum(c > 1 for c in counts.values())
            big += spec.dimension >= 7
    assert multi >= 200 and big >= 10


# ---------------------------------------------------------------------------
# the all-chains theorem
# ---------------------------------------------------------------------------


def _theorem_realizations(examples):
    """The `data/` examples, the specs of the streams the verdict tests
    draw, and random specs up to dimension 8, each realized modified and
    not."""
    specs = list(examples)
    specs += [spec for spec, _ in equal_total_stream(1, 40, max_dim=8, min_summands=3)]
    specs += [spec for spec, _ in instance_stream(42, 200)]
    for seed, count, dim, least in ((5, 24, 6, 1), (7, 30, 7, 2), (13, 30, 7, 2)):
        specs += [
            spec for spec, _ in
            equal_total_stream(seed, count, max_dim=dim, min_summands=least)
        ]
    rng = random.Random(161)
    drawn = 0
    while drawn < 60:
        spec = random_spec(rng, max_dim=8, max_summands=4)
        if spec is not None:
            specs.append(spec)
            drawn += 1
    for spec in specs:
        for modify in (True, False):
            yield realize_matrices(spec, build_modified_frobenius(spec) if modify else ())


def _saturated_patterns(lattice, keep=lambda v: True):
    """The pattern route of `_class_keys`: the closures of the signed
    patterns (those `keep` takes) and the good spans, saturated under
    sums."""
    keys = [lattice.zero, *lattice.good_keys]
    for level, coords in enumerate(lattice.realization.levels):
        keys += [
            lattice.closure(level, v)
            for v in subobjects._pattern_vectors(len(coords)) if keep(v)
        ]
    return subobjects._saturate(lattice, keys)


def test_a_class_only_a_negative_pattern_entry_lists():
    # modified, the module with summands (l, b) = (0, 3), (1, 1), (1, 2)
    # has infinitely many stable subspaces in 19 classes; the patterns with
    # entries in {0, 1} alone, with the good spans, saturate to 18
    spec = ModuleSpec(
        CFG, (F,), (Summand("F", 0, 3), Summand("F", 1, 1), Summand("F", 1, 2))
    )
    real = realize_matrices(spec, build_modified_frobenius(spec))
    assert not real.uniserial
    assert len(enumerate_concrete_subobjects(real)) == 19
    for keep, count in ((lambda v: True, 19), (lambda v: min(v) >= 0, 18)):
        lattice = StableLattice(real)
        keys = _saturated_patterns(lattice, keep)
        assert len({(lattice.dim(key), lattice.good_dims(key)) for key in keys}) == count


def test_walk_lists_the_saturated_pattern_set_on_finite_lattices(ex1a, ex1b, ex2, ex3):
    # on every all-chains realization the stable good spans, which the
    # class list takes by theorem, are the subspaces of the pattern route,
    # key for key in one lattice, so classes and reports are those of a
    # list made without the theorem; the measures of each span are its
    # good's: dim E = sum of counts, dim(E cap E') from the componentwise
    # minimum, t_N from the level dimensions
    finite = infinite = high = 0
    for real in _theorem_realizations((ex1a, ex1b, ex2, ex3)):
        if not real.uniserial:
            infinite += 1
            continue
        lattice = StableLattice(real)
        keys = lattice.good_keys
        assert keys[0] == lattice.zero and len(set(keys)) == len(keys)
        assert set(keys) == set(_saturated_patterns(lattice))
        nums, den = real.level_slopes
        for key, good in zip(keys, lattice.goods):
            dims = lattice.level_dims(key)
            assert lattice.dim(key) == sum(dims) == sum(good.counts)
            assert lattice.scaled_t_n(key) == sum(d * x for d, x in zip(dims, nums))
            assert lattice.good_dims(key) == tuple(
                sum(map(min, good.counts, other.counts)) for other in lattice.goods
            )
        finite += 1
        high += real.dimension >= 7
    assert finite >= 500 and infinite >= 250 and high >= 10


def test_infinite_lattices_come_with_two_stable_covers_in_one_level(ex1a, ex1b, ex2, ex3):
    # the construction of the module docstring, checked densely: a
    # realization with a level lambda = (F, t) that is no chain has
    # dim ker E|lambda >= 2 there; U, the span of the blocks of the other
    # families and of F below twist t, is stable, and for two independent
    # x_a, x_b in that kernel U + <x_a>, U + <x_b> and U + <x_a + x_b> are
    # three distinct stable covers of U
    families = 0
    for real in _theorem_realizations((ex1a, ex1b, ex2, ex3)):
        if real.uniserial:
            continue
        ops = (real.phi, real.nmat)
        n = real.dimension
        for coords in real.levels:
            top = real.basis[coords[0]]
            # E|lambda = Phi|lambda / lambda - 1, read off the dense Phi
            lam = real.phi[coords[0]][coords[0]]
            coupling = tuple(
                tuple(Fraction(real.phi[r][c], lam) - (r == c) for c in coords)
                for r in coords
            )
            kernel = oracles.kernel_basis(coupling)
            if len(kernel) < 2:
                continue
            below = tuple(
                tuple(int(i == j) for i in range(n)) for j, blk in enumerate(real.basis)
                if blk.family.id != top.family.id or blk.twist < top.twist
            )
            assert oracles.is_stable(below, ops)
            xa, xb = (
                tuple(dict(zip(coords, x)).get(i, 0) for i in range(n)) for x in kernel[:2]
            )
            covers = [
                oracles.rref(below + (x,))
                for x in (xa, xb, tuple(map(operator.add, xa, xb)))
            ]
            assert len(set(covers)) == 3
            for cover in covers:
                assert len(cover) == len(below) + 1 and oracles.is_stable(cover, ops)
                assert all(oracles.in_span(cover, row) for row in below)
            families += 1
            break
        else:
            raise AssertionError("no level with a kernel of dimension 2 or more")
    assert families >= 250


def test_walk_refuses_past_the_lattice_guard(monkeypatch, ex1a):
    # modified, ex1a has five stable subspaces, every level a chain: its
    # class list is its five stable good spans, refused past the guard
    real = realize_matrices(ex1a, build_modified_frobenius(ex1a))
    assert real.uniserial
    size = len(enumerate_concrete_subobjects(real))
    assert size == 5
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", size)
    assert len(enumerate_concrete_subobjects(real)) == size
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", size - 1)
    refusal = f"exceeds the guard size of {size - 1} subspaces"
    with pytest.raises(CapExceededError, match=refusal):
        enumerate_concrete_subobjects(real)


def test_finite_lattices_run_no_pattern_saturation_or_random_round(monkeypatch):
    # the class list and the verdict of a finite lattice never reach the
    # pattern route; an infinite one still does
    def refuse(*args, **kwargs):
        raise AssertionError("the pattern route ran")

    for name in ("_pattern_vectors", "_saturate", "random_round_subobjects"):
        monkeypatch.setattr(subobjects, name, refuse)
    finite = infinite = 0
    for k, (spec, profile) in enumerate(equal_total_stream(7, 30, max_dim=7, min_summands=2)):
        for modify in (True, False):
            real = realize_matrices(spec, build_modified_frobenius(spec) if modify else ())
            if not real.uniserial:
                with pytest.raises(AssertionError, match="pattern route"):
                    enumerate_concrete_subobjects(real, seed=k)
                infinite += 1
                continue
            assert len(enumerate_concrete_subobjects(real, seed=k)) >= 2
            filt = build_transverse_filtration(spec, profile, real, seed=k)
            report = check_admissible(spec, profile, real, filt, seed=k)
            if modify:
                assert report.ok == check_slope_chain(spec, profile).ok
            finite += 1
    assert finite >= 40 and infinite >= 15


def test_all_chains_iff_finite_and_then_exactly_the_stable_goods():
    # the theorem of the module docstring against the pattern route: where
    # every level is a chain the route lists the stable good spans and
    # nothing else, and where one is not a pattern closure is a stable
    # subspace that no good spans
    rng = random.Random(128)
    seen = Counter()
    draws = 0
    while draws < 1000:
        if draws % 2:
            spec = random_spec(rng, max_dim=8, max_summands=4)
        else:
            spec = random_single_component_spec(rng, max_dim=8)
        if spec is None:
            continue
        draws += 1
        for edges in ((), build_modified_frobenius(spec)):
            real = realize_matrices(spec, edges)
            lattice = StableLattice(real)
            goods = set(lattice.good_keys)
            if real.uniserial:
                assert set(_saturated_patterns(lattice)) == goods
            else:
                assert any(
                    lattice.closure(level, v) not in goods
                    for level, coords in enumerate(real.levels)
                    for v in subobjects._pattern_vectors(len(coords))
                )
            seen[real.uniserial, bool(edges)] += 1
    # both kinds, modified and not
    assert min(seen[kind] for kind in itertools.product((True, False), repeat=2)) >= 20


def _lines(count, edges=()):
    """`count` copies of F(0) on one level, with the given (src, dst) edges."""
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 1),) * count)
    return realize_matrices(spec, tuple(ModificationEdge(s, d, 0) for s, d in edges))


def test_a_level_is_one_chain_or_the_lattice_is_infinite():
    # F(0) + F(0): two chains unmodified, one chain modified
    plain = _lines(2)
    assert not plain.uniserial
    spec = plain.spec
    joined = realize_matrices(spec, build_modified_frobenius(spec))
    assert joined.edges and joined.uniserial
    assert len(enumerate_concrete_subobjects(joined)) == 3
    # three lines: one chain, a chain and a line, two columns into one target
    assert _lines(3, [(0, 1), (1, 2)]).uniserial
    for edges in ([(0, 1)], [(0, 2), (1, 2)]):
        assert not _lines(3, edges).uniserial


def test_realize_refuses_edges_the_coupling_cannot_carry():
    # E holds one edge per source summand, and a cycle of edges, a
    # self-loop included, makes E not nilpotent, so no level a generalized
    # eigenspace: each is refused, naming an edge
    for count, edges, named, reason in (
        (3, [(0, 1), (0, 2)], (0, 2), "one edge per source"),
        (3, [(0, 1), (1, 0)], (0, 1), "cycle"),
        (2, [(0, 1), (1, 1)], (1, 1), "cycle"),
        (2, [(1, 1)], (1, 1), "cycle"),
    ):
        with pytest.raises(ValueError, match=reason) as refusal:
            _lines(count, edges)
        assert str(ModificationEdge(*named, 0)) in str(refusal.value)


def test_a_coupling_that_is_not_nilpotent_is_no_chain():
    # a cycle e0 <-> e1 beside the line e2, and e0 -> e1 -> e1: every column
    # count of a chain, but E is not nilpotent, so no chain.  Such edges are
    # refused, so the predicate is shown the columns by hand
    for count, edges in ((3, [(0, 1), (1, 0)]), (2, [(0, 1), (1, 1)])):
        with pytest.raises(ValueError, match="cycle"):
            _lines(count, edges)
        cols = [()] * count
        for src, dst in edges:
            cols[src] = ((dst, 1),)
        real = dataclasses.replace(_lines(count), e_cols=tuple(cols))
        assert not real.uniserial


def test_a_coupling_column_with_two_entries_is_no_chain():
    # E e0 = e1 + e2, E e1 = e2: a flag of coordinate subspaces, but E does
    # not send a basis vector to a multiple of another, so the predicate
    # refuses it
    real = _lines(3, [(0, 1), (1, 2)])
    cols = list(real.e_cols)
    cols[0] = ((1, 1), (2, 1))
    tampered = dataclasses.replace(real, e_cols=tuple(cols))
    assert real.uniserial and not tampered.uniserial
