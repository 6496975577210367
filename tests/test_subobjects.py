import dataclasses
import itertools
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
    # smallest stable good holding its block, so the pattern and the good
    # span both list its class and dropping either alone loses nothing.
    # Unmodified, ex1a has a lattice with infinitely many subspaces, listed
    # by the patterns: without both, the random rounds on that level
    # (multiples of the unit vector, looked up in the line memo) must find
    # the class.  Modified, its lattice is finite and the walk over covers
    # lists it, so the list stands without any pattern or good span.
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
        assert enumerate_concrete_subobjects(real, lattice=without_span()) == want
        with monkeypatch.context() as patch:
            patterns = subobjects._pattern_vectors
            if edges:
                assert StableLattice(real).walk() is not None
                patch.setattr(subobjects, "_pattern_vectors", lambda width: [])
                lattice = StableLattice(real)
                lattice.good_keys = []
                assert enumerate_concrete_subobjects(real, lattice=lattice) == want
                continue
            assert StableLattice(real).walk() is None
            patch.setattr(
                subobjects, "_pattern_vectors",
                lambda width: patterns(width) if width > 1 else [],
            )
            assert enumerate_concrete_subobjects(real) == want
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
# the walk over covers
# ---------------------------------------------------------------------------


def _walk_realizations(examples):
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


def _level_key(lattice, level, pid):
    """Piece ids with `pid` on `level` and the zero piece elsewhere."""
    return lattice.zero[:level] + (pid,) + lattice.zero[level + 1:]


def test_a_class_only_a_negative_pattern_entry_lists():
    # modified, the module with summands (l, b) = (0, 3), (1, 1), (1, 2)
    # has infinitely many stable subspaces in 19 classes; the patterns with
    # entries in {0, 1} alone, with the good spans, saturate to 18
    spec = ModuleSpec(
        CFG, (F,), (Summand("F", 0, 3), Summand("F", 1, 1), Summand("F", 1, 2))
    )
    real = realize_matrices(spec, build_modified_frobenius(spec))
    assert StableLattice(real).walk() is None
    assert len(enumerate_concrete_subobjects(real)) == 19
    for keep, count in ((lambda v: True, 19), (lambda v: min(v) >= 0, 18)):
        lattice = StableLattice(real)
        keys = _saturated_patterns(lattice, keep)
        assert len({(lattice.dim(key), lattice.good_dims(key)) for key in keys}) == count


def test_walk_lists_the_saturated_pattern_set_on_finite_lattices(ex1a, ex1b, ex2, ex3):
    # on every finite lattice the walk's subspaces are those of the pattern
    # route, key for key in one lattice, so classes and reports stay
    finite = infinite = high = 0
    for real in _walk_realizations((ex1a, ex1b, ex2, ex3)):
        lattice = StableLattice(real)
        nodes = lattice.walk()
        if nodes is None:
            assert lattice.family is not None
            infinite += 1
            continue
        assert lattice.family is None and lattice.walk() is nodes
        assert nodes[0] == lattice.zero and len(set(nodes)) == len(nodes)
        assert set(nodes) == set(_saturated_patterns(lattice))
        # the measures the walk carries from a subspace to its covers
        nums, den = real.level_slopes
        for key in nodes:
            dims = lattice.level_dims(key)
            assert lattice.dim(key) == sum(dims)
            assert lattice.scaled_t_n(key) == sum(d * x for d, x in zip(dims, nums))
            parts = [lattice._level_terms(level, pid) for level, pid in enumerate(key)]
            assert lattice.good_dims(key) == tuple(map(sum, zip(*parts)))
        finite += 1
        high += real.dimension >= 7
    assert finite >= 500 and infinite >= 250 and high >= 10


def test_cover_spans_match_dense_stability_over_a_box():
    # x lies in S_lambda(U) iff U + <x> is stable, for every x of the box
    # {-1, 0, 1} on the level, on the walk's subspaces of finite lattices
    # and the listed classes and the family node of infinite ones
    rng = random.Random(162)
    checked = grown = wide = 0
    reals = 0
    while reals < 40:
        spec = random_spec(rng, max_dim=5)
        if spec is None:
            continue
        real = realize_matrices(spec, build_modified_frobenius(spec) if reals % 2 else ())
        reals += 1
        lattice = StableLattice(real)
        keys = lattice.walk()
        if keys is None:
            subs = enumerate_concrete_subobjects(real, lattice=lattice)
            keys = [lattice.family[0]] + [sub.key for sub in subs]
        for key in keys[:10]:
            rows = oracles.rref(lattice.int_rows(key))
            for level, coords in enumerate(real.levels):
                pid = lattice.cover_span(level, key)
                span = oracles.rref(lattice.int_rows(_level_key(lattice, level, pid)))
                want = oracles.stable_extensions(real, rows, coords)
                assert {x: oracles.in_span(span, x) for x in want} == want
                checked += len(want)
                grown += pid != key[level]
                wide += len(lattice.piece(level, pid)) - len(lattice.piece(level, key[level])) > 1
    assert checked >= 2500 and grown >= 300 and wide >= 25


def test_infinite_lattices_come_with_two_stable_covers_in_one_level(ex1a, ex1b, ex2, ex3):
    # the family the walk stops at: U stable, and two vectors of S_lambda(U)
    # independent modulo U give two distinct stable covers of U in level
    # lambda, checked densely
    families = 0
    for real in _walk_realizations((ex1a, ex1b, ex2, ex3)):
        lattice = StableLattice(real)
        if lattice.walk() is not None:
            continue
        key, level, socle = lattice.family
        assert socle >= 2
        pid = lattice.cover_span(level, key)
        assert len(lattice.piece(level, pid)) - len(lattice.piece(level, key[level])) == socle
        ops = (real.phi, real.nmat)
        rows = oracles.rref(lattice.int_rows(key))
        assert oracles.is_stable(rows, ops)
        picked = []
        for x in oracles.rref(lattice.int_rows(_level_key(lattice, level, pid))):
            if len(oracles.rref(rows + tuple(picked) + (x,))) > len(rows) + len(picked):
                picked.append(x)
        assert len(picked) == socle
        covers = [oracles.rref(rows + (x,)) for x in picked[:2]]
        assert covers[0] != covers[1]
        for cover in covers:
            assert len(cover) == len(rows) + 1 and oracles.is_stable(cover, ops)
            assert all(oracles.in_span(cover, row) for row in rows)
        families += 1
    assert families >= 250


def test_walk_refuses_past_the_lattice_guard(monkeypatch, ex1a):
    # modified, ex1a has five stable subspaces
    real = realize_matrices(ex1a, build_modified_frobenius(ex1a))
    size = len(StableLattice(real).walk())
    assert size == 5
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", size)
    assert len(StableLattice(real).walk()) == size
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", size - 1)
    refusal = f"exceeds the guard size of {size - 1} subspaces"
    with pytest.raises(CapExceededError, match=refusal):
        StableLattice(real).walk()
    with pytest.raises(CapExceededError, match=refusal):
        enumerate_concrete_subobjects(real)


def test_cover_span_refuses_a_subspace_that_is_not_stable(ex1a, ex2):
    # the whole of a level that N sends into a level held at 0: N moves
    # the piece out of the subspace, so it is not inside its cover span
    refused = 0
    for spec in (ex1a, ex2):
        for edges in ((), build_modified_frobenius(spec)):
            real = realize_matrices(spec, edges)
            lattice = StableLattice(real)
            whole = lattice.good_keys[-1]
            for level, (_, nmat) in enumerate(real.level_operators):
                if nmat:
                    key = _level_key(lattice, level, whole[level])
                    assert not oracles.is_stable(lattice.int_rows(key), (real.phi, real.nmat))
                    with pytest.raises(InternalConsistencyError, match="cover span"):
                        lattice.cover_span(level, key)
                    refused += 1
    assert refused >= 4


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
            if StableLattice(real).walk() is None:
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
    # the theorem of the module docstring against the walk: every level a
    # chain iff the walk ends, and then its nodes are the stable good spans
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
            nodes = lattice.walk()
            assert real.uniserial == (nodes is not None)
            seen[real.uniserial, bool(edges)] += 1
            if nodes is not None:
                assert len(nodes) == len(lattice.good_keys)
                assert set(nodes) == set(lattice.good_keys)
    # both kinds, modified and not
    assert min(seen[kind] for kind in itertools.product((True, False), repeat=2)) >= 20


def _lines(count, edges=()):
    """`count` copies of F(0) on one level, with the given (src, dst) edges."""
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 1),) * count)
    return realize_matrices(spec, tuple(ModificationEdge(s, d, 0) for s, d in edges))


def test_a_level_is_one_chain_or_the_lattice_is_infinite():
    # F(0) + F(0): two chains unmodified, one chain modified
    plain = _lines(2)
    assert not plain.uniserial and StableLattice(plain).walk() is None
    spec = plain.spec
    joined = realize_matrices(spec, build_modified_frobenius(spec))
    assert joined.edges and joined.uniserial
    assert len(StableLattice(joined).walk()) == 3
    # three lines: one chain, a chain and a line, two columns into one target
    assert _lines(3, [(0, 1), (1, 2)]).uniserial
    for edges in ([(0, 1)], [(0, 2), (1, 2)]):
        real = _lines(3, edges)
        assert not real.uniserial and StableLattice(real).walk() is None


def test_a_coupling_that_is_not_nilpotent_is_no_chain():
    # a cycle e0 <-> e1 beside the line e2, and e0 -> e1 -> e1: every column
    # count of a chain, but E is not nilpotent, so no chain; the walk ends
    # there, which the theorem rules out for a realization with such a
    # level, and it fails loudly
    for count, edges in ((3, [(0, 1), (1, 0)]), (2, [(0, 1), (1, 1)])):
        real = _lines(count, edges)
        assert not real.uniserial
        with pytest.raises(InternalConsistencyError, match="not a chain"):
            StableLattice(real).walk()
        with pytest.raises(InternalConsistencyError, match="not a chain"):
            enumerate_concrete_subobjects(real)


def test_a_coupling_column_with_two_entries_is_no_chain():
    # E e0 = e1 + e2, E e1 = e2: a flag of coordinate subspaces, but E does
    # not send a basis vector to a multiple of another, so the predicate
    # refuses it and the walk, finite, fails loudly
    real = _lines(3, [(0, 1), (1, 2)])
    cols = list(real.e_cols)
    cols[0] = ((1, 1), (2, 1))
    tampered = dataclasses.replace(real, e_cols=tuple(cols))
    assert real.uniserial and not tampered.uniserial
    with pytest.raises(InternalConsistencyError, match="not a chain"):
        StableLattice(tampered).walk()


def test_walk_fails_loudly_when_it_contradicts_the_theorem(monkeypatch):
    # an all-chains realization whose walk meets a socle of dimension 2,
    # and a finite walk whose nodes are not the stable goods
    real = _lines(2)
    real.__dict__["uniserial"] = True
    with pytest.raises(InternalConsistencyError, match="infinitely many"):
        StableLattice(real).walk()
    joined = _lines(2, [(0, 1)])
    assert len(StableLattice(joined).walk()) == 3
    # one good too few, and a good of dimension 1 read as dimension 2
    lattice = StableLattice(joined)
    lattice.goods = lattice.goods[:-1]
    with pytest.raises(InternalConsistencyError, match="not the stable good spans"):
        lattice.walk()
    lattice = StableLattice(joined)
    lattice.good_sizes = tuple(2 if size == 1 else size for size in lattice.good_sizes)
    with pytest.raises(InternalConsistencyError, match="not the stable good spans"):
        lattice.walk()
