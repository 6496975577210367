import random
from collections import Counter
from fractions import Fraction

import pytest

from filtadm import linalg, subobjects
from filtadm.frobenius import build_modified_frobenius, realize_matrices
from filtadm.model import Config, Family, GoodSubobject, ModuleSpec, Summand
from filtadm.pairs import InternalConsistencyError, is_special
from filtadm.subobjects import (
    CapExceededError,
    StableLattice,
    _NONZERO_DIGITS,
    enumerate_concrete_subobjects,
    enumerate_good_subobjects,
    is_stable_good,
    random_round_subobjects,
    smallest_enclosing_good,
    stable_good_subobjects,
)
from helpers import closure_rows, random_single_component_spec, random_spec
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
    return oracles.mat(vs)


def profile(spec, *vs, edges=()):
    """The intersection profile of hand-written rows, from the dense oracle."""
    return oracles.intersection_profile(spec, oracles.mat(vs), edges)


def test_good_counts(ex1a, ex2):
    assert len(enumerate_good_subobjects(ex1a)) == 6
    assert len(enumerate_good_subobjects(ex2)) == 9
    single = ModuleSpec(CFG, (Family("F", 2, Fraction(0)),), (Summand("F", 0, 1),))
    assert [g.counts for g in enumerate_good_subobjects(single)] == [(0,), (1,)]


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
        # the key the subspace was born with agrees with its rows
        assert lattice.rows(sub.key) == sub.rows
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
    assert is_special(pair.a, pair.c) == (True, None)
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
        subs = enumerate_concrete_subobjects(real, seed=done, rounds=0, lattice=lattice)
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
        enumerate_concrete_subobjects(real, seed=seed, rounds=3)


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
    # span both list its class and dropping either alone loses nothing;
    # without both, the random rounds on that level (multiples of the unit
    # vector, looked up in the line memo) must find the class
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
            want = fresh.rows(fresh.closures([[(level, v)]])[0])
            for c in (rng.choice((-6, -2, 3, 7)), 1, -1, rng.randint(2, 40)):
                key = lattice.closure(level, [c * x for x in v])
                assert lattice.rows(key) == want
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
                fresh = StableLattice(real)
                assert lattice.rows(key) == fresh.rows(fresh.closures([[(level, v)]])[0])
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
    assert is_special(pair.a, pair.c)[0]
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
        for sub in enumerate_concrete_subobjects(real, rounds=0, lattice=lattice):
            rank, dims = oracles.class_key(real, sub.rows)
            want = min(
                (g for g, d in zip(goods, dims) if d == rank),
                key=lambda g: g.dimension(spec),
            )
            assert smallest_enclosing_good(spec, lattice.profile(sub.key)) == want
            checked += 1
            coupled += bool(edges)
            proper += want != goods[-1]
        for dp in enumerate_good_subobjects(spec):
            want = min(
                (g for g in goods if g.contains(dp)), key=lambda g: g.dimension(spec)
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
        cases += [(spec, good_profile(spec, g, edges)) for g in enumerate_good_subobjects(spec)]

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
            want = oracles.class_subobjects(real, seed=k, rounds=1)
            lattice = StableLattice(real)
            keys = subobjects._class_keys(lattice, seed=k, rounds=1)
            assert keys == [sub.key for sub in want]
            assert [lattice.rows(key) for key in keys] == [sub.rows for sub in want]
            assert enumerate_concrete_subobjects(real, seed=k, rounds=1) == want
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
