import dataclasses
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from filtadm import filtration, subobjects
from filtadm.filtration import (
    Filtration,
    _aligned_candidates,
    _chain_bound,
    _chain_steps,
    build_transverse_filtration,
    check_admissible,
    t_h,
)
from filtadm.frobenius import build_modified_frobenius, realize_matrices
from filtadm.model import (
    CapExceededError,
    Config,
    Family,
    GoodSubobject,
    InternalConsistencyError,
    ModuleSpec,
    SpecError,
    Summand,
    WeightProfile,
    profile_from_dict,
    ratio_to_str,
    row_to_str,
    spec_from_dict,
    t_n,
)
from filtadm.ordering import canonical_order
from filtadm.slopes import check_slope_chain
from filtadm.subobjects import (
    StableLattice,
    enumerate_concrete_subobjects,
    stable_good_subobjects,
)
from helpers import equal_total_stream, random_profile, random_spec
import oracles
from oracles import good_span, greedy_flag, omega_from_flag

CFG = Config(p=2)
F = Family("F", 1, Fraction(0))
FILTRATION_SEEDS = (0, 1)


def _setup(spec, profile, seed=7, modify=True):
    edges = build_modified_frobenius(spec) if modify else ()
    real = realize_matrices(spec, edges)
    filt = build_transverse_filtration(spec, profile, real, seed=seed)
    return real, filt


def test_transversality_exact_on_goods(ex1a, w_m212):
    real, filt = _setup(ex1a, w_m212)
    for good in ex1a.goods:
        m = good.dimension(ex1a)
        rows = good_span(ex1a, good)
        for sigma in range(ex1a.config.embeddings):
            jumps = oracles.induced_jumps(filt, sigma, rows)
            assert jumps == tuple(sorted(w_m212.weights[sigma][:m]))


def test_t_h_of_dim2_goods_ex1a(ex1a, w_m212):
    real, filt = _setup(ex1a, w_m212)
    for good in ex1a.goods:
        if good.dimension(ex1a) != 2:
            continue
        rows = oracles.int_rows(good_span(ex1a, good))
        assert t_h(filt, rows, ex1a.config) == -2 + 1


def test_t_h_of_dim1_goods_ex2(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    for good in ex2.goods:
        if good.dimension(ex2) != 1:
            continue
        assert t_h(filt, oracles.int_rows(good_span(ex2, good)), ex2.config) == -1


def test_t_h_whole_module(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    full = oracles.int_rows(oracles.identity(4))
    assert t_h(filt, full, ex2.config) == ex2.config.deg_K_L * w_ex2.total


def test_t_h_mixed_line_below_omega_bound(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    rows = ((1, 0, 0, 0), (0, 1, 1, 0))
    prof = oracles.intersection_profile(ex2, rows)
    om = omega_from_flag(ex2, greedy_flag(ex2, prof), prof)
    assert om == frozenset({1, 3})
    bound = sum(row[j - 1] for row in w_ex2.weights for j in om)
    assert t_h(filt, rows, ex2.config) <= bound == -1 + 2


def test_jump_monotone_under_inclusion(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    small = oracles.mat([[1, 0, 0, 0]])
    big = oracles.mat([[1, 0, 0, 0], [0, 1, 1, 0]])
    for sigma in range(ex2.config.embeddings):
        js, jb = oracles.induced_jumps(filt, sigma, small), oracles.induced_jumps(filt, sigma, big)
        rest = list(jb)
        for x in js:
            rest.remove(x)     # raises if not a sub-multiset
        assert len(rest) == len(jb) - len(js)


def test_admissible_ex1a_modified(ex1a, w_m212):
    real, filt = _setup(ex1a, w_m212, modify=True)
    report = check_admissible(ex1a, w_m212, real, filt)
    assert report.ok


def test_admissible_ex1a_unmodified_fails(ex1a, w_m212):
    real, filt = _setup(ex1a, w_m212, modify=False)
    report = check_admissible(ex1a, w_m212, real, filt)
    assert not report.ok and report.reason == "witness" and report.proof is None
    w = report.witness
    assert Fraction(w["tH"].replace("/", "/")) >= 1
    assert Fraction(w["tN"]) == 0
    assert w["enclosingDim"] == 2 and w["enclosingGood"] == [1, 1]
    # no stable good violates and some class does not certify: the
    # witness comes from the search, which ran outside the certified
    # classes only
    assert w["source"] == "search"
    classes = [r for r in report.table if "tHBound" in r]
    assert any(Fraction(r["tHBound"]) > Fraction(r["tN"]) for r in classes)
    assert report.checked == len(report.table)


def test_admissible_ex2(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    report = check_admissible(ex2, w_ex2, real, filt)
    assert report.ok


def test_equality_check_precedes_everything(ex1a, w_012):
    real, filt = _setup(ex1a, w_012)
    report = check_admissible(ex1a, w_012, real, filt)
    assert not report.ok and report.reason == "equality"


def test_filtration_deterministic(ex2, w_ex2):
    # the bases are fixed by the dimension and the embedding count; the
    # seed is only recorded
    real, f1 = _setup(ex2, w_ex2, seed=3)
    _, f2 = _setup(ex2, w_ex2, seed=3)
    _, f3 = _setup(ex2, w_ex2, seed=4)
    assert f1 == f2 and f3.bases == f1.bases and (f1.seed, f3.seed) == (3, 4)
    assert f1.vectors == ((
        (1, 1, 1, 1), (1, 2, 4, 8), (1, 3, 9, 27), (1, 4, 16, 64),
    ),)
    assert f1.attempts == ex2.config.embeddings == 1


def test_hand_built_filtration_is_verified(ex1a, w_m212):
    real, filt = _setup(ex1a, w_m212)
    # the standard basis puts v_1 inside the good line: not transverse, and
    # not the theorem basis either, which is the only one accepted
    standard = tuple(oracles.int_rows(oracles.identity(ex1a.dimension)) for _ in w_m212.weights)
    bad = Filtration(w_m212, standard, 0, 1)
    with pytest.raises(SpecError, match=r"vectors\[0\]: not the theorem basis, nodes 1..3"):
        check_admissible(ex1a, w_m212, real, bad)
    # the bounds read the profile: a filtration with other weights is refused
    other = WeightProfile(tuple(tuple(w + 1 for w in row) for row in w_m212.weights))
    with pytest.raises(ValueError, match="weights differ"):
        check_admissible(ex1a, w_m212, real, dataclasses.replace(filt, weights=other))
    # the same bases, rebuilt by hand from their Fraction rows or copied,
    # pass with the same report
    rebuilt = tuple(map(oracles.int_rows, filt.bases))
    for copy in (Filtration(w_m212, rebuilt, 7, 1), dataclasses.replace(filt)):
        assert copy.vectors == filt.vectors
        assert check_admissible(ex1a, w_m212, real, copy) == check_admissible(
            ex1a, w_m212, real, filt
        )


def test_a_realization_of_another_spec_is_refused(ex1a, w_m212):
    # both are 3-dimensional like ex1a, and both would certify ok
    raised = dataclasses.replace(ex1a, families=(Family("F", 1, Fraction(3)),))
    chain = ModuleSpec(ex1a.config, ex1a.families, (Summand("F", 0, 3),))
    _, filt = _setup(ex1a, w_m212)
    for other in (raised, chain):
        real = realize_matrices(other, build_modified_frobenius(other))
        assert real.dimension == ex1a.dimension
        with pytest.raises(ValueError, match="realization does not match the spec"):
            build_transverse_filtration(ex1a, w_m212, real, seed=7)
        with pytest.raises(ValueError, match="realization does not match the spec"):
            check_admissible(ex1a, w_m212, real, filt)


def _class_bound(lattice, profile, key):
    return lattice.realization.spec.config.deg_K_L * _chain_bound(
        _chain_steps(lattice, profile), lattice.good_dims(key)
    )


def test_chain_bound_dominates_every_search_candidate():
    # the two sources of the search, the listed classes and the aligned
    # closures, and five rounds of random-coefficient closures: every
    # candidate lies in a listed class, and the class bound is at least its
    # exact t_H
    stream = equal_total_stream(5, 24, max_dim=6)
    checked = 0
    for k, (spec, profile) in enumerate(stream):
        for modify in (True, False):
            real, filt = _setup(spec, profile, seed=k, modify=modify)
            lattice = StableLattice(real)
            listed = enumerate_concrete_subobjects(real, lattice=lattice)
            bounds = {
                (s.rank, lattice.good_dims(s.key)): _class_bound(lattice, profile, s.key)
                for s in listed
            }
            keys = [s.key for s in listed]
            rng = random.Random(k + 1)
            for _ in range(5):
                keys += oracles.random_round_subobjects(lattice, rng)
            keys += _aligned_candidates(lattice, filt)
            for key in keys:
                bound = bounds[(lattice.dim(key), lattice.good_dims(key))]
                assert t_h(filt, lattice.int_rows(key), spec.config) <= bound
                checked += 1
    assert checked > 1000


def test_cover_dp_equals_all_pairs_dp():
    rng = random.Random(31)
    done = 0
    while done < 25:
        spec = random_spec(rng, max_dim=6)
        if spec is None:
            continue
        profile = random_profile(rng, spec)
        edges = build_modified_frobenius(spec) if done % 3 else ()
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        # the goods of the lattice, their covers, and the classes
        assert lattice.goods == stable_good_subobjects(spec, edges)
        for sub in enumerate_concrete_subobjects(real, lattice=lattice):
            want = oracles.chain_bound(spec, profile, lattice.profile(sub.key))
            assert _class_bound(lattice, profile, sub.key) == want
        done += 1


def test_lower_covers_are_the_cover_pairs():
    rng = random.Random(32)
    done = 0
    while done < 25:
        spec = random_spec(rng, max_dim=7, max_summands=4)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec)
        lattice = StableLattice(realize_matrices(spec, edges))
        goods = lattice.goods
        for j, g in enumerate(goods):
            below = [f for f in goods if f != g and oracles.contains(g, f)]
            want = [
                i for i, f in enumerate(goods)
                if f in below and not any(h != f and oracles.contains(h, f) for h in below)
            ]
            assert sorted(lattice.lower_covers[j]) == want
        done += 1


def test_modified_streams_decide_by_proof():
    # a good witness exists exactly when the slope chain fails, and every
    # ok rests on chain certificates
    stream = equal_total_stream(7, 30, max_dim=7, min_summands=2)
    for k, (spec, profile) in enumerate(stream):
        chain = check_slope_chain(spec, profile).ok
        kl = spec.config.deg_K_L
        prefix = profile.prefix_sums()
        edges = build_modified_frobenius(spec)
        witness_goods = [
            g for g in stable_good_subobjects(spec, edges)
            if kl * prefix[g.dimension(spec)] > oracles.good_t_n(spec, g)
        ]
        assert bool(witness_goods) == (not chain)
        real, filt = _setup(spec, profile, seed=k)
        report = check_admissible(spec, profile, real, filt, seed=k)
        assert report.ok == chain
        if chain:
            assert report.proof == "certificate"
            assert all("tH" not in row for row in report.table)
        else:
            assert report.proof is None and report.witness["source"] == "good"
            first = min(witness_goods, key=lambda g: (g.dimension(spec), g.counts))
            assert report.witness["enclosingGood"] == list(first.counts)


def test_good_witness_comes_before_the_class_list(monkeypatch):
    # a failing item returns its good witness without listing classes; an
    # ok item lists them once iff some level of its realization is not a
    # chain (an all-chains one reads its classes off the good scan); the
    # cap is still checked before any verdict
    calls = []
    listing = filtration._class_keys

    def counted(*args, **kwargs):
        calls.append(args)
        return listing(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a failing item listed its classes")

    stream = equal_total_stream(13, 30, max_dim=7, min_summands=2)
    failing = 0
    oks = {True: 0, False: 0}
    for k, (spec, profile) in enumerate(stream):
        ok = check_slope_chain(spec, profile).ok
        real, filt = _setup(spec, profile, seed=k)
        monkeypatch.setattr(
            filtration, "_class_keys", counted if ok else refuse
        )
        calls.clear()
        report = check_admissible(spec, profile, real, filt, seed=k)
        assert report.ok == ok
        if ok:
            assert len(calls) == (0 if real.uniserial else 1)
            oks[real.uniserial] += 1
            continue
        failing += 1
        assert report.witness["source"] == "good"
        cap = spec.dimension - 1
        with pytest.raises(CapExceededError, match=f"enumeration cap {cap}$"):
            check_admissible(spec, profile, real, filt, cap=cap, seed=k)
    assert failing == 15
    assert oks[True] >= 1 and oks[False] >= 1


def test_t_h_of_integer_rows_matches_fraction_rows():
    # the verdict feeds t_H the lattice's canonical integer rows; t_H of
    # any integer rows spanning the subspace is the stacked-rank oracle's
    # on its Fraction rows
    stream = equal_total_stream(17, 12, max_dim=6)
    checked = 0
    for k, (spec, profile) in enumerate(stream):
        real, filt = _setup(spec, profile, seed=k, modify=k % 2 == 0)
        lattice = StableLattice(real)
        for sub in enumerate_concrete_subobjects(real, lattice=lattice):
            ints = lattice.int_rows(sub.key)
            assert all(next(filter(None, row)) > 0 for row in ints)
            assert all(math.gcd(*row) == 1 for row in ints)
            fractions = oracles.rref(ints)
            assert oracles.int_rows(fractions) == ints == sub.rows
            want = 0
            for sigma, wrow in enumerate(profile.weights):
                dims = oracles.tail_dims(filt, sigma, fractions)
                want += sum(w * (a - b) for w, a, b in zip(wrow, dims, dims[1:]))
            want *= spec.config.deg_K_L
            assert t_h(filt, ints, spec.config) == want
            # a spanning set that is no echelon: scaled, reversed, with a sum
            spanning = [tuple(-3 * x for x in row) for row in reversed(ints)]
            spanning.append(tuple(map(sum, zip(*ints))))
            assert t_h(filt, spanning, spec.config) == want
            checked += 1
    assert checked > 100


def test_transverse_dim2_trivial():
    # two-dimensional module, one chain: the sampled flag must sit in
    # general position against the single proper good line
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 2),))
    prof = WeightProfile(((0, 1),))
    real = realize_matrices(spec, ())
    filt = build_transverse_filtration(spec, prof, real, seed=1)
    line = good_span(spec, GoodSubobject((1,)))
    assert oracles.induced_jumps(filt, 0, line) == (0,)


def test_random_specs_transverse_and_bounded():
    rng = random.Random(23)
    done = 0
    while done < 15:
        spec = random_spec(rng, max_dim=5)
        if spec is None:
            continue
        prof = random_profile(rng, spec)
        edges = build_modified_frobenius(spec)
        real = realize_matrices(spec, edges)
        filt = build_transverse_filtration(spec, prof, real, seed=done)
        for good in spec.goods:
            m = good.dimension(spec)
            rows = good_span(spec, good)
            for sigma in range(spec.config.embeddings):
                assert oracles.induced_jumps(filt, sigma, rows) == tuple(
                    sorted(prof.weights[sigma][:m])
                )
        done += 1


def test_verify_path_builds_no_fraction_matrices(data_dir):
    # order -> modify -> realize -> filter -> verify reads the sparse
    # columns and the drawn integer rows only: the dense matrices of the
    # realization and the Fraction rows of the filtration are never
    # built, on the worked examples and on equal-total draws, modified and
    # not, whatever the verdict rests on
    def load(name):
        return json.loads((data_dir / name).read_text())

    pairs = [
        (spec_from_dict(load(f"{spec}_spec.json")), profile_from_dict(load(f"{w}.json")))
        for spec, w in (
            ("ex1a", "weights_m212"), ("ex1a", "weights_012"), ("ex1b", "weights_ex1b"),
            ("ex2", "weights_ex2"), ("ex3", "weights_ex3"),
        )
    ]
    pairs += equal_total_stream(41, 16, max_dim=6)
    outcomes = set()
    for spec, profile in pairs:
        ordered = canonical_order(spec)[0]
        for edges in (build_modified_frobenius(ordered), ()):
            real = realize_matrices(ordered, edges)
            filt = build_transverse_filtration(ordered, profile, real, seed=5)
            report = check_admissible(ordered, profile, real, filt, seed=5)
            outcomes.add(report.proof or report.reason)
            assert not {"phi", "nmat", "coupling"} & real.__dict__.keys()
            assert "bases" not in filt.__dict__
    assert {"certificate", "search", "witness", "equality"} <= outcomes
    # reading them builds them, once
    assert real.phi is real.phi and "phi" in real.__dict__
    assert filt.bases is filt.bases and "bases" in filt.__dict__



def test_filtration_without_one_integer_basis_per_weight_row_is_refused(ex1a, w_m212):
    # only the theorem basis is transverse by proof and the certificates
    # read the profile, so a filtration with a basis missing would get a
    # proved ok; short rows or inexact entries would fail late
    real, filt = _setup(ex1a, w_m212)
    n = ex1a.dimension
    basis = filt.vectors[0]
    other = "vectors[0]: not the theorem basis, nodes 1..3"
    # a list, not a dict: a float or Fraction row equals its int row
    cases = [
        ((), "vectors[0]: missing basis"),
        ((basis, basis), "vectors[1]: no weight row"),
        ((basis[:2],), other),
        (((basis[0][:2],) + basis[1:],), other),
        (((basis[0], tuple(map(float, basis[1])), basis[2]),), other),
        (((basis[0], basis[1], tuple(map(Fraction, basis[2]))),), other),
        (((basis[0], (True,) * n, basis[2]),), other),
        ((list(basis),), other),
    ]
    for vectors, text in cases:
        with pytest.raises(SpecError, match=re.escape(text)):
            check_admissible(ex1a, w_m212, real, Filtration(w_m212, vectors, 0, 1))
    assert check_admissible(ex1a, w_m212, real, Filtration(w_m212, (basis,), 0, 1)).ok
    # two embeddings, the first basis only: refused, ok or not
    checked = 0
    for k, (spec, profile) in enumerate(equal_total_stream(3, 200, max_dim=6)):
        if spec.config.embeddings != 2:
            continue
        real, filt = _setup(spec, profile, seed=k)
        if check_admissible(spec, profile, real, filt, seed=k).reason == "equality":
            continue
        with pytest.raises(SpecError, match=re.escape("vectors[1]: missing basis")):
            check_admissible(spec, profile, real, Filtration(profile, filt.vectors[:1], 0, 1))
        checked += 1
    assert checked > 0


def test_malformed_input_is_refused_before_the_equality_check(ex1a, w_012):
    # the totals differ, so the verdict is the equality failure whatever
    # the filtration; a malformed one, or any but the theorem basis, is
    # refused all the same
    real = realize_matrices(ex1a, build_modified_frobenius(ex1a))
    with pytest.raises(SpecError, match=re.escape("vectors[0]: missing basis")):
        check_admissible(ex1a, w_012, real, Filtration(w_012, (), 0, 1))
    n = ex1a.dimension
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    with pytest.raises(SpecError, match=re.escape("vectors[0]: not the theorem basis")):
        check_admissible(ex1a, w_012, real, Filtration(w_012, (identity,), 0, 1))
    filt = build_transverse_filtration(ex1a, w_012, real)
    report = check_admissible(ex1a, w_012, real, filt)
    assert report.reason == "equality" and not report.ok
    # so is a realization that breaks the level split
    with pytest.raises(InternalConsistencyError, match="sends level 0"):
        check_admissible(ex1a, w_012, _split_broken(real), filt)


def _lattice_good_witness(spec, profile, real):
    """(table, rows, scaled t_N) of the first stable good witness, read off
    a `StableLattice` as the verdict did before its lattice-free scan, or
    None when no stable good is a witness."""
    lattice = StableLattice(real)
    den = real.level_slopes[1]
    kl = spec.config.deg_K_L
    prefix = profile.prefix_sums()
    scan = sorted(
        (m, good.counts, k)
        for k, (m, good) in enumerate(zip(lattice.good_sizes, lattice.goods))
        if 0 < m < spec.dimension
    )
    for pos, (m, _, k) in enumerate(scan):
        scaled = lattice.scaled_t_n(lattice.good_keys[k])
        if kl * prefix[m] * den > scaled:
            table = tuple(
                {
                    "dim": size,
                    "tN": ratio_to_str(lattice.scaled_t_n(lattice.good_keys[j]), den),
                    "tHBound": f"{kl * prefix[size]}/1",
                }
                for size, _, j in scan[: pos + 1]
            )
            return table, lattice.int_rows(lattice.good_keys[k]), scaled
    return None


def _split_broken(real):
    """`real` with the coupling E sending the first block of level 0 into
    level 1."""
    levels = real.levels
    cols = [dict(col) for col in real.e_cols]
    cols[levels[0][0]][levels[1][0]] = 1
    return dataclasses.replace(
        real, e_cols=tuple(tuple(sorted(col.items())) for col in cols)
    )


def test_good_witness_scan_matches_the_lattice():
    # the correctness-net streams, modified and not, both filtration seeds
    stream = [(spec, prof, True) for spec, prof in
              equal_total_stream(1, 40, max_dim=8, min_summands=3)]
    stream += [(spec, prof, False) for spec, prof in equal_total_stream(3, 100, max_dim=7)]
    failing = broken = 0
    for spec, profile, modify in stream:
        edges = build_modified_frobenius(spec) if modify else ()
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        slope = filtration._column_slopes(real)
        assert sum(slope) * Fraction(1, real.level_slopes[1]) == t_n(spec)
        index = {good.counts: k for k, good in enumerate(lattice.goods)}
        for m, counts, scaled, good in filtration._good_scan(real, slope):
            key = lattice.good_keys[index[counts]]
            assert m == lattice.dim(key) and good == lattice.goods[index[counts]]
            assert scaled == lattice.scaled_t_n(key)
            assert filtration._unit_rows(spec, counts) == lattice.int_rows(key)
        want = _lattice_good_witness(spec, profile, real)
        for seed in FILTRATION_SEEDS:
            filt = build_transverse_filtration(spec, profile, real, seed=seed)
            report = check_admissible(spec, profile, real, filt, seed=seed)
            if report.ok or report.witness["source"] != "good":
                # a search runs only where no stable good is a witness
                assert want is None
                continue
            table, rows, scaled = want
            assert report.table == table
            assert report.witness["basis"] == [row_to_str(row) for row in rows]
            assert report.witness["tN"] == ratio_to_str(scaled, real.level_slopes[1])
            failing += 1
            if len(real.levels) >= 2:
                with pytest.raises(InternalConsistencyError, match="sends level 0"):
                    check_admissible(spec, profile, _split_broken(real), filt, seed=seed)
                broken += 1
    assert failing >= 120 and broken >= 100


def test_all_chains_verdict_matches_the_lattice_route():
    # past the good scan, an all-chains realization reads its classes off
    # the scan; the lattice route (class list, chain steps, chain bound per
    # class) gives the same report, byte for byte, on every item it
    # certifies, and certifies every all-chains one
    stream = [(spec, prof, True) for spec, prof in
              equal_total_stream(29, 60, max_dim=8, max_summands=4)]
    stream += [(spec, prof, False) for spec, prof in
               equal_total_stream(31, 60, max_dim=7, max_summands=4)]
    compared = Counter()
    for k, (spec, profile, modify) in enumerate(stream):
        real, filt = _setup(spec, profile, seed=k, modify=modify)
        report = check_admissible(spec, profile, real, filt, seed=k)
        if not report.ok and report.witness["source"] == "good":
            continue
        want = oracles.lattice_route_report(real, profile)
        if want is None:
            assert not real.uniserial and report.proof != "certificate"
            continue
        assert report.as_dict() == want.as_dict()
        compared[real.uniserial, modify] += 1
    assert min(compared[kind] for kind in itertools.product((True, False), repeat=2)) >= 5


def _lines_spec(count):
    """F with twists 0, 2, ..., 2 count - 2, p = 2: `count` non-isomorphic
    lines, no edges, 2^count stable goods and stable subspaces."""
    spec = ModuleSpec(CFG, (F,), tuple(Summand("F", 2 * i, 1) for i in range(count)))
    return spec, WeightProfile(((*range(0, 2 * count, 2),),))


def test_all_chains_refusal_past_the_lattice_guard(monkeypatch):
    # 11 lines: 2048 stable goods, past the guard of 1500, refused after the
    # good scan with the text of the class list, as the lattice route
    # refuses it
    spec, profile = _lines_spec(11)
    real, filt = _setup(spec, profile, seed=0)
    assert real.uniserial and not real.edges
    refusal = "subobject lattice exceeds the guard size of 1500 subspaces"
    with pytest.raises(CapExceededError, match=refusal):
        check_admissible(spec, profile, real, filt, cap=11)
    with pytest.raises(CapExceededError, match=refusal):
        enumerate_concrete_subobjects(real, cap=11)
    # 4 lines: 16 stable goods, the 14 proper ones certified; a guard of 16
    # lets them through, one of 15 refuses, as the class list does
    spec, profile = _lines_spec(4)
    real, filt = _setup(spec, profile, seed=0)
    report = check_admissible(spec, profile, real, filt)
    assert report.ok and report.proof == "certificate" and report.checked == 14
    assert report == oracles.lattice_route_report(real, profile)
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", 16)
    assert check_admissible(spec, profile, real, filt) == report
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", 15)
    with pytest.raises(CapExceededError, match="guard size of 15 subspaces"):
        check_admissible(spec, profile, real, filt)
    with pytest.raises(CapExceededError, match="guard size of 15 subspaces"):
        enumerate_concrete_subobjects(real)
