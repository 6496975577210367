import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import helpers
from filtadm.cli import main
from filtadm.emerton import CANDIDATE_CAP, candidate_table, check_emerton_condition
from filtadm.model import (
    CapExceededError,
    Config,
    Family,
    ModuleSpec,
    Summand,
    WeightProfile,
    profile_from_dict,
    spec_from_dict,
    spec_to_dict,
    spec_violations,
    t_n,
)
from filtadm.ordering import canonical_order
from filtadm.slopes import check_all_block_orders, check_slope_chain
from helpers import instance_stream
from oracles import (
    _shuffles,
    candidate_table_fractions,
    emerton_scan,
    enumerate_candidates,
    gamma_blocks,
)

CFG = Config(p=2)
F = Family("F", 1, Fraction(0))


def test_gamma_blocks_descending(ex2):
    for seq in gamma_blocks(ex2):
        vals = [b.v for b in seq]
        step = Fraction(ex2.config.deg_K_Qp, ex2.config.deg_K_L)
        assert all(a - b == step for a, b in zip(vals, vals[1:]))


def test_candidate_counts(ex1a):
    assert len(enumerate_candidates(ex1a, dedup=False)) == 12
    two_blocks = ModuleSpec(
        CFG,
        (F, Family("G", 1, Fraction(1))),
        (Summand("F", 0, 1), Summand("G", 0, 1)),
    )
    assert len(enumerate_candidates(two_blocks, dedup=False)) == 4
    single = ModuleSpec(CFG, (Family("F", 2, Fraction(0)),), (Summand("F", 0, 1),))
    assert len(enumerate_candidates(single, dedup=False)) == 1


def test_candidate_cap():
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 6), Summand("F", 0, 6)))
    spec = canonical_order(spec)[0]
    with pytest.raises(CapExceededError):
        enumerate_candidates(spec)


def test_identity_candidate_present(ex2):
    cands = enumerate_candidates(ex2, dedup=False)
    seqs = gamma_blocks(ex2)
    identity_order = tuple(b for seq in seqs for b in seq)
    sizes = tuple(len(seq) for seq in seqs)
    assert any(c.order == identity_order and c.group_sizes == sizes for c in cands)


def test_emerton_examples(ex1a, w_m212, w_012):
    assert check_emerton_condition(ex1a, w_m212).ok
    v = check_emerton_condition(ex1a, w_012)
    assert (v.ok, v.failure) == (False, "unitarity")


def test_emerton_prefix_failure():
    g = Family("G", 1, Fraction(-1))
    h = Family("H", 1, Fraction(2))
    spec = ModuleSpec(CFG, (g, h), (Summand("G", 0, 1), Summand("H", 0, 1)))
    v = check_emerton_condition(spec, WeightProfile(((0, 1),)))
    assert (v.ok, v.failure) == (False, "prefix")
    assert v.selection == (1, 0) and v.slack == -1


def _oracle_via_candidates(spec, profile):
    """Verdict recomputed from the explicit candidate list."""
    cfg = spec.config
    if t_n(spec) != cfg.deg_K_L * profile.total:
        return False
    for cand in enumerate_candidates(spec):
        acc_v = Fraction(0)
        acc_w = 0
        pos = 0
        for g in cand.group_sizes[:-1]:
            grp = cand.order[pos : pos + g]
            pos += g
            acc_v += sum((b.v for b in grp), Fraction(0))
            acc_w += sum(b.size for b in grp)
            if acc_v < profile.prefix_sum(acc_w):
                return False
    return True


def test_scan_matches_candidate_oracle():
    for spec, prof in instance_stream(77, 60):
        assert check_emerton_condition(spec, prof).ok == _oracle_via_candidates(
            spec, prof
        )


def test_within_summand_prefixes_maximal(ex2):
    # the descending gamma order maximizes every prefix sum of valuations
    for seq in gamma_blocks(ex2):
        vals = [b.v for b in seq]
        for perm in itertools.permutations(vals):
            for k in range(1, len(vals) + 1):
                assert sum(vals[:k]) >= sum(perm[:k])


def test_verdict_depends_only_on_group_sums():
    # blocks of dimension 2 only reach even weight counts, so profiles
    # agreeing on the even prefix sums must give identical verdicts
    fam = Family("F", 2, Fraction(0))
    spec = ModuleSpec(CFG, (fam,), (Summand("F", 0, 1), Summand("F", 0, 2)))
    spec = canonical_order(spec)[0]
    profiles = [
        WeightProfile(((0, 1, 3, 4, 5, 6),)),
        WeightProfile(((-1, 2, 3, 4, 5, 6),)),
    ]
    sums = {tuple(p.prefix_sum(m) for m in (2, 4, 6)) for p in profiles}
    assert len(sums) == 1
    verdicts = {
        (check_emerton_condition(spec, p).ok, check_emerton_condition(spec, p).failure)
        for p in profiles
    }
    assert len(verdicts) == 1


def test_equivalence_small_fuzz():
    for spec, prof in instance_stream(5, 80):
        assert check_slope_chain(spec, prof).ok == check_emerton_condition(spec, prof).ok


def test_equivalence_fuzz_h2():
    # the two checks stay equivalent for higher-dimensional families
    rng = random.Random(31)
    done = 0
    while done < 60:
        spec = helpers.random_spec(rng, max_dim=8, h_choices=(1, 2))
        if spec is None or all(f.h == 1 for f in spec.families):
            continue
        prof = helpers.random_profile(rng, spec)
        if rng.random() < 0.5:
            prof = helpers.engineered_profile(rng, spec) or prof
        assert check_slope_chain(spec, prof).ok == check_emerton_condition(spec, prof).ok
        done += 1


def _assert_matches_scan(spec, prof):
    got = check_emerton_condition(spec, prof).as_dict()
    assert got == emerton_scan(spec, prof).as_dict()
    return got["failure"]


def test_integer_dp_matches_fraction_scan_field_for_field():
    # families of dimension 1-3, [K:L] in {1, 2}, negative and
    # non-integer base slopes: the scaled-integer knapsack reports the
    # same verdict, selection, slack and unitarity gap as the Fraction scan
    failures = set()
    for spec, prof in helpers.mixed_slope_stream(47, 400):
        got, want = check_emerton_condition(spec, prof), emerton_scan(spec, prof)
        assert got == want, (spec, prof)
        failures.add(got.failure)
    assert failures == {None, "prefix", "unitarity"}


def test_dp_matches_scan_on_instance_stream():
    for spec, prof in instance_stream(19, 600):
        _assert_matches_scan(spec, prof)


def test_dp_matches_scan_h2_two_embeddings():
    rng = random.Random(23)
    failures = []
    while failures.count("prefix") < 30:
        spec = helpers.random_spec(rng, max_dim=8, h_choices=(1, 2), max_twist=10)
        if (
            spec is None
            or spec.config.deg_L_Qp != 2
            or all(f.h == 1 for f in spec.families)
        ):
            continue
        prof = helpers.equal_total_profile(rng, spec, flat=rng.random() < 0.5)
        if prof is None:
            prof = helpers.random_profile(rng, spec)
        failures.append(_assert_matches_scan(spec, prof))
    assert failures.count(None) and failures.count("unitarity")


def test_dp_matches_scan_on_prefix_failures():
    # equal totals, so every failure is a prefix failure and carries a
    # witness selection and slack that the scan must reproduce exactly
    stream = helpers.equal_total_stream(
        29, 300, max_dim=8, max_summands=4, h_choices=(1, 2), max_twist=6
    )
    failures = [_assert_matches_scan(spec, prof) for spec, prof in stream]
    assert failures.count("prefix") == 150 and failures.count(None) == 150


def test_dp_witness_is_lexicographically_first():
    # (0, 1, 0), (1, 0, 0) and (1, 1, 0) all violate, with slacks -1, -1
    # and -3; the report names the first in lexicographic order, which is
    # not the one of least slack
    g = Family("G", 1, Fraction(-2))
    h = Family("H", 1, Fraction(3))
    spec = ModuleSpec(
        CFG, (g, h), (Summand("G", 0, 1), Summand("G", 0, 1), Summand("H", 2, 1))
    )
    prof = WeightProfile(((-1, 0, 2),))
    v = check_emerton_condition(spec, prof)
    assert v.as_dict() == emerton_scan(spec, prof).as_dict()
    assert v.selection == (0, 1, 0) and v.slack == -1


def _forty_chains():
    # 40 chains of length 3: the scan would walk 4**40 selections
    # chain i has slope 12i + 3, and a flat profile's chunks of three
    # weights step by 9, so the flat profile fails a prefix
    spec = ModuleSpec(CFG, (F,), tuple(Summand("F", 4 * i, 3) for i in range(40)))
    spec = canonical_order(spec)[0]
    steep = [-1000 + i for i in range(spec.dimension - 1)]
    steep.append(int(t_n(spec)) - sum(steep))
    flat = helpers.equal_total_profile(random.Random(0), spec, flat=True)
    return spec, WeightProfile((tuple(steep),)), flat


@pytest.mark.parametrize("which", ["passes", "fails"])
def test_equivalence_bounded_on_forty_summands(tmp_path, capsys, which):
    spec, steep, flat = _forty_chains()
    prof = steep if which == "passes" else flat
    chain = check_slope_chain(spec, prof)
    assert chain.ok == (which == "passes")
    assert chain.failure == (None if chain.ok else "prefix")
    t0 = time.perf_counter()
    verdict = check_emerton_condition(spec, prof)
    assert time.perf_counter() - t0 < 5
    assert verdict.ok == chain.ok
    spec_path, weights_path = tmp_path / "spec.json", tmp_path / "weights.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec)))
    weights_path.write_text(json.dumps({"weights": prof.weights}))
    t0 = time.perf_counter()
    code = main(["equivalence", "--spec", str(spec_path), "--weights", str(weights_path)])
    assert time.perf_counter() - t0 < 5
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["agree"] is True
    assert rep["emerton"] == verdict.as_dict()
    # the candidate table still refuses anything beyond 10 blocks
    t0 = time.perf_counter()
    code = main(
        ["check-emerton", "--spec", str(spec_path), "--weights", str(weights_path)]
    )
    assert time.perf_counter() - t0 < 5
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and "candidate cap" in rep["error"]


def _witness_slack(spec, prof, selection):
    seqs = gamma_blocks(spec)
    mass = sum((blk.v for seq, j in zip(seqs, selection) for blk in seq[:j]), Fraction(0))
    weight = sum(j * spec.family_of(i).h for i, j in enumerate(selection))
    return mass - prof.prefix_sum(weight)


def test_equivalence_many_summands():
    # 8-14 summands, equal totals, half failing a prefix: far beyond the
    # reach of the selection scan
    stream = helpers.equal_total_stream(
        37, 120, max_dim=100, min_summands=8, max_summands=14,
        h_choices=(1, 2), max_twist=40,
    )
    fails = 0
    for spec, prof in stream:
        assert 8 <= len(spec.summands) <= 14
        chain = check_slope_chain(spec, prof)
        shuffle = check_emerton_condition(spec, prof)
        assert chain.ok == shuffle.ok
        if check_all_block_orders(spec, prof).ok:
            assert chain.ok
        if not shuffle.ok:
            fails += 1
            assert shuffle.failure == "prefix"
            assert shuffle.slack < 0
            assert _witness_slack(spec, prof, shuffle.selection) == shuffle.slack
    assert fails == 60


def test_candidate_table_stops_at_limit(ex2, w_ex2):
    full = candidate_table(ex2, w_ex2, limit=10**6)
    assert len(full) == len(enumerate_candidates(ex2))
    for limit in (0, 1, 7, len(full) + 3):
        assert candidate_table(ex2, w_ex2, limit=limit) == full[:limit]
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 6), Summand("F", 0, 6)))
    spec = canonical_order(spec)[0]
    prof = WeightProfile((tuple(range(12)),))
    with pytest.raises(CapExceededError):
        candidate_table(spec, prof, limit=0)


def _table_cases(data_dir):
    """The data/ examples with every weight file that fits them, a pair of
    families of equal base slope and different h, and seeded draws."""
    specs = [
        spec_from_dict(json.loads(p.read_text()))
        for p in sorted(data_dir.glob("*_spec.json"))
    ]
    profiles = [
        profile_from_dict(json.loads(p.read_text()))
        for p in sorted(data_dir.glob("weights_*.json"))
    ]
    for spec in specs:
        spec = canonical_order(spec)[0]
        for prof in profiles:
            if not spec_violations(spec, prof):
                yield spec, prof
    fams = (Family("F", 1, Fraction(0)), Family("G", 2, Fraction(0)))
    spec = ModuleSpec(
        CFG, fams, (Summand("F", 0, 2), Summand("G", 0, 1), Summand("F", 1, 1))
    )
    spec = canonical_order(spec)[0]
    yield spec, helpers.random_profile(random.Random(0), spec)
    # summands of one family and twist: whole shuffles repeat
    rng = random.Random(29)
    for summands in (
        (("F", 0, 1),) * 3,
        (("F", 0, 2), ("F", 0, 2), ("F", 0, 1)),
        (("F", 1, 2), ("F", 1, 2), ("G", 0, 1), ("G", 0, 1)),
        (("F", 0, 1),) * 4 + (("F", 0, 3),),
    ):
        spec = ModuleSpec(CFG, fams, tuple(Summand(*s) for s in summands))
        spec = canonical_order(spec)[0]
        yield spec, helpers.random_profile(rng, spec)
    rng = random.Random(1717)
    drawn = 0
    while drawn < 40:
        spec = helpers.random_spec(rng, max_dim=8, h_choices=(1, 2))
        if spec is not None:
            drawn += 1
            yield spec, helpers.random_profile(rng, spec)


def test_integer_candidate_table_matches_fraction_oracle(data_dir):
    cases = list(_table_cases(data_dir))
    assert len(cases) >= 50
    assert sum(any(f.h == 2 for f in spec.families) for spec, _ in cases) >= 10
    repeats = 0
    for spec, prof in cases:
        # the full table of 8 blocks holds up to 71,680 candidates, seconds
        # in Fractions; the smaller limits still cover those draws
        full = sum(s.b for s in spec.summands) <= 7
        for limit in (0, 1, 7, 50, 10**6) if full else (0, 1, 7, 50):
            assert candidate_table(spec, prof, limit) == candidate_table_fractions(
                spec, prof, limit
            ), (spec, prof, limit)
        if full:
            # the full table walks every shuffle, so it skips each one whose
            # (valuation, h) sequence repeats an earlier shuffle's
            walks = [
                tuple((blk.v, blk.size) for blk in order)
                for order in _shuffles(gamma_blocks(spec))
            ]
            repeats += len(walks) > len(set(walks))
    assert repeats >= 4
    spec = canonical_order(
        ModuleSpec(CFG, (F,), (Summand("F", 0, CANDIDATE_CAP), Summand("F", 0, 1)))
    )[0]
    prof = WeightProfile((tuple(range(CANDIDATE_CAP + 1)),))
    for limit in (0, 50):
        with pytest.raises(CapExceededError) as ours:
            candidate_table(spec, prof, limit)
        with pytest.raises(CapExceededError) as oracle:
            candidate_table_fractions(spec, prof, limit)
        assert str(ours.value) == str(oracle.value)
