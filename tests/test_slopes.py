import itertools
import random
from fractions import Fraction

import pytest

from filtadm.model import Config, Family, ModuleSpec, Summand, WeightProfile, t_n
from filtadm.ordering import canonical_order
from filtadm.slopes import check_all_block_orders, check_slope_chain
import oracles
from helpers import mixed_slope_stream, random_profile, random_spec

CFG = Config(p=2)
F = Family("F", 1, Fraction(0))


def test_chain_ex1a_pass(ex1a, w_m212):
    v = check_slope_chain(ex1a, w_m212)
    assert v.ok
    # single proper prefix: -2 <= 0, and total 1 = t_N
    assert v.slacks[0][1] == 2
    assert v.equality_gap == 0


def test_chain_ex1a_equality_fail(ex1a, w_012):
    v = check_slope_chain(ex1a, w_012)
    assert (v.ok, v.failure) == (False, "equality")
    assert v.equality_gap == t_n(ex1a) - 3


def test_chain_ex2_pass(ex2, w_ex2):
    v = check_slope_chain(ex2, w_ex2)
    assert v.ok
    assert v.slacks[0][1] == 1 - (-1)


def test_chain_prefix_fail():
    g = Family("G", 1, Fraction(-1))
    h = Family("H", 1, Fraction(2))
    spec = ModuleSpec(CFG, (g, h), (Summand("G", 0, 1), Summand("H", 0, 1)))
    v = check_slope_chain(spec, WeightProfile(((0, 1),)))
    assert (v.ok, v.failure, v.prefix) == (False, "prefix", 1)


def test_unordered_rejected(w_m212):
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 2), Summand("F", 0, 1)))
    with pytest.raises(ValueError):
        check_slope_chain(spec, WeightProfile(((0, 1, 2),)))


def test_reorder_invariance(w_m212):
    shuffled = ModuleSpec(CFG, (F,), (Summand("F", 0, 2), Summand("F", 0, 1)))
    ordered, _, _ = canonical_order(shuffled)
    assert check_slope_chain(ordered, w_m212).ok


def test_all_block_orders_examples(ex1a, w_m212):
    assert check_all_block_orders(ex1a, w_m212).ok
    # anything failing the summand chain fails the block chain
    bad = WeightProfile(((0, 1, 2),))
    assert not check_all_block_orders(ex1a, bad).ok
    # single block reduces to the equality test
    spec = ModuleSpec(Config(p=2), (Family("F", 2, Fraction(1)),), (Summand("F", 0, 1),))
    v = check_all_block_orders(spec, WeightProfile(((0, 1),)))
    assert v.slacks == ()
    assert v.ok == (t_n(spec) == 1)


def _blocks(spec):
    return [(blk.family.h, oracles.block_slope(blk, spec.config)) for blk in spec.blocks()]


def _exhaustive_block_orders(spec, profile):
    cfg = spec.config
    blocks = _blocks(spec)
    total = t_n(spec)
    if total != cfg.deg_K_L * profile.total:
        return False
    for perm in itertools.permutations(range(len(blocks))):
        dim = 0
        slope = Fraction(0)
        for idx in perm[:-1]:
            size, tn_val = blocks[idx]
            dim += size
            slope += tn_val
            if cfg.deg_K_L * profile.prefix_sum(dim) > slope:
                return False
    return True


def test_all_block_orders_matches_exhaustive():
    rng = random.Random(5)
    done = 0
    while done < 60:
        spec = random_spec(rng, max_dim=6)
        if spec is None or len(list(spec.blocks())) > 6:
            continue
        prof = random_profile(rng, spec)
        got = check_all_block_orders(spec, prof).ok
        assert got == _exhaustive_block_orders(spec, prof)
        done += 1


def test_chain_pass_implies_all_block_orders_pass():
    # passing the canonical summand chain forces the chain for every block
    # ordering (the ordering rules make canonical prefixes extremal)
    rng = random.Random(77)
    done = passed = 0
    while done < 120:
        spec = random_spec(rng)
        if spec is None:
            continue
        prof = random_profile(rng, spec)
        if check_slope_chain(spec, prof).ok:
            assert check_all_block_orders(spec, prof).ok, (spec.summands, prof.weights)
            passed += 1
        done += 1
    # random profiles rarely hit the equality, so also exercise engineered ones
    from helpers import engineered_profile

    done = 0
    while done < 120:
        spec = random_spec(rng)
        if spec is None:
            continue
        prof = engineered_profile(rng, spec)
        if prof is None:
            continue
        if check_slope_chain(spec, prof).ok:
            assert check_all_block_orders(spec, prof).ok, (spec.summands, prof.weights)
            passed += 1
        done += 1
    assert passed > 0


def test_chain_invariant_under_slope_weight_shift():
    # adding delta = degKL * #sigma * Delta to every block slope and Delta to
    # every weight moves both sides of each prefix identically
    rng = random.Random(9)
    done = 0
    while done < 40:
        spec = random_spec(rng)
        if spec is None:
            continue
        prof = random_profile(rng, spec)
        delta_w = rng.randint(-3, 3)
        cfg = spec.config
        delta_slope = cfg.deg_K_L * cfg.deg_L_Qp * delta_w
        shifted_fams = tuple(
            Family(f.id, f.h, f.t_base + delta_slope) for f in spec.families
        )
        shifted = ModuleSpec(cfg, shifted_fams, spec.summands)
        shifted_prof = WeightProfile(
            tuple(tuple(x + delta_w for x in row) for row in prof.weights)
        )
        v1 = check_slope_chain(spec, prof)
        v2 = check_slope_chain(shifted, shifted_prof)
        assert (v1.ok, v1.failure, v1.prefix) == (v2.ok, v2.failure, v2.prefix)
        assert [s for _, s in v1.slacks] == [s for _, s in v2.slacks]
        done += 1


def test_integer_chains_match_fraction_oracles():
    # the scaled-integer checks against the Fraction forms they replaced,
    # field for field: verdict, failure, prefix, every slack and the gap
    seen = set()
    for spec, prof in mixed_slope_stream(41, 400):
        for check, oracle in (
            (check_slope_chain, oracles.slope_chain),
            (check_all_block_orders, oracles.all_block_orders),
        ):
            got, want = check(spec, prof), oracle(spec, prof)
            assert got == want, (spec, prof)
            assert got.as_dict() == want.as_dict()
            seen.add((check.__name__, got.failure))
        seen.add(("degKL", spec.config.deg_K_L))
        seen.update(("h", f.h) for f in spec.families)
        for f in spec.families:
            seen.add(("tBase", f.t_base < 0, f.t_base.denominator > 1))
    for name in ("check_slope_chain", "check_all_block_orders"):
        assert {(name, x) for x in (None, "prefix", "equality")} <= seen
    assert {("degKL", 1), ("degKL", 2), ("h", 1), ("h", 2), ("h", 3)} <= seen
    assert ("tBase", True, True) in seen and ("tBase", False, True) in seen

