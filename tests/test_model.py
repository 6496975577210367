import dataclasses
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtadm.model import (
    Config,
    Family,
    GoodSubobject,
    ModuleSpec,
    SpecError,
    Summand,
    WeightProfile,
    _is_prime,
    below,
    profile_from_dict,
    spec_from_dict,
    spec_to_dict,
    spec_violations,
    t_n,
    validate_spec,
)
from filtadm.filtration import SAMPLE_BOX
from filtadm.frobenius import build_modified_frobenius
import oracles


def test_below_draws_what_randrange_draws():
    # every width up to 64 and the samplers' own: the basis box, the
    # nonzero digits and the pair and weight ranges; the widths come in a
    # seeded order, so draws of one width follow draws of another
    widths = [*range(1, 65), 2 * SAMPLE_BOX + 1, 18, 7, 6, 4, 3, 2] * 4
    for seed in range(30):
        ours, theirs = random.Random(seed), random.Random(seed)
        random.Random(-seed).shuffle(widths)
        for n in widths:
            got = [below(ours.getrandbits, n) for _ in range(5)]
            assert got == [theirs.randrange(0, n) for _ in range(5)], (seed, n)
            assert ours.getstate() == theirs.getstate(), (seed, n)


def test_validate_ok(ex1a, w_m212):
    spec, prof = validate_spec(ex1a, w_m212)
    assert spec is ex1a and prof is w_m212


def test_validate_weights_not_increasing(ex1a):
    bad = WeightProfile(((1, 1, 2),))
    errs = spec_violations(ex1a, bad)
    assert any("not strictly increasing at sigma=1" in e for e in errs)
    with pytest.raises(SpecError):
        validate_spec(ex1a, bad)


def test_validate_degree_identity():
    cfg = Config(p=2, deg_K_Qp=3, deg_L_Qp=2, deg_K_L=2)
    spec = ModuleSpec(cfg, (Family("F", 1, Fraction(0)),), (Summand("F", 0, 2),))
    errs = spec_violations(spec)
    assert any("degree identity" in e for e in errs)


def test_is_prime_matches_trial_division_below_1e5():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(10**5))


def _spec_with_p(p: int) -> ModuleSpec:
    return ModuleSpec(Config(p=p), (Family("F", 1, Fraction(0)),), (Summand("F", 0, 2),))


def test_large_p_is_decided_fast_and_exactly():
    # 3,215,031,751 = 151 * 751 * 28351 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7; trial division took seconds from p ~ 1e15 on
    # and did not finish on 2**61 - 1
    assert spec_violations(_spec_with_p(3_215_031_751)) == ["config.p: 3215031751 is not prime"]
    t0 = time.perf_counter()
    for p in (2**61 - 1, 10**15 + 37, 2**64 - 59):
        validate_spec(_spec_with_p(p))
    assert time.perf_counter() - t0 < 1.0
    assert spec_violations(_spec_with_p(2**61 + 1)) == [f"config.p: {2**61 + 1} is not prime"]


def test_p_above_the_primality_bound_is_refused():
    for p in (2**64, 2**89 - 1):
        with pytest.raises(SpecError, match=r"config.p: \d+ is not below the bound 2\*\*64"):
            validate_spec(_spec_with_p(p))


def test_validate_more_errors():
    cfg = Config(p=6)
    spec = ModuleSpec(cfg, (Family("F", 1, Fraction(0)),), (Summand("F", 0, 0),))
    errs = spec_violations(spec)
    assert any("not prime" in e for e in errs)
    assert any("summands[0].b" in e for e in errs)


def test_t_n_single_block():
    cfg = Config(p=2)
    fam = Family("F", 1, Fraction(0))
    spec = ModuleSpec(cfg, (fam,), (Summand("F", 0, 1), Summand("F", 0, 1)))
    assert t_n(spec) == 0


def test_t_n_whole_examples(ex1a, ex2):
    assert t_n(ex1a) == 1
    assert t_n(ex2) == 4


def test_t_n_twist_rule():
    # a twisted block adds twist * [K:Qp]
    cfg = Config(p=2, deg_K_Qp=4, deg_L_Qp=2, deg_K_L=2)
    fam = Family("F", 1, Fraction(1, 3))
    spec = ModuleSpec(cfg, (fam,), (Summand("F", 2, 2),))
    assert t_n(spec) == Fraction(1, 3) * 2 + (2 + 3) * 4
    assert t_n(spec) == oracles.block_slope_sum(spec)
    assert oracles.good_t_n(spec, GoodSubobject((1,))) == Fraction(1, 3) + 2 * 4


@pytest.mark.parametrize("counts", [(1,), (1, 0, 0, 0, 0)])
def test_good_subobject_needs_one_count_per_summand(ex2, counts):
    # a short count vector used to read as zeros past its end, and a long
    # one to raise a bare IndexError
    good = GoodSubobject(counts)
    want = f"{len(counts)} counts for 2 summands"
    with pytest.raises(ValueError, match=want):
        good.dimension(ex2)


@given(st.integers(0, 3), st.integers(1, 3))
def test_t_n_additive_over_direct_sums(l, b):
    # two copies of the same chain data viewed as one four-summand module:
    # slopes add across the two halves
    cfg = Config(p=2)
    fam = Family("F", 1, Fraction(1, 2))
    half = ModuleSpec(cfg, (fam,), (Summand("F", 0, 1), Summand("F", l, b)))
    double = ModuleSpec(cfg, (fam,), half.summands + half.summands)
    assert t_n(double) == 2 * t_n(half) == 2 * oracles.block_slope_sum(half)


def test_level_decomposition_examples(ex1a, ex2):
    (dec2,) = oracles.level_decomposition(ex2)
    assert dec2.level_dims() == (1, 2, 1)
    (dec1,) = oracles.level_decomposition(ex1a)
    assert dec1.level_dims() == (2, 1)


def test_level_decomposition_single_summand_h2():
    cfg = Config(p=2)
    fam = Family("F", 2, Fraction(0))
    spec = ModuleSpec(cfg, (fam,), (Summand("F", 0, 1),))
    (dec,) = oracles.level_decomposition(spec)
    assert dec.level_dims() == (2,)


def test_level_decomposition_depths_with_edges(ex1a):
    edges = [(e.src, e.dst) for e in build_modified_frobenius(ex1a)]
    (dec,) = oracles.level_decomposition(ex1a, edges)
    depths = dict(dec.depth_dims)
    # level 0 carries the two-step kernel chain of the modified Frobenius
    assert depths[0] == (1, 2)
    assert depths[1] == (1,)


def test_level_decomposition_multi_family():
    cfg = Config(p=2)
    f = Family("F", 1, Fraction(0))
    g = Family("G", 1, Fraction(1))
    spec = ModuleSpec(
        cfg, (f, g), (Summand("F", 0, 2), Summand("G", 1, 1), Summand("F", 5, 1))
    )
    decs = oracles.level_decomposition(spec)
    # family F splits into two components across the twist gap
    by_family = {}
    for dec in decs:
        by_family.setdefault(dec.family, []).append(dec.level_dims())
    assert sorted(by_family["F"]) == [(1,), (1, 1)]
    assert by_family["G"] == [(1,)]


def test_level_recompute_matches_t_n(ex2):
    cfg = ex2.config
    fam = ex2.families[0]
    total = Fraction(0)
    for dec in oracles.level_decomposition(ex2):
        for level, dim in dec.levels:
            total += Fraction(dim, fam.h) * (fam.t_base + level * cfg.deg_K_Qp)
    assert total == t_n(ex2)


def test_good_dims_monotone_and_divisible():
    cfg = Config(p=2)
    fam = Family("F", 2, Fraction(0))
    spec = ModuleSpec(cfg, (fam,), (Summand("F", 0, 2), Summand("F", 1, 1)))
    d1 = spec.dimension
    goods = [GoodSubobject(c) for c in [(0, 0), (1, 0), (1, 1), (2, 1)]]
    dims = [g.dimension(spec) for g in goods]
    assert dims == sorted(dims)
    assert all(0 <= d <= d1 and d % fam.h == 0 for d in dims)


def test_spec_json_roundtrip(ex2):
    blob = json.dumps(spec_to_dict(ex2))
    back = spec_from_dict(json.loads(blob))
    assert back == ex2
    assert json.loads(blob)["families"][0]["tBase"] == "0/1"


def test_profile_json_roundtrip(w_ex2):
    back = profile_from_dict(json.loads(json.dumps({"weights": w_ex2.weights})))
    assert back == w_ex2
    # bare list accepted on input
    assert profile_from_dict([[-1, 0, 2, 3]]) == w_ex2


def test_malformed_json_raises():
    with pytest.raises(SpecError):
        spec_from_dict({"p": 2})
    with pytest.raises(SpecError):
        profile_from_dict({"w": []})


@settings(max_examples=30)
@given(st.integers(-3, 3), st.integers(1, 3))
def test_weight_prefix_sums(shift, d1):
    rows = tuple(
        tuple(range(shift + s, shift + s + d1 + 1)) for s in range(2)
    )
    prof = WeightProfile(rows)
    assert prof.total == sum(sum(r) for r in rows)
    assert prof.prefix_sum(0) == 0
    assert prof.prefix_sum(1) == sum(r[0] for r in rows)


def test_integer_fields_accept_only_json_integers():
    # a float, bool or string in an integer field is refused, naming the
    # field, where int() would truncate or coerce it
    good = spec_to_dict(
        ModuleSpec(Config(p=2), (Family("F", 1, Fraction(0)),), (Summand("F", 0, 2),))
    )
    assert spec_from_dict(good).summands[0].b == 2
    for path, value, field in (
        (("summands", 0, "b"), 2.9, "summands[0].b"),
        (("summands", 0, "l"), "0", "summands[0].l"),
        (("families", 0, "h"), 1.0, "families[0].h"),
        (("p",), True, "p"),
        (("degKL",), None, "degKL"),
    ):
        data = json.loads(json.dumps(good))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SpecError, match=rf"{re.escape(field)}: expected an integer"):
            spec_from_dict(data)
    assert profile_from_dict({"weights": [[-2, 1, 2]]}).weights == ((-2, 1, 2),)
    for weights, field in (
        ([[-2, 1.7, 2]], "weights[0][1]"),
        ([[0, 1], [False, 2]], "weights[1][0]"),
    ):
        with pytest.raises(SpecError, match=re.escape(field)):
            profile_from_dict({"weights": weights})


def test_zero_denominator_is_refused_naming_the_field():
    # Fraction("1/0") raises ZeroDivisionError, which is no ValueError
    data = spec_to_dict(
        ModuleSpec(Config(p=2), (Family("F", 1, Fraction(0)),), (Summand("F", 0, 2),))
    )
    for value, message in (
        ("1/0", "zero denominator in '1/0'"),
        ("-3/0", "zero denominator in '-3/0'"),
        ("0/0", "zero denominator in '0/0'"),
        ("abc", "Invalid literal for Fraction: 'abc'"),
        (1.5, "expected rational as 'num/den' string, got 1.5"),
    ):
        data["families"][0]["tBase"] = value
        with pytest.raises(SpecError, match=re.escape(f"families[0].tBase: {message}")):
            spec_from_dict(data)


def test_constructors_refuse_inexact_values_naming_the_field():
    # a float base slope would be stored as its binary value, and a float
    # weight would pass validation and fail later inside the criteria
    with pytest.raises(SpecError, match=re.escape("families[F].t_base: expected an exact rational, got 0.1")):
        Family("F", 1, 0.1)
    for t_base in (Fraction(1, 10), "1/10", 0):
        assert Family("F", 1, t_base).t_base == Fraction(t_base)
    for rows, field, value in (
        (((-2, 1.0, 2),), "weights[0][1]", "1.0"),
        (((0, 1), (True, 2)), "weights[1][0]", "True"),
        (((0, Fraction(1)),), "weights[0][1]", "Fraction(1, 1)"),
    ):
        with pytest.raises(SpecError, match=re.escape(f"{field}: expected an integer, got {value}")):
            WeightProfile(rows)
    assert WeightProfile([[-2, 1, 2]]).weights == ((-2, 1, 2),)
    # an integer field that is not an int: p = 2.0 would realize a float
    # Phi, a float or bool l, b or h would be read as a number and fail, or
    # pass, later
    fam = Family("F", 1, 0)
    for make, field, value in (
        (lambda: Config(p=2.0), "config.p", "2.0"),
        (lambda: Config(p=2, deg_K_Qp=True), "config.deg_K_Qp", "True"),
        (lambda: Config(p=2, f_prime=Fraction(1)), "config.f_prime", "Fraction(1, 1)"),
        (lambda: Family("F", 1.0, 0), "families[F].h", "1.0"),
        (lambda: ModuleSpec(Config(p=2), (fam,), (Summand("F", 0, 1), Summand("F", 0.5, 2))),
         "summands[1].l", "0.5"),
        (lambda: ModuleSpec(Config(p=2), (fam,), (Summand("F", 0, 2.0),)), "summands[0].b", "2.0"),
        (lambda: ModuleSpec(Config(p=2), (fam,), (Summand("F", True, 2),)), "summands[0].l", "True"),
    ):
        with pytest.raises(SpecError, match=re.escape(f"{field}: expected an integer, got {value}")):
            make()
    spec = ModuleSpec(Config(p=2), (fam,), (Summand("F", 0, 2),))
    with pytest.raises(SpecError, match=re.escape("summands[1].b: expected an integer, got 1.0")):
        spec.with_summands([Summand("F", 0, 2), Summand("F", 1, 1.0)])


def test_checked_specs_keep_identity_and_refuse_a_reordering():
    # running the criteria leaves no state that changes == or hash, and a
    # reordered copy of a canonical spec is a fresh object that the
    # canonical check rejects
    from filtadm.emerton import check_emerton_condition
    from filtadm.ordering import is_canonical, require_canonical
    from filtadm.slopes import check_all_block_orders, check_slope_chain

    fams = (Family("F", 1, Fraction(-1, 2)), Family("G", 2, Fraction(3)))
    summands = (Summand("F", 0, 1), Summand("F", 0, 2), Summand("G", 1, 1))
    spec = ModuleSpec(Config(p=3), fams, summands)
    twin = ModuleSpec(Config(p=3), fams, summands)
    prof = WeightProfile(((-3, -1, 0, 1, 4),))
    assert is_canonical(spec)
    before = (hash(spec), spec == twin)
    for check in (check_slope_chain, check_all_block_orders, check_emerton_condition):
        first, second = check(spec, prof), check(spec, prof)
        assert first == second
    assert (hash(spec), spec == twin) == before == (hash(twin), True)
    reordered = spec.with_summands(summands[::-1])
    assert reordered is not spec and reordered != spec
    with pytest.raises(ValueError, match="canonical order"):
        require_canonical(reordered)
    for check in (check_slope_chain, check_all_block_orders, check_emerton_condition):
        with pytest.raises(ValueError, match="canonical order"):
            check(reordered, prof)
    assert is_canonical(spec)


def test_spec_memos_belong_to_one_spec():
    # the family lookup, the dimension and the good table are memoized on
    # the frozen spec; a spec made from it by with_summands or
    # dataclasses.replace builds its own
    f, g = Family("F", 1, Fraction(0)), Family("G", 2, Fraction(1, 2))
    spec = ModuleSpec(Config(p=2), (f, g), (Summand("F", 0, 2), Summand("G", 1, 1)))
    assert spec.dimension == 4 and spec.family_of(1) is g
    assert [x.counts for x in spec.goods] == [(a, b) for a in range(3) for b in range(2)]
    fewer = spec.with_summands(spec.summands[:1])
    assert fewer.dimension == 2 and [x.counts for x in fewer.goods] == [(0,), (1,), (2,)]
    g3 = Family("G", 3, Fraction(1, 2))
    wider = dataclasses.replace(spec, families=(f, g3))
    assert wider.dimension == 5 and wider.family("G") is g3 and wider.family_of(1) is g3
    # the memos of the first spec are untouched
    assert spec.dimension == 4 and spec.family("G") is g and len(spec.goods) == 6
    # an unknown family id still raises KeyError, before and after a lookup
    with pytest.raises(KeyError, match="H"):
        spec.family("H")
    unknown = spec.with_summands((Summand("H", 0, 1),))
    with pytest.raises(KeyError, match="H"):
        unknown.dimension
    with pytest.raises(KeyError, match="H"):
        unknown.family_of(0)
    # duplicate ids are still reported; the lookup returns the first
    twice = dataclasses.replace(spec, families=(f, g, Family("F", 2, Fraction(0))))
    assert twice.family("F") is f
    assert "families[F]: duplicate id" in spec_violations(twice)
    with pytest.raises(SpecError, match="duplicate id"):
        validate_spec(twice)

