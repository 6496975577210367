import random
from fractions import Fraction

import pytest

from filtadm.filtration import (
    TransversalityError,
    build_transverse_filtration,
    check_admissible,
    t_h,
)
from filtadm.frobenius import build_modified_frobenius, realize_matrices
from filtadm.model import Config, Family, GoodSubobject, ModuleSpec, Summand, WeightProfile, t_n
from filtadm.subobjects import (
    Subobject,
    enumerate_concrete_subobjects,
    enumerate_good_subobjects,
    good_span,
    greedy_flag,
    omega_from_flag,
)
from helpers import random_profile, random_spec
import oracles

CFG = Config(p=2)
F = Family("F", 1, Fraction(0))


def _setup(spec, profile, seed=7, modify=True):
    edges = build_modified_frobenius(spec) if modify else ()
    real = realize_matrices(spec, edges)
    filt = build_transverse_filtration(spec, profile, real, seed=seed)
    return real, filt


def test_transversality_exact_on_goods(ex1a, w_m212):
    real, filt = _setup(ex1a, w_m212)
    for good in enumerate_good_subobjects(ex1a):
        m = good.dimension(ex1a)
        rows = good_span(ex1a, good)
        for sigma in range(ex1a.config.embeddings):
            jumps = oracles.induced_jumps(filt, sigma, rows)
            assert jumps == tuple(sorted(w_m212.weights[sigma][:m]))


def test_t_h_of_dim2_goods_ex1a(ex1a, w_m212):
    real, filt = _setup(ex1a, w_m212)
    for good in enumerate_good_subobjects(ex1a):
        if good.dimension(ex1a) != 2:
            continue
        assert t_h(filt, good_span(ex1a, good), ex1a.config) == -2 + 1


def test_t_h_of_dim1_goods_ex2(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    for good in enumerate_good_subobjects(ex2):
        if good.dimension(ex2) != 1:
            continue
        assert t_h(filt, good_span(ex2, good), ex2.config) == -1


def test_t_h_whole_module(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    full = oracles.identity(4)
    assert t_h(filt, full, ex2.config) == ex2.config.deg_K_L * w_ex2.total


def test_t_h_mixed_line_below_omega_bound(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    dp = Subobject(oracles.mat([[1, 0, 0, 0], [0, 1, 1, 0]]))
    prof = oracles.intersection_profile(ex2, dp.rows)
    om = omega_from_flag(ex2, greedy_flag(ex2, prof), prof)
    assert om == frozenset({1, 3})
    bound = sum(w_ex2.column_sum(j) for j in om)
    assert t_h(filt, dp.rows, ex2.config) <= bound == -1 + 2


def test_jump_monotone_under_inclusion(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    small = Subobject(oracles.mat([[1, 0, 0, 0]]))
    big = Subobject(oracles.mat([[1, 0, 0, 0], [0, 1, 1, 0]]))
    for sigma in range(ex2.config.embeddings):
        js, jb = oracles.induced_jumps(filt, sigma, small.rows), oracles.induced_jumps(filt, sigma, big.rows)
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
    assert not report.ok and report.reason == "witness"
    w = report.witness
    assert Fraction(w["tH"].replace("/", "/")) >= 1
    assert Fraction(w["tN"]) == 0
    assert w["enclosingDim"] == 2 and w["enclosingGood"] == [1, 1]


def test_admissible_ex2(ex2, w_ex2):
    real, filt = _setup(ex2, w_ex2)
    report = check_admissible(ex2, w_ex2, real, filt)
    assert report.ok


def test_equality_check_precedes_everything(ex1a, w_012):
    real, filt = _setup(ex1a, w_012)
    report = check_admissible(ex1a, w_012, real, filt)
    assert not report.ok and report.reason == "equality"


def test_filtration_deterministic(ex2, w_ex2):
    real, f1 = _setup(ex2, w_ex2, seed=3)
    _, f2 = _setup(ex2, w_ex2, seed=3)
    assert f1.bases == f2.bases
    _, f3 = _setup(ex2, w_ex2, seed=4)
    assert f3.bases != f1.bases


def test_transversality_budget_error(ex2, w_ex2):
    real = realize_matrices(ex2, ())
    with pytest.raises(TransversalityError):
        # a one-element box cannot produce a full-rank basis
        build_transverse_filtration(ex2, w_ex2, real, seed=0, max_attempts=3, box=0)


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
        for good in enumerate_good_subobjects(spec):
            m = good.dimension(spec)
            rows = good_span(spec, good)
            for sigma in range(spec.config.embeddings):
                assert oracles.induced_jumps(filt, sigma, rows) == tuple(
                    sorted(prof.weights[sigma][:m])
                )
        done += 1
