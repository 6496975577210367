"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from filtadm.emerton import check_emerton_condition
from filtadm.filtration import build_transverse_filtration, check_admissible, t_h
from filtadm.frobenius import build_modified_frobenius, realize_matrices
from filtadm.model import WeightProfile, t_n
from filtadm.pairs import _clause, _omega, _solve, _step
from filtadm.slopes import check_slope_chain
from filtadm.subobjects import (
    StableLattice,
    enumerate_concrete_subobjects,
    stable_good_subobjects,
)
from helpers import cli_env, instance_stream, random_single_component_spec
import oracles
from oracles import (
    flag_chain,
    greedy_flag,
    omega_from_flag,
    random_special_pair,
    random_weight_pair,
)

DATA = Path(__file__).parent.parent / "data"


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number} [{label}]: {status} in {elapsed:.2f}s")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


@pytest.fixture(scope="module")
def randomized_instances():
    return instance_stream(42, 200)


def test_criterion_1_first_example_regression(ex1a, w_m212):
    with criterion(1, "modification necessity regression", budget_s=1.0):
        real_u = realize_matrices(ex1a, ())
        filt_u = build_transverse_filtration(ex1a, w_m212, real_u, seed=7)
        rep_u = check_admissible(ex1a, w_m212, real_u, filt_u)
        assert not rep_u.ok and rep_u.reason == "witness"
        w = rep_u.witness
        assert Fraction(w["tH"]) > 0 == Fraction(w["tN"])
        # the excess weight lives in the two-dimensional plane spanned by
        # the two slope-zero kernel lines
        assert w["enclosingDim"] == 2 and w["enclosingGood"] == [1, 1]

        edges = build_modified_frobenius(ex1a)
        real_m = realize_matrices(ex1a, edges)
        filt_m = build_transverse_filtration(ex1a, w_m212, real_m, seed=7)
        rep_m = check_admissible(ex1a, w_m212, real_m, filt_m)
        assert rep_m.ok


def _weight_tuples_sum4(count: int):
    out = []
    for i1 in range(-8, 2):
        for i2 in range(i1 + 1, 6):
            for i3 in range(i2 + 1, 8):
                i4 = 4 - i1 - i2 - i3
                if i4 > i3:
                    out.append((i1, i2, i3, i4))
                if len(out) >= count:
                    return out
    return out


def test_criterion_2_second_example_regression(ex2):
    with criterion(2, "mixed-line example regression", budget_s=5.0):
        edges = build_modified_frobenius(ex2)
        assert edges == ()
        real = realize_matrices(ex2, edges)
        subs = {s.rows for s in enumerate_concrete_subobjects(real)}
        expected = {
            (),
            oracles.mat([[1, 0, 0, 0]]),
            oracles.mat([[0, 0, 1, 0]]),
            oracles.mat([[1, 0, 0, 0], [0, 1, 0, 0]]),
            oracles.mat([[1, 0, 0, 0], [0, 0, 1, 0]]),
            oracles.mat([[0, 0, 1, 0], [0, 0, 0, 1]]),
            oracles.mat([[1, 0, 0, 0], [0, 1, 1, 0]]),
            oracles.mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
            oracles.mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            oracles.identity(4),
        }
        assert subs == expected

        dp = oracles.mat([[1, 0, 0, 0], [0, 1, 1, 0]])
        prof = oracles.intersection_profile(ex2, dp)
        omega = omega_from_flag(ex2, greedy_flag(ex2, prof), prof)
        assert omega == frozenset({1, 3})

        tuples = _weight_tuples_sum4(20)
        assert len(tuples) >= 20
        for idx, weights in enumerate(tuples):
            prof = WeightProfile((weights,))
            filt = build_transverse_filtration(ex2, prof, real, seed=idx)
            rep = check_admissible(ex2, prof, real, filt)
            assert rep.ok, (weights, rep.witness)
            bound = weights[0] + weights[2]
            assert t_h(filt, oracles.int_rows(dp), ex2.config) <= bound


def test_criterion_3_third_example_regression(ex3):
    with criterion(3, "no-modification regression"):
        assert build_modified_frobenius(ex3) == ()


def test_criterion_4_equivalence(randomized_instances):
    with criterion(4, "slope chain vs shuffle valuations", budget_s=60.0):
        assert len(randomized_instances) >= 200
        passes = 0
        for spec, prof in randomized_instances:
            a = check_slope_chain(spec, prof).ok
            b = check_emerton_condition(spec, prof).ok
            assert a == b, (spec.summands, prof.weights)
            passes += a
        # the engineered half guarantees both verdicts occur
        assert 0 < passes < len(randomized_instances)


def test_criterion_5_constructive_pipeline(randomized_instances):
    with criterion(5, "construction matches the chain verdict", budget_s=120.0):
        for idx, (spec, prof) in enumerate(randomized_instances):
            chain_ok = check_slope_chain(spec, prof).ok
            edges = build_modified_frobenius(spec)
            real = realize_matrices(spec, edges)
            filt = build_transverse_filtration(spec, prof, real, seed=idx)
            rep = check_admissible(spec, prof, real, filt, seed=idx)
            assert rep.ok == chain_ok, (spec.summands, prof.weights, rep.witness)
            if chain_ok:
                assert Fraction(spec.config.deg_K_L * prof.total) == t_n(spec)


def test_criterion_6_special_pair_suite():
    with criterion(6, "special pair suite", budget_s=30.0):
        rng = random.Random(2024)
        for _ in range(10_000):
            pair = random_special_pair(rng, integer=True)
            a, c = [int(x) for x in pair.a], [int(x) for x in pair.c]
            assert _clause(a, c) is None
            p, q = _solve(a, c)           # (i)'-(iii)' asserted exactly inside
            assert Fraction(p, q * a[0]) == oracles.solve_t(pair)[1]
            omega = _omega(a, c)
            assert _step(omega, sum(a)) is None
            m, n = random_weight_pair(rng, sum(a))
            assert oracles.check_weighted_inequality(omega, m, n).holds
        assert _step(frozenset({3}), 3) == 2
        assert not oracles.check_weighted_inequality({3}, (0, 0, 3), (1, 1, 1)).holds


def test_criterion_7_greedy_flag_invariants():
    with criterion(7, "greedy flag invariants"):
        rng = random.Random(555)
        done = 0
        while done < 100:
            spec = random_single_component_spec(rng)
            if spec is None:
                continue
            edges = build_modified_frobenius(spec)
            real = realize_matrices(spec, edges)
            lattice = StableLattice(real)
            subs = enumerate_concrete_subobjects(real, seed=done, lattice=lattice)
            dp = subs[rng.randrange(len(subs))]
            prof = lattice.profile(dp.key)
            flag = greedy_flag(spec, prof)
            conds = oracles.flag_conditions(spec, flag, real)
            assert all(conds.values()), (spec.summands, dp.rows, conds)
            dims = tuple(m.dimension(spec) for m in flag.members)
            for trial in range(3):
                other = greedy_flag(spec, prof, rng=random.Random(trial))
                assert tuple(m.dimension(spec) for m in other.members) == dims
                assert other.alphas == flag.alphas
            # the intersection dimensions the flag is checked against come
            # from the dense oracle, not from the lattice that built it
            inter = dict(zip(
                stable_good_subobjects(spec, edges), oracles.class_key(real, dp.rows)[1]
            ))
            chain = flag_chain(spec, flag)
            cdims = [g.dimension(spec) for g in chain]
            caps = [inter[g] for g in chain]
            for good in stable_good_subobjects(spec, edges):
                d_l = good.dimension(spec)
                if d_l == 0:
                    continue
                i = max(k for k in range(len(chain)) if cdims[k] < d_l)
                alpha_l = Fraction(inter[good] - caps[i], d_l - cdims[i])
                alpha_step = Fraction(
                    caps[i + 1] - caps[i], cdims[i + 1] - cdims[i]
                )
                assert alpha_l <= alpha_step
                if d_l == cdims[i + 1]:
                    assert inter[good] <= caps[i + 1]
            done += 1


def test_criterion_8_deterministic_reports():
    with criterion(8, "byte-identical reports"):
        cmd = [
            sys.executable, "-m", "filtadm.cli",
            "verify-admissible",
            "--spec", str(DATA / "ex1a_spec.json"),
            "--weights", str(DATA / "weights_m212.json"),
            "--seed", "7",
        ]
        a = subprocess.run(cmd, capture_output=True, env=cli_env())
        b = subprocess.run(cmd, capture_output=True, env=cli_env())
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout
        json.loads(a.stdout)
