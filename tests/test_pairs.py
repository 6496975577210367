"""The integer core of `filtadm.pairs` (`_clause`, `_solve`, `_omega`,
the step test `_step` and the pair sampler) against the `Fraction`
oracles of `tests/oracles.py`, which also hold the weighted comparison on
given (m, n), the pair record and the assembly of index sets over
components."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from filtadm import pairs
from filtadm.cli import main
from filtadm.pairs import _clause, _draw_pair, _omega, _solve, _step, fuzz_special_pairs
from oracles import (
    GlobalEntry,
    SpecialPair,
    assemble_global,
    common_scale,
    random_special_pair,
    random_weight_pair,
)


def _outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _solved(a, c) -> tuple[tuple[Fraction, ...], Fraction]:
    """(t, r) of a special pair of rationals, from `_solve` at one scale."""
    (a, c), scale = common_scale(a, c)
    p, q = _solve(a, c)
    r = Fraction(p, q * a[0])
    return tuple(r * Fraction(x, scale) for x in (a[0], *c)[: len(c)]), r


def _witness(k, length) -> tuple[list[Fraction], list[Fraction]]:
    """The step witness m = 1_[k, length] - (length - k + 1) / length, n = 0."""
    lift = Fraction(length - k + 1, length)
    return [int(j >= k) - lift for j in range(1, length + 1)], [Fraction(0)] * length


def _least_failing_step(omega, length):
    """(k, m, n) for the least k in 2..length whose step witness breaks the
    oracle's weighted comparison, or None: the step test by its definition."""
    for k in range(2, length + 1):
        m, n = _witness(k, length)
        if not oracles.check_weighted_inequality(omega, m, n).holds:
            return k, m, n
    return None


def test_is_special_examples():
    for a, c, clause in (((1, 2, 1), (1,), None), ((0, 2, 1), (1,), "i"), ((1, 3, 1), (2,), "iii")):
        assert _clause(a, c) == clause
        assert oracles.is_special(a, c) == (clause is None, clause)


def test_is_special_ratio_clause():
    # ratios must be nonincreasing: 1/3 < 2/2
    assert _clause((2, 3, 2, 1), (1, 2)) == "ii"


def test_solve_t_examples():
    for a, c, t, r in (
        ((1, 2, 1), (1,), (1,), 1),
        ((1, 1, 1), (1,), (0,), 0),
        ((2, 2, 2), (1,), (1,), Fraction(1, 2)),
    ):
        assert _solved(a, c) == (t, r) == oracles.solve_t(SpecialPair(a, c))


def test_solve_t_k0():
    assert _solve((3, 1), ()) == (0, 1)
    assert _solved((3, 1), ()) == ((), 0)


def test_solve_t_conditions_randomized():
    rng = random.Random(4)
    for _ in range(500):
        pair = random_special_pair(rng)
        t, r = _solved(pair.a, pair.c)          # post-conditions asserted inside
        assert r >= 0
        assert (t, r) == oracles.solve_t(pair)


def test_omega_of_pair():
    assert _omega((1, 2, 1), (1,)) == frozenset({1, 3})
    assert oracles.omega_of_pair(SpecialPair((1, 2, 1), (1,))) == frozenset({1, 3})


def test_weighted_trivial_equality():
    # Omega = {1, 3} of a special pair passes the step test; m = n is
    # admissible and meets the inequality with equality
    omega = _omega((1, 2, 1), (1,))
    assert _step(omega, 4) is None
    m = (1, 2, 3, 4)
    res = oracles.check_weighted_inequality(omega, m, m)
    assert (res.holds, res.lhs, res.rhs) == (True, 4, 4)


def test_weighted_documented_example():
    # these weights meet the inequality on Omega = {1, 3} in [1, 3], but no
    # sample decides it: the set fails the step test at k = 3, and the
    # witness m = (-1/3, -1/3, 2/3), n = 0 breaks it
    res = oracles.check_weighted_inequality({1, 3}, (-2, 1, 2), (0, 0, 1))
    assert (res.holds, res.lhs, res.rhs) == (True, 0, 1)
    assert _step(frozenset({1, 3}), 3) == 3
    k, m, n = _least_failing_step({1, 3}, 3)
    assert (k, m) == (3, [Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)])


def test_weighted_non_special_counterexample():
    # Omega = {3} in [1, 3] fails at k = 2: 1 * 3 > 1 * 2, with the witness
    # m = (-2/3, 1/3, 1/3), n = 0; the oracle's counterexample agrees
    assert _step(frozenset({3}), 3) == 2
    m, n = _witness(2, 3)
    assert m == [Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)]
    assert _least_failing_step({3}, 3) == (2, m, n)
    res = oracles.check_weighted_inequality({3}, (0, 0, 3), (1, 1, 1))
    assert (res.holds, res.lhs, res.rhs) == (False, 3, 1)


def test_weighted_hypothesis_violations_distinct():
    # the oracle refuses (m, n) outside the hypotheses, so a witness it
    # accepts in the step-test checks below is admissible
    for omega, m, n, message in (
        ({1}, (2, 1), (0, 0), "m is not nondecreasing"),
        ({1}, (0, 1), (0, 2), "m increments must dominate n increments"),
        ({1}, (1, 2), (0, 1), "sum m must not exceed sum n"),
        ({1}, (0, 1), (0,), "m and n must have equal length"),
        ({3}, (0, 1), (0, 1), "omega indices out of range"),
    ):
        with pytest.raises(oracles.HypothesisError, match=message):
            oracles.check_weighted_inequality(omega, m, n)


def test_assemble_examples():
    single = GlobalEntry(frozenset({1, 3}), Fraction(1), 4)
    assert assemble_global([single]) == frozenset({1, 3})
    two = [
        GlobalEntry(frozenset({1, 3}), Fraction(1), 3),
        GlobalEntry(frozenset({1, 2}), Fraction(1, 2), 4),
    ]
    assert assemble_global(two) == frozenset({1, 3, 4, 5})
    # ties keep input order
    tied = [
        GlobalEntry(frozenset({1}), Fraction(0), 2),
        GlobalEntry(frozenset({2}), Fraction(0), 2),
    ]
    assert assemble_global(tied) == frozenset({1, 4})


def test_entry_from_pair():
    entry = GlobalEntry.from_pair(SpecialPair((1, 2, 1), (1,)))
    assert entry.omega == frozenset({1, 3}) and entry.dim == 4 and entry.r == 1


def test_fuzz_runner_clean():
    report = fuzz_special_pairs(300, seed=2)
    assert report == {"trials": 300, "failures": 0}


def test_weight_pair_generator_hypotheses():
    rng = random.Random(8)
    for _ in range(200):
        m, n = random_weight_pair(rng, rng.randint(1, 8))
        assert all(m[i] <= m[i + 1] for i in range(len(m) - 1))
        assert all(n[i] <= n[i + 1] for i in range(len(n) - 1))
        assert all(
            m[i + 1] - m[i] >= n[i + 1] - n[i] for i in range(len(m) - 1)
        )
        assert sum(m) <= sum(n)


def test_assembled_single_entry_inequality():
    # a single component reduces the assembled statement to the per-pair
    # weighted inequality, which holds
    rng = random.Random(13)
    for _ in range(300):
        pair = random_special_pair(rng, max_k=3, integer=True).solved()
        omega = assemble_global([GlobalEntry.from_pair(pair)])
        assert omega == _omega(*common_scale(pair.a, pair.c)[0])
        assert _step(omega, int(pair.total)) is None
        m, n = random_weight_pair(rng, int(pair.total))
        assert oracles.check_weighted_inequality(omega, m, n).holds


def test_assembled_literal_tie_counterexample():
    # degenerate r = 0 ties with a saturated interior step break the
    # assembled comparison as literally quantified
    p1 = SpecialPair((1, 1), ()).solved()
    p2 = SpecialPair((1, 1, 1), (1,)).solved()
    assert p1.r == p2.r == 0
    omega = assemble_global([GlobalEntry.from_pair(p1), GlobalEntry.from_pair(p2)])
    assert omega == frozenset({1, 3, 4})
    m = [Fraction(0), Fraction(0), Fraction(5, 2), Fraction(5, 2), Fraction(5, 2)]
    n = [Fraction(3, 2)] * 5
    res = oracles.check_weighted_inequality(omega, m, n)
    assert (res.holds, res.lhs, res.rhs) == (False, 5, Fraction(9, 2))
    # the step test refuses the assembled set too, at k = 3
    assert _step(omega, 5) == 3


def test_assembled_strict_r_counterexample():
    # even strictly decreasing positive r admits adversarial (m, n): the
    # multi-component weighted comparison needs the index-set surgery of
    # the admissibility argument, not the raw assembled set.  Pinned so the
    # boundary of the per-pair statement stays documented.
    p1 = SpecialPair((1, 2, 1), (1,)).solved()
    p2 = SpecialPair((2, 3, 1), (2,)).solved()
    assert p1.r == 1 and p2.r == Fraction(1, 2)
    omega = assemble_global([GlobalEntry.from_pair(p1), GlobalEntry.from_pair(p2)])
    assert omega == frozenset({1, 3, 5, 6, 8, 9})
    m = [-6, -4, -3, -1, 3, 6, 7, 10, 10, 11]
    n = [-2, 0, 0, 1, 3, 4, 5, 7, 7, 8]
    res = oracles.check_weighted_inequality(omega, m, n)
    assert (res.holds, res.lhs, res.rhs) == (False, 20, 19)
    assert _step(omega, 10) is not None


@settings(max_examples=50)
@given(st.integers(0, 200))
def test_random_pairs_always_special(seed):
    rng = random.Random(seed)
    pair = random_special_pair(rng)
    assert _clause(*common_scale(pair.a, pair.c)[0]) is None


def _replay(state, draw, *args):
    """draw(rng, *args) on a generator in `state`, and the state it leaves."""
    rng = random.Random()
    rng.setstate(state)
    return draw(rng, *args), rng.getstate()


@pytest.mark.parametrize("integer", [True, False])
def test_integer_core_matches_fraction_oracles(integer):
    # the integer sampler makes the same rng calls and gives the same pairs
    # as the entry-by-entry Fraction form; the clauses, t, r and Omega
    # match on integer pairs and, put over one integer scale, on pairs
    # with denominators
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(500):
            start = rng.getstate()
            want = oracles.random_special_pair(rng, integer=integer)
            if integer:
                drawn = (list(want.a), list(want.c)), rng.getstate()
                assert _replay(start, pairs._draw_pair, 4) == drawn
            (a, c), _ = common_scale(want.a, want.c)
            assert _clause(a, c) is None
            assert _solved(want.a, want.c) == oracles.solve_t(want)
            if integer:
                assert _omega(a, c) == oracles.omega_of_pair(want)


def test_clauses_and_solver_refusals_match_oracle():
    # special pairs with one entry moved by a half or a whole step reach
    # every clause; the solver agrees with the oracle on the special ones,
    # and the oracle refuses exactly the others
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        pair = random_special_pair(rng, max_k=3, integer=rng.random() < 0.5)
        a, c = list(pair.a), list(pair.c)
        entries = (a, c) if c else (a,)
        row = rng.choice(entries)
        row[rng.randrange(len(row))] += Fraction(rng.randint(-2, 2), 2)
        clause = _clause(*common_scale(a, c)[0])
        assert oracles.is_special(a, c) == (clause is None, clause)
        seen.add(clause)
        moved = SpecialPair(tuple(a), tuple(c))
        if clause is None:
            assert _solved(a, c) == oracles.solve_t(moved)
        else:
            assert _outcome(oracles.solve_t, moved) == (
                "ValueError", f"pair is not special (clause {clause})"
            )
    assert seen == {None, "i", "ii", "iii"}
    with pytest.raises(ValueError, match="length mismatch"):
        _clause((1, 1), (1,))


def test_sampler_gives_up_after_10000_rejections():
    class Stuck(random.Random):
        # k = 2 with c_1 / a_1 = 1/6 < c_2 / a_2 = 1, every attempt: the
        # widths and bits that randint(0, 4) = 2, randint(1, 6) = 6,
        # randint(1, 6) = 1, randint(1, 6) = 1 and randint(1, 1) = 1 read
        draws = itertools.cycle(((3, 2), (3, 5), (3, 0), (3, 0), (1, 0)))

        def getrandbits(self, k):
            width, bits = next(self.draws)
            assert k == width
            return bits

    with pytest.raises(RuntimeError, match="failed to sample"):
        pairs._draw_pair(Stuck(0), 4)
    with pytest.raises(RuntimeError, match="failed to sample"):
        oracles.random_special_pair(Stuck(0), integer=True)


def test_fuzz_first_failure_matches_oracle(monkeypatch, capsys):
    # a non-special index set {L} fails the step test at k = 2 whenever
    # L >= 2; the report names the first failing trial and the witness of
    # its least failing step, in "num/den" strings
    monkeypatch.setattr(pairs, "_omega", lambda a, c: frozenset({sum(a)}))
    rng = random.Random(5)
    failures, first = 0, None
    for trial in range(200):
        pair = oracles.random_special_pair(rng, integer=True)
        oracles.solve_t(pair)
        length = int(pair.total)
        failing = _least_failing_step({length}, length)
        if failing is not None:
            failures += 1
            if first is None:
                k, m, n = failing
                assert k == 2
                first = {"trial": trial} | {
                    key: [f"{x.numerator}/{x.denominator}" for x in xs]
                    for key, xs in (("a", pair.a), ("c", pair.c), ("m", m), ("n", n))
                }
    assert failures and any(not s.endswith("/1") for s in first["m"])
    report = fuzz_special_pairs(200, seed=5)
    assert report == {"trials": 200, "failures": failures, "first_failure": first}
    assert list(report["first_failure"]) == ["trial", "a", "c", "m", "n"]
    assert main(["fuzz-special", "--trials", "200", "--seed", "5"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"command": "fuzz-special", "seed": 5, **report}


def _sampler_box() -> set:
    """Every (a, c) that `_draw_pair(rng, 4)` can return: k <= 4,
    1 <= c_i <= a_i <= 6 on a nonincreasing ratio chain, a_0 = max c + pad
    (1 to 4 when k = 0) and a_{k+1} = max (a_i - c_i) + pad, pads <= 3."""
    out = set()
    for k in range(5):
        for a_mid in itertools.product(range(1, 7), repeat=k):
            for c_mid in itertools.product(*(range(1, ai + 1) for ai in a_mid)):
                if any(c_mid[i] * a_mid[i + 1] < c_mid[i + 1] * a_mid[i] for i in range(k - 1)):
                    continue
                top = max(c_mid, default=0)
                last = max((x - y for x, y in zip(a_mid, c_mid)), default=0)
                for a0 in range(top, top + 4) if k else range(1, 5):
                    for pad in range(4):
                        out.add(((a0, *a_mid, last + pad), c_mid))
    return out


def test_step_test_passes_on_every_pair_the_sampler_can_draw():
    # so `fuzz-special` reports no failure for any seed or trial count;
    # 6,431 of the pairs meet some step with equality, so a strict test
    # that refuses equality fails here
    box = _sampler_box()
    assert len(box) == 321_008
    for a, c in box:
        assert _clause(a, c) is None
        _solve(a, c)                    # post-conditions asserted inside
        assert _step(_omega(a, c), sum(a)) is None, (a, c)
    rng = random.Random(30)
    for _ in range(20_000):
        a, c = _draw_pair(rng, 4)
        assert (tuple(a), tuple(c)) in box


def test_step_test_matches_the_weighted_oracle():
    # on special pairs the step test passes and no sampled admissible
    # weights break the oracle's comparison; on random index sets the step
    # test fails exactly where a step witness breaks it, at the least such k
    rng = random.Random(33)
    for _ in range(500):
        pair = random_special_pair(rng, integer=True)
        omega, length = oracles.omega_of_pair(pair), int(pair.total)
        assert _step(omega, length) is None
        for _ in range(4):
            m, n = random_weight_pair(rng, length)
            assert oracles.check_weighted_inequality(omega, m, n).holds
    verdicts = set()
    for _ in range(3000):
        length = rng.randint(1, 9)
        omega = frozenset(j for j in range(1, length + 1) if rng.random() < 0.4)
        k = _step(omega, length)
        failing = _least_failing_step(omega, length)
        assert (failing[0] if failing else None) == k
        if k is None:
            m, n = random_weight_pair(rng, length)
            assert oracles.check_weighted_inequality(omega, m, n).holds
        verdicts.add(k is None)
    assert verdicts == {True, False}
