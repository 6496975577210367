"""The integer core of `filtadm.pairs` (`_clause`, `_solve`, `_omega`,
`_weighted` and the samplers) against the `Fraction` oracles of
`tests/oracles.py`, which also hold the pair record and the assembly of
index sets over components."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from filtadm import pairs
from filtadm.cli import main
from filtadm.pairs import HypothesisError, _clause, _omega, _solve, _weighted, fuzz_special_pairs
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


def _weighted_fractions(omega, m, n) -> oracles.WeightedResult:
    """`_weighted` on rationals m, n at one scale, read back as rationals."""
    (m, n), scale = common_scale(m, n)
    lhs, rhs = _weighted(omega, m, n)
    return oracles.WeightedResult(lhs <= rhs, Fraction(lhs, scale), Fraction(rhs, scale))


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
    m = (1, 2, 3, 4)
    lhs, rhs = _weighted(_omega((1, 2, 1), (1,)), m, m)
    assert lhs == rhs == 4


def test_weighted_documented_example():
    assert _weighted({1, 3}, (-2, 1, 2), (0, 0, 1)) == (0, 1)


def test_weighted_non_special_counterexample():
    assert _weighted({3}, (0, 0, 3), (1, 1, 1)) == (3, 1)


def test_weighted_hypothesis_violations_distinct():
    with pytest.raises(HypothesisError):
        _weighted({1}, (2, 1), (0, 0))       # m not monotone
    with pytest.raises(HypothesisError):
        _weighted({1}, (0, 1), (0, 2))       # increments
    with pytest.raises(HypothesisError):
        _weighted({1}, (1, 2), (0, 1))       # totals


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
        m, n = random_weight_pair(rng, int(pair.total))
        assert _weighted_fractions(omega, m, n).holds


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
    res = _weighted_fractions(omega, m, n)
    assert not res.holds
    assert res == oracles.check_weighted_inequality(omega, m, n)


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
    assert _weighted(omega, m, n) == (20, 19)
    res = oracles.check_weighted_inequality(omega, m, n)
    assert (res.holds, res.lhs, res.rhs) == (False, 20, 19)


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
    # the integer samplers make the same rng calls and give the same pairs
    # and weights as the entry-by-entry Fraction forms; the clauses, t, r,
    # Omega and the weighted comparison match on integer pairs and, put
    # over one integer scale, on pairs with denominators
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
            length = math.ceil(want.total)
            if integer:
                omega = _omega(a, c)
                assert omega == oracles.omega_of_pair(want)
            else:
                omega = frozenset(range(1, length + 1, 2))
            start = rng.getstate()
            m, n = oracles.random_weight_pair(rng, length)
            (ms, ns, scale), state = _replay(start, pairs._draw_weights, length)
            assert state == rng.getstate()
            assert ([Fraction(x, scale) for x in ms], [Fraction(x, scale) for x in ns]) == (m, n)
            lhs, rhs = _weighted(omega, ms, ns)
            assert oracles.WeightedResult(
                lhs <= rhs, Fraction(lhs, scale), Fraction(rhs, scale)
            ) == oracles.check_weighted_inequality(omega, m, n)


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


def test_weighted_hypotheses_match_oracle():
    rng = random.Random(32)
    seen = set()
    for _ in range(3000):
        length = rng.randint(1, 6)
        m, n = random_weight_pair(rng, length)
        row = rng.choice((m, n))
        row[rng.randrange(length)] += Fraction(rng.randint(-3, 3), 2)
        if rng.random() < 0.05:
            n.append(n[-1])
        omega = {rng.randint(0, length + 1) for _ in range(rng.randint(0, 3))}
        got = _outcome(_weighted_fractions, omega, m, n)
        assert got == _outcome(oracles.check_weighted_inequality, omega, m, n)
        seen.add(got[1].holds if got[0] == "ok" else got[1])
    assert seen == {
        True,
        False,
        "m and n must have equal length",
        "m is not nondecreasing",
        "n is not nondecreasing",
        "m increments must dominate n increments",
        "sum m must not exceed sum n",
        "omega indices out of range",
    }


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
    # a non-special index set {L} breaks the inequality; the report names
    # the first failing trial in "num/den" strings
    monkeypatch.setattr(pairs, "_omega", lambda a, c: frozenset({sum(a)}))
    rng = random.Random(5)
    failures, first = 0, None
    for trial in range(200):
        pair = oracles.random_special_pair(rng, integer=True)
        oracles.solve_t(pair)
        length = int(pair.total)
        m, n = oracles.random_weight_pair(rng, length)
        if not oracles.check_weighted_inequality({length}, m, n).holds:
            failures += 1
            if first is None:
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
