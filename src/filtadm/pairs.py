"""Special pairs: jump data (a_i, c_i), their solved weights, and assembly.

A pair a = (a_0, ..., a_{k+1}), c = (c_1, ..., c_k) with the conventions
c_0 = a_0 and c_{k+1} = 0 is special when

  (i)   a_0 = c_0 > 0, c_{k+1} = 0, 0 < c_i <= a_i for 1 <= i <= k,
  (ii)  c_i / a_i >= c_{i+1} / a_{i+1} for every i,
  (iii) a_0 >= max c_i and a_{k+1} >= max (a_i - c_i).

solve_t produces t_1, ..., t_k with t_1/a_0 = t_2/c_1 = ... = t_k/c_{k-1}
=: r minimal such that every prefix sum of t dominates the matching prefix
sum of (a_i - c_i) and the closing inequality
sum t - sum (a_i - c_i) + r c_k <= a_{k+1} holds.

For integer a the pair induces an index set Omega (trailing intervals of
length c_i inside consecutive ranges of length a_i), and for any
nondecreasing m, n whose m-increments dominate the n-increments and with
sum m <= sum n, one has sum_{Omega} m <= sum_{Omega} n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "SpecialPair",
    "HypothesisError",
    "InternalConsistencyError",
    "is_special",
    "solve_t",
    "omega_of_pair",
    "WeightedResult",
    "check_weighted_inequality",
    "GlobalEntry",
    "assemble_global",
    "random_special_pair",
    "random_weight_pair",
    "fuzz_special_pairs",
]


class HypothesisError(ValueError):
    """Raised when (m, n) violate the hypotheses of the weighted inequality."""


class InternalConsistencyError(RuntimeError):
    """A structural guarantee failed; would falsify the flag/pair theory."""


@dataclass(frozen=True)
class SpecialPair:
    a: tuple[Fraction, ...]            # length k + 2
    c: tuple[Fraction, ...]            # length k
    t: tuple[Fraction, ...] = ()       # solved, length k
    r: Fraction | None = None
    vacuous: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        object.__setattr__(self, "t", tuple(Fraction(x) for x in self.t))

    @property
    def k(self) -> int:
        return len(self.c)

    @property
    def total(self) -> Fraction:
        return sum(self.a, Fraction(0))

    def solved(self) -> "SpecialPair":
        t, r = solve_t(self)
        return SpecialPair(self.a, self.c, t, r, self.vacuous)

    @staticmethod
    def empty() -> "SpecialPair":
        return SpecialPair((), (), (), Fraction(0), vacuous=True)


def _full_c(a: Sequence[Fraction], c: Sequence[Fraction]) -> list[Fraction]:
    # conventions c_0 = a_0 and c_{k+1} = 0
    return [Fraction(a[0])] + [Fraction(x) for x in c] + [Fraction(0)]


def is_special(
    a: Sequence[Fraction], c: Sequence[Fraction]
) -> tuple[bool, str | None]:
    """Exact check of conditions (i)-(iii); returns the first violated clause."""
    a = [Fraction(x) for x in a]
    c = [Fraction(x) for x in c]
    k = len(c)
    if len(a) != k + 2:
        raise ValueError("length mismatch: need len(a) == len(c) + 2")
    if a[0] <= 0 or any(x < 0 for x in a):
        return False, "i"
    for i in range(1, k + 1):
        if not (0 < c[i - 1] <= a[i]):
            return False, "i"
    cf = _full_c(a, c)
    # ratio chain compared by cross multiplication (tolerates a_{k+1} = 0)
    for i in range(0, k + 1):
        if cf[i] * a[i + 1] < cf[i + 1] * a[i]:
            return False, "ii"
    if k >= 1:
        if a[0] < max(c):
            return False, "iii"
        if a[k + 1] < max(a[i] - c[i - 1] for i in range(1, k + 1)):
            return False, "iii"
    return True, None


def solve_t(pair: SpecialPair) -> tuple[tuple[Fraction, ...], Fraction]:
    """Minimal-r solution of the proportional weight system."""
    if pair.vacuous:
        return (), Fraction(0)
    ok, clause = is_special(pair.a, pair.c)
    if not ok:
        raise ValueError(f"pair is not special (clause {clause})")
    a, c = pair.a, pair.c
    k = pair.k
    if k == 0:
        return (), Fraction(0)
    cf = _full_c(a, c)
    t1 = Fraction(0)
    for l in range(1, k + 1):
        num = sum((a[i] - c[i - 1] for i in range(1, l + 1)), Fraction(0))
        den = 1 + sum(c[: l - 1], Fraction(0)) / a[0]
        t1 = max(t1, num / den)
    t = tuple(t1 * cf[i - 1] / a[0] for i in range(1, k + 1))
    r = t1 / a[0]
    # exact post-conditions: prefix domination and the closing bound
    acc_t = Fraction(0)
    acc_d = Fraction(0)
    for l in range(1, k + 1):
        acc_t += t[l - 1]
        acc_d += a[l] - c[l - 1]
        if acc_t < acc_d:
            raise InternalConsistencyError("solve_t prefix condition failed")
    if acc_t - acc_d + r * c[k - 1] > a[k + 1]:
        raise InternalConsistencyError("solve_t closing condition failed")
    return t, r


def omega_of_pair(pair: SpecialPair) -> frozenset[int]:
    """Trailing-interval index set; requires integer entries."""
    if pair.vacuous:
        return frozenset()
    cf = _full_c(pair.a, pair.c)
    if any(x.denominator != 1 for x in pair.a) or any(
        x.denominator != 1 for x in cf
    ):
        raise ValueError("omega needs integer pair entries")
    out = set()
    acc = 0
    for i, ai in enumerate(pair.a):
        acc += int(ai)
        ci = int(cf[i])
        out.update(range(acc - ci + 1, acc + 1))
    return frozenset(out)


@dataclass(frozen=True)
class WeightedResult:
    holds: bool
    lhs: Fraction
    rhs: Fraction


def check_weighted_inequality(
    omega: SpecialPair | frozenset[int] | set[int],
    m: Sequence[Fraction],
    n: Sequence[Fraction],
) -> WeightedResult:
    """Evaluate sum_{Omega} m <= sum_{Omega} n exactly.

    Hypothesis violations (monotonicity, increment domination, total
    comparison) raise HypothesisError, distinct from a failing verdict.
    """
    if isinstance(omega, SpecialPair):
        omega = omega_of_pair(omega)
    m = [Fraction(x) for x in m]
    n = [Fraction(x) for x in n]
    if len(m) != len(n):
        raise HypothesisError("m and n must have equal length")
    for name, seq in (("m", m), ("n", n)):
        if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
            raise HypothesisError(f"{name} is not nondecreasing")
    for i in range(len(m) - 1):
        if m[i + 1] - m[i] < n[i + 1] - n[i]:
            raise HypothesisError("m increments must dominate n increments")
    if sum(m, Fraction(0)) > sum(n, Fraction(0)):
        raise HypothesisError("sum m must not exceed sum n")
    if any(j < 1 or j > len(m) for j in omega):
        raise HypothesisError("omega indices out of range")
    lhs = sum((m[j - 1] for j in omega), Fraction(0))
    rhs = sum((n[j - 1] for j in omega), Fraction(0))
    return WeightedResult(lhs <= rhs, lhs, rhs)


@dataclass(frozen=True)
class GlobalEntry:
    omega: frozenset[int]
    r: Fraction
    dim: int

    @staticmethod
    def from_pair(pair: SpecialPair) -> "GlobalEntry":
        solved = pair if pair.r is not None else pair.solved()
        return GlobalEntry(omega_of_pair(solved), solved.r, int(solved.total))


def assemble_global(entries: Sequence[GlobalEntry]) -> frozenset[int]:
    """Offset the per-component index sets in descending-r order.

    Ties keep the input order (stable sort); the offset of a component is
    the sum of the dimensions of the components placed before it.
    """
    order = sorted(range(len(entries)), key=lambda i: (-entries[i].r, i))
    out: set[int] = set()
    offset = 0
    for i in order:
        e = entries[i]
        shifted = {offset + j for j in e.omega}
        if out & shifted:
            raise InternalConsistencyError("assembled index sets overlap")
        out |= shifted
        offset += e.dim
    return frozenset(out)


# ---------------------------------------------------------------------------
# seeded generators for fuzzing
# ---------------------------------------------------------------------------


def random_special_pair(
    rng: random.Random,
    max_k: int = 4,
    integer: bool = False,
) -> SpecialPair:
    """Sample a pair satisfying (i)-(iii), by rejection on the ratio chain."""
    for _ in range(10_000):
        k = rng.randint(0, max_k)
        a_mid: list[Fraction] = []
        c_mid: list[Fraction] = []
        for _ in range(k):
            if integer:
                ai = Fraction(rng.randint(1, 6))
                ci = Fraction(rng.randint(1, int(ai)))
            else:
                ai = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4)))
                ci = ai * Fraction(rng.randint(1, 4), 4)
            a_mid.append(ai)
            c_mid.append(ci)
        ratios = [c / a for c, a in zip(c_mid, a_mid)]
        if any(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1)):
            continue
        if integer:
            pad0 = Fraction(rng.randint(0, 3))
            pad1 = Fraction(rng.randint(0, 3))
        else:
            pad0 = Fraction(rng.randint(0, 6), 2)
            pad1 = Fraction(rng.randint(0, 6), 2)
        a0 = max(c_mid, default=Fraction(0)) + pad0
        if a0 <= 0:
            a0 = Fraction(rng.randint(1, 4))
        a_last = max(
            (a - c for a, c in zip(a_mid, c_mid)), default=Fraction(0)
        ) + pad1
        pair = SpecialPair((a0, *a_mid, a_last), tuple(c_mid))
        ok, _ = is_special(pair.a, pair.c)
        if ok:
            return pair
    raise RuntimeError("failed to sample a special pair")


def random_weight_pair(
    rng: random.Random, length: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Sample (m, n) satisfying the hypotheses (a)-(c) by construction."""
    n0 = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    n = [n0]
    m = [n0 + Fraction(rng.randint(-4, 2), rng.choice((1, 2)))]
    for _ in range(length - 1):
        dn = Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        extra = Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        n.append(n[-1] + dn)
        m.append(m[-1] + dn + extra)
    excess = sum(m, Fraction(0)) - sum(n, Fraction(0))
    if excess > 0:
        shift = excess / length + Fraction(rng.randint(0, 2))
        m = [x - shift for x in m]
    return m, n


def fuzz_special_pairs(trials: int, seed: int) -> dict:
    """Randomized verification of the weighted-sum property; JSON-friendly."""
    rng = random.Random(seed)
    failures = 0
    first_failure = None
    for trial in range(trials):
        pair = random_special_pair(rng, integer=True).solved()
        length = int(pair.total)
        if length < 1:
            continue
        m, n = random_weight_pair(rng, length)
        res = check_weighted_inequality(pair, m, n)
        if not res.holds:
            failures += 1
            if first_failure is None:
                from .model import fraction_to_str

                first_failure = {
                    "trial": trial,
                    "a": [fraction_to_str(x) for x in pair.a],
                    "c": [fraction_to_str(x) for x in pair.c],
                    "m": [fraction_to_str(x) for x in m],
                    "n": [fraction_to_str(x) for x in n],
                }
    report = {"trials": trials, "failures": failures}
    if first_failure is not None:
        report["first_failure"] = first_failure
    return report
