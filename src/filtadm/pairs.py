"""Special pairs: jump data (a_i, c_i), their solved weights and the
weighted-sum property, on integers.

A pair a = (a_0, ..., a_{k+1}), c = (c_1, ..., c_k) with the conventions
c_0 = a_0 and c_{k+1} = 0 is special when

  (i)   a_0 = c_0 > 0, c_{k+1} = 0, 0 < c_i <= a_i for 1 <= i <= k,
  (ii)  c_i / a_i >= c_{i+1} / a_{i+1} for every i,
  (iii) a_0 >= max c_i and a_{k+1} >= max (a_i - c_i).

Its weights t_1, ..., t_k satisfy t_1/a_0 = t_2/c_1 = ... = t_k/c_{k-1}
=: r, r minimal such that every prefix sum of t dominates the matching
prefix sum of (a_i - c_i) and the closing inequality
sum t - sum (a_i - c_i) + r c_k <= a_{k+1} holds.

For integer a the pair induces an index set Omega (trailing intervals of
length c_i inside consecutive ranges of length a_i), and for any
nondecreasing m, n whose m-increments dominate the n-increments and with
sum m <= sum n, one has sum_{Omega} m <= sum_{Omega} n.

`_clause`, `_solve`, `_omega` and `_weighted` decide each of these over
one integer scale per quantity, so nothing is approximated: the clauses,
the hypotheses and the Omega comparison are invariant under a positive
scale.  The samplers `_draw_pair` and `_draw_weights` draw integer pairs,
and weights at scale 2L (half units shifted by excess/L + q); t_1 is a
ratio P/Q of integers.  `fuzz_special_pairs` runs them and builds
`Fraction`s only to report a failure.  The `Fraction` forms of all six,
the pair record and the assembly of index sets over components are test
oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .model import InternalConsistencyError, below, fraction_to_str

__all__ = ["HypothesisError", "fuzz_special_pairs"]


class HypothesisError(ValueError):
    """Raised when (m, n) violate the hypotheses of the weighted inequality."""


def _clause(a: Sequence[int], c: Sequence[int]) -> str | None:
    """The first clause of (i)-(iii) that entries at one scale violate."""
    k = len(c)
    if len(a) != k + 2:
        raise ValueError("length mismatch: need len(a) == len(c) + 2")
    if a[0] <= 0 or any(x < 0 for x in a):
        return "i"
    if not all(0 < ci <= ai for ai, ci in zip(a[1:], c)):
        return "i"
    cf = (a[0], *c, 0)
    # ratio chain compared by cross multiplication (tolerates a_{k+1} = 0)
    if any(cf[i] * a[i + 1] < cf[i + 1] * a[i] for i in range(k + 1)):
        return "ii"
    if k and (a[0] < max(c) or a[k + 1] < max(x - y for x, y in zip(a[1:], c))):
        return "iii"
    return None


def _solve(a: Sequence[int], c: Sequence[int]) -> tuple[int, int]:
    """t_1 = P / Q of a special pair, at the scale of its entries.

    Checks both post-conditions by cross multiplication: the prefix sums of
    t are r (a_0 + c_1 + ... + c_{l-1}) with r = t_1 / a_0 = P / (Q a_0).
    """
    a0, k = a[0], len(c)
    p, q = 0, 1
    d = s = 0                   # prefix sums of a_i - c_i and of c_1..c_{l-1}
    for l in range(k):
        d += a[l + 1] - c[l]
        if d * a0 * q > p * (a0 + s):
            p, q = d * a0, a0 + s
        s += c[l]
    d = s = 0
    for l in range(k):
        d += a[l + 1] - c[l]
        if p * (a0 + s) < d * q * a0:
            raise InternalConsistencyError("weight solver prefix condition failed")
        s += c[l]
    if p * (a0 + s) > (a[k + 1] + d) * q * a0:
        raise InternalConsistencyError("weight solver closing condition failed")
    return p, q


def _omega(a: Sequence[int], c: Sequence[int]) -> frozenset[int]:
    """Trailing intervals of length c_i inside the ranges of length a_i."""
    out = set()
    acc = 0
    for ai, ci in zip(a, (a[0], *c, 0)):
        acc += ai
        out.update(range(acc - ci + 1, acc + 1))
    return frozenset(out)


def _weighted(omega, m: Sequence[int], n: Sequence[int]) -> tuple[int, int]:
    """sum_Omega m and sum_Omega n, for m, n at one scale that meet the hypotheses."""
    if len(m) != len(n):
        raise HypothesisError("m and n must have equal length")
    for name, seq in (("m", m), ("n", n)):
        if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
            raise HypothesisError(f"{name} is not nondecreasing")
    if any(m[i + 1] - m[i] < n[i + 1] - n[i] for i in range(len(m) - 1)):
        raise HypothesisError("m increments must dominate n increments")
    if sum(m) > sum(n):
        raise HypothesisError("sum m must not exceed sum n")
    if any(j < 1 or j > len(m) for j in omega):
        raise HypothesisError("omega indices out of range")
    return sum(m[j - 1] for j in omega), sum(n[j - 1] for j in omega)


# ---------------------------------------------------------------------------
# seeded generators for fuzzing
# ---------------------------------------------------------------------------


def _draw_pair(rng: random.Random, max_k: int) -> tuple[list[int], list[int]]:
    """Integer entries (a, c) of a special pair, by rejection on the ratio
    chain.  Draws as `randint` would (`model.below`)."""
    bits = rng.getrandbits
    for _ in range(10_000):
        k = below(bits, max_k + 1)
        a_mid: list[int] = []
        c_mid: list[int] = []
        for _ in range(k):
            ai = 1 + below(bits, 6)
            a_mid.append(ai)
            c_mid.append(1 + below(bits, ai))
        if any(c_mid[i] * a_mid[i + 1] < c_mid[i + 1] * a_mid[i] for i in range(k - 1)):
            continue
        pad0, pad1 = below(bits, 4), below(bits, 4)
        a0 = max(c_mid, default=0) + pad0
        if a0 <= 0:
            a0 = 1 + below(bits, 4)
        a_last = max((x - y for x, y in zip(a_mid, c_mid)), default=0) + pad1
        a = [a0, *a_mid, a_last]
        if _clause(a, c_mid) is None:
            return a, c_mid
    raise RuntimeError("failed to sample a special pair")


def _draw_weights(rng: random.Random, length: int) -> tuple[list[int], list[int], int]:
    """(m, n) in half units (scale 2), or shifted at scale 2 length.  Draws
    as `randint` and `choice` would (`model.below`)."""
    bits = rng.getrandbits

    def half(lo: int, hi: int) -> int:
        # randint(lo, hi) units of 2 // choice((1, 2)) halves
        return (lo + below(bits, hi - lo + 1)) * (2 - below(bits, 2))

    n = [half(-4, 4)]
    m = [n[0] + half(-4, 2)]
    for _ in range(length - 1):
        dn = half(0, 3)
        n.append(n[-1] + dn)
        m.append(m[-1] + dn + half(0, 3))
    excess = sum(m) - sum(n)
    if excess <= 0:
        return m, n, 2
    q = below(bits, 3)
    m = [length * x - excess - 2 * length * q for x in m]
    return m, [length * x for x in n], 2 * length


def fuzz_special_pairs(trials: int, seed: int) -> dict:
    """Randomized verification of the weighted-sum property; JSON-friendly.

    Runs on the integer core; `Fraction`s are built only for a failure.
    """
    rng = random.Random(seed)
    failures = 0
    first_failure = None
    for trial in range(trials):
        a, c = _draw_pair(rng, 4)
        _solve(a, c)
        m, n, scale = _draw_weights(rng, sum(a))
        lhs, rhs = _weighted(_omega(a, c), m, n)
        if lhs > rhs:
            failures += 1
            if first_failure is None:
                first_failure = {
                    "trial": trial,
                    "a": [fraction_to_str(x) for x in a],
                    "c": [fraction_to_str(x) for x in c],
                    "m": [fraction_to_str(Fraction(x, scale)) for x in m],
                    "n": [fraction_to_str(Fraction(x, scale)) for x in n],
                }
    report = {"trials": trials, "failures": failures}
    if first_failure is not None:
        report["first_failure"] = first_failure
    return report
