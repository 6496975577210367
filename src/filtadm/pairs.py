"""Special pairs: jump data (a_i, c_i), their solved weights and the
weighted-sum property, decided exactly on integers.

A pair a = (a_0, ..., a_{k+1}), c = (c_1, ..., c_k) with the conventions
c_0 = a_0 and c_{k+1} = 0 is special when

  (i)   a_0 = c_0 > 0, c_{k+1} = 0, 0 < c_i <= a_i for 1 <= i <= k,
  (ii)  c_i / a_i >= c_{i+1} / a_{i+1} for every i,
  (iii) a_0 >= max c_i and a_{k+1} >= max (a_i - c_i).

Its weights t_1, ..., t_k satisfy t_1/a_0 = t_2/c_1 = ... = t_k/c_{k-1}
=: r, r minimal such that every prefix sum of t dominates the matching
prefix sum of (a_i - c_i) and the closing inequality
sum t - sum (a_i - c_i) + r c_k <= a_{k+1} holds.

For integer a the pair induces an index set Omega in [1, L], L = sum a
(trailing intervals of length c_i inside consecutive ranges of length
a_i).  Call (m, n) admissible when m, n are nondecreasing of length L,
the m-increments dominate the n-increments and sum m <= sum n.  Then
sum_Omega m <= sum_Omega n for every admissible (m, n) iff the step test
holds: |Omega cap [k, L]| L <= |Omega| (L - k + 1) for k = 2, ..., L.

Proof.  Put d = m - n.  As (m, n) range over the admissible pairs, d
ranges over all nondecreasing vectors with sum d <= 0 (take n = 0), and
the inequality reads sum_Omega d <= 0.  Such a d is a constant vector
plus sum_k alpha_k 1_[k, L] with steps alpha_k >= 0.  With the steps
fixed, sum_Omega d grows with the constant, so it is largest at sum d = 0,
sum_Omega d = sum_k alpha_k (|Omega cap [k, L]| - |Omega| (L - k + 1) / L).
That is <= 0 for all alpha >= 0 iff every coefficient is.  A failing k
has the witness m = 1_[k, L] - (L - k + 1) / L, n = 0: it is admissible
and sum_Omega m > 0.

`_clause`, `_solve`, `_omega` and the step test `_step` work in integers,
so nothing is approximated; `fuzz_special_pairs` runs them on the pairs
`_draw_pair` draws.  The `Fraction` forms, the weighted comparison on
given (m, n), the pair record and the assembly of index sets over
components are test oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .model import InternalConsistencyError, below, fraction_to_str

__all__ = ["fuzz_special_pairs"]


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


def _step(omega: frozenset[int], length: int) -> int | None:
    """The least k in 2..length whose step 1_[k, length] breaks the
    inequality, |Omega cap [k, length]| length > |Omega| (length - k + 1),
    or None when the inequality holds for every admissible (m, n)."""
    size = count = len(omega)
    for k in range(2, length + 1):
        count -= k - 1 in omega
        if count * length > size * (length - k + 1):
            return k
    return None


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


def fuzz_special_pairs(trials: int, seed: int) -> dict:
    """Randomized verification of the weighted-sum property; JSON-friendly.

    Each drawn pair is decided by the step test; the first failing pair
    is reported with the witness (m, n) of its least failing k.
    """
    rng = random.Random(seed)
    failures = 0
    first_failure = None
    for trial in range(trials):
        a, c = _draw_pair(rng, 4)
        _solve(a, c)
        length = sum(a)
        k = _step(_omega(a, c), length)
        if k is not None:
            failures += 1
            if first_failure is None:
                m = [Fraction(k - 1 - length, length)] * (k - 1)
                m += [Fraction(k - 1, length)] * (length - k + 1)
                first_failure = {
                    "trial": trial,
                    "a": [fraction_to_str(x) for x in a],
                    "c": [fraction_to_str(x) for x in c],
                    "m": [fraction_to_str(x) for x in m],
                    "n": ["0/1"] * length,
                }
    report = {"trials": trials, "failures": failures}
    if first_failure is not None:
        report["first_failure"] = first_failure
    return report
