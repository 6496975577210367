"""Newton-vs-Hodge slope chain checks.

check_slope_chain: for the canonically ordered summands D_1, ..., D_s,
every proper prefix must satisfy

    [K:L] * (sum of the lowest dim(D_1 + ... + D_k) weights over all sigma)
        <= t_N(D_1) + ... + t_N(D_k),

with exact equality at the full module.  check_all_block_orders quantifies
the same chain over every ordering of the individual blocks, which reduces
to a subset-minimum question: for every achievable subset dimension m the
minimal block-subset slope must dominate the lowest-m weight sum.

Both checks run on integers: slopes come from `model.scaled_slopes`,
multiplied by the common denominator den of the base slopes, and weight
sums are multiplied by [K:L] * den.  Only the reported slacks and the
equality gap become Fractions, one `Fraction(x, den)` each; nothing is
rounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    ModuleSpec,
    ScaledSlopes,
    WeightProfile,
    fraction_to_str,
    scaled_slopes,
    validate_spec,
)
from .ordering import require_canonical

__all__ = ["ChainVerdict", "check_slope_chain", "check_all_block_orders"]


@dataclass(frozen=True)
class ChainVerdict:
    ok: bool
    failure: str | None = None          # "prefix" | "equality" | None
    prefix: int | None = None           # failing prefix (summand count or dim)
    slacks: tuple[tuple[int, Fraction], ...] = ()   # (prefix key, RHS - LHS)
    equality_gap: Fraction = Fraction(0)            # t_N(D) - LHS_total

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failure": self.failure,
            "prefix": self.prefix,
            "slacks": [[k, fraction_to_str(s)] for k, s in self.slacks],
            "equalityGap": fraction_to_str(self.equality_gap),
        }


def _chain_verdict(
    spec: ModuleSpec,
    profile: WeightProfile,
    sc: ScaledSlopes,
    points: list[tuple[int, int, int]],
) -> ChainVerdict:
    """Verdict from (prefix key, dimension, scaled slope sum) points, one
    per proper prefix: each slack is the slope sum minus [K:L] times the
    lowest-dimension weight sum, and the first negative one fails."""
    scale = spec.config.deg_K_L * sc.den
    prefix = profile.prefix_sums()
    slacks = []
    first_fail = None
    for key, dim, slope_sum in points:
        slack = slope_sum - scale * prefix[dim]
        slacks.append((key, Fraction(slack, sc.den)))
        if slack < 0 and first_fail is None:
            first_fail = key
    gap = Fraction(sum(sc.totals) - scale * profile.total, sc.den)
    if first_fail is not None:
        return ChainVerdict(False, "prefix", first_fail, tuple(slacks), gap)
    if gap != 0:
        return ChainVerdict(False, "equality", None, tuple(slacks), gap)
    return ChainVerdict(True, None, None, tuple(slacks), gap)


def check_slope_chain(spec: ModuleSpec, profile: WeightProfile) -> ChainVerdict:
    """Prefix slope inequalities plus total equality, canonical order
    required: the spec and profile are validated and the order checked in
    full, whether or not the spec is marked canonical."""
    validate_spec(spec, profile)
    require_canonical(spec)
    return _slope_chain(spec, profile)


def _slope_chain(spec: ModuleSpec, profile: WeightProfile) -> ChainVerdict:
    """`check_slope_chain` on a spec and profile already validated, the
    spec in canonical order."""
    sc = scaled_slopes(spec)
    points = []
    dim = slope_sum = 0
    for k in range(1, len(spec.summands)):
        dim += sc.sizes[k - 1] * sc.lengths[k - 1]
        slope_sum += sc.totals[k - 1]
        points.append((k, dim, slope_sum))
    return _chain_verdict(spec, profile, sc, points)


def _min_slope_per_dim(sc: ScaledSlopes) -> dict[int, int]:
    """For each achievable block-subset dimension, the minimal total
    scaled slope.

    Blocks of one size differ only in their slopes, so the cheapest k of
    them are the k smallest; the sizes are then combined by a min-plus
    knapsack over the dimension.
    """
    by_size: dict[int, list[int]] = {}
    for i, size in enumerate(sc.sizes):
        by_size.setdefault(size, []).extend(sc.blocks(i))
    best = {0: 0}
    for size, slopes in by_size.items():
        cheapest = list(itertools.accumulate(sorted(slopes), initial=0))
        nxt: dict[int, int] = {}
        for d, m in best.items():
            for k, s in enumerate(cheapest):
                cur = nxt.get(d + k * size)
                if cur is None or m + s < cur:
                    nxt[d + k * size] = m + s
        best = nxt
    return best


def check_all_block_orders(spec: ModuleSpec, profile: WeightProfile) -> ChainVerdict:
    """The prefix chain over every permutation of the individual blocks.

    A prefix of a block permutation is an arbitrary block subset, so the
    chain holds for all permutations iff for every achievable subset
    dimension m < d+1 the minimal subset slope dominates the lowest-m
    weight sum, with equality at m = d+1.
    """
    validate_spec(spec, profile)
    require_canonical(spec)
    sc = scaled_slopes(spec)
    best = _min_slope_per_dim(sc)
    dim = spec.dimension
    points = [(m, m, best[m]) for m in sorted(best) if 0 < m < dim]
    return _chain_verdict(spec, profile, sc, points)
