"""Newton-vs-Hodge slope chain checks.

check_slope_chain: for the canonically ordered summands D_1, ..., D_s,
every proper prefix must satisfy

    [K:L] * (sum of the lowest dim(D_1 + ... + D_k) weights over all sigma)
        <= t_N(D_1) + ... + t_N(D_k),

with exact equality at the full module.  check_all_block_orders quantifies
the same chain over every ordering of the individual blocks, which reduces
to a subset-minimum question: for every achievable subset dimension m the
minimal block-subset slope must dominate the lowest-m weight sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import ModuleSpec, WeightProfile, t_n, t_n_summand, validate_spec
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
        from .model import fraction_to_str

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
    points: list[tuple[int, int, Fraction]],
) -> ChainVerdict:
    """Verdict from (prefix key, dimension, slope sum) points, one per
    proper prefix: each slack is the slope sum minus [K:L] times the
    lowest-dimension weight sum, and the first negative one fails."""
    k_l = spec.config.deg_K_L
    slacks = []
    first_fail = None
    for key, dim, slope_sum in points:
        slack = slope_sum - k_l * profile.prefix_sum(dim)
        slacks.append((key, slack))
        if slack < 0 and first_fail is None:
            first_fail = key
    gap = t_n(spec) - k_l * profile.total
    if first_fail is not None:
        return ChainVerdict(False, "prefix", first_fail, tuple(slacks), gap)
    if gap != 0:
        return ChainVerdict(False, "equality", None, tuple(slacks), gap)
    return ChainVerdict(True, None, None, tuple(slacks), gap)


def check_slope_chain(spec: ModuleSpec, profile: WeightProfile) -> ChainVerdict:
    """Prefix slope inequalities plus total equality, canonical order required."""
    validate_spec(spec, profile)
    require_canonical(spec)
    points = []
    dim = 0
    slope_sum = Fraction(0)
    for k in range(1, len(spec.summands)):
        dim += spec.summand_dim(k - 1)
        slope_sum += t_n_summand(spec, k - 1)
        points.append((k, dim, slope_sum))
    return _chain_verdict(spec, profile, points)


def _min_slope_per_dim(spec: ModuleSpec) -> dict[int, Fraction]:
    """For each achievable block-subset dimension, the minimal total slope."""
    best: dict[int, Fraction] = {0: Fraction(0)}
    for blk in spec.blocks():
        step = blk.t_n(spec.config)
        size = blk.size
        for d in sorted(best, reverse=True):
            cand = best[d] + step
            cur = best.get(d + size)
            if cur is None or cand < cur:
                best[d + size] = cand
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
    best = _min_slope_per_dim(spec)
    points = [(m, m, best[m]) for m in sorted(best) if 0 < m < spec.dimension]
    return _chain_verdict(spec, profile, points)
