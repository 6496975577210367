"""Canonical ordering of summands and the "does not precede" certificate.

Two summands have the same type when a nonzero Frobenius-equivariant map
exists between their chains in one direction or the other, which for block
chains of one family happens exactly when their twist ranges overlap.  The
canonical order sorts each same-type group by (offset, length) and the
groups among themselves by average Newton slope.  Group slopes are added
up as the integer summand slopes of `model.scaled_slopes`, and each group
average is one exact Fraction over their common denominator; nothing is
rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import ModuleSpec, Summand, scaled_slopes

__all__ = [
    "TypePartition",
    "type_components",
    "group_and_order",
    "canonical_order",
    "is_canonical",
    "require_canonical",
    "check_not_precede",
]


@dataclass(frozen=True)
class TypePartition:
    """Same-type groups (indices into the ordered summand list)."""

    groups: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    avg_slopes: tuple[Fraction, ...]


def type_components(spec: ModuleSpec) -> list[list[int]]:
    """Connected components of the range-overlap relation within a family."""
    n = len(spec.summands)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for i in range(n):
        si = spec.summands[i]
        for j in range(i + 1, n):
            sj = spec.summands[j]
            if si.family != sj.family:
                continue
            if si.l <= sj.l + sj.b - 1 and sj.l <= si.l + si.b - 1:
                union(i, j)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return [sorted(v) for v in comps.values()]


def group_and_order(spec: ModuleSpec) -> tuple[TypePartition, tuple[int, ...]]:
    """Canonical groups and the permutation putting summands in order.

    The returned permutation maps new position -> original index.  Within a
    group summands sort ascending by (l, b); groups sort ascending by
    average slope t_N/dim, ties broken by family id and member multiset for
    determinism (the verdicts downstream are insensitive to the tie rule).
    """
    sc = scaled_slopes(spec)
    entries = []
    for comp in type_components(spec):
        members = sorted(
            comp, key=lambda i: (spec.summands[i].l, spec.summands[i].b, i)
        )
        dim = sum(sc.sizes[i] * sc.lengths[i] for i in comp)
        total = sum(sc.totals[i] for i in comp)
        key = (
            Fraction(total, sc.den * dim),
            spec.family_of(comp[0]).id,
            tuple(sorted((spec.summands[i].l, spec.summands[i].b) for i in comp)),
        )
        entries.append((key, members, dim))
    entries.sort(key=lambda e: e[0])
    perm = tuple(i for _, members, _ in entries for i in members)
    groups = []
    pos = 0
    for _, members, _ in entries:
        groups.append(tuple(range(pos, pos + len(members))))
        pos += len(members)
    partition = TypePartition(
        tuple(groups),
        tuple(e[2] for e in entries),
        tuple(e[0][0] for e in entries),
    )
    return partition, perm


def canonical_order(spec: ModuleSpec) -> tuple[ModuleSpec, TypePartition, tuple[int, ...]]:
    """The spec in canonical order, marked `canonical`, with its groups and
    permutation.  The order is idempotent: `group_and_order` of the ordered
    spec is the identity, which is what lets a consumer trust the mark."""
    partition, perm = group_and_order(spec)
    ordered = spec.with_summands([spec.summands[i] for i in perm])
    object.__setattr__(ordered, "canonical", True)
    return ordered, partition, perm


def is_canonical(spec: ModuleSpec) -> bool:
    _, perm = group_and_order(spec)
    return perm == tuple(range(len(spec.summands)))


def require_canonical(spec: ModuleSpec) -> None:
    """Raise ValueError unless the spec is in canonical order, checked in
    full whether or not it is marked."""
    if not is_canonical(spec):
        raise ValueError(
            "spec is not in canonical order; apply canonical_order() first"
        )


def _precedes(si: Summand, sj: Summand) -> bool:
    """Whether the chain si precedes sj (forbidden for an earlier summand).

    That is the isomorphism l_i = l_j + (l + b_j - b_i) for some twist
    shift l >= 0 with l + b_j > b_i: in the same family, the segment of
    sj starts strictly earlier and ends no later than the segment of si.
    Inside a group sorted by (l, b) no later summand starts earlier, so a
    canonical order has no such pair.
    """
    return si.family == sj.family and sj.l < si.l and sj.l + sj.b <= si.l + si.b


def check_not_precede(spec: ModuleSpec) -> tuple[bool, tuple[int, int] | None]:
    """Certify the given summand order: no earlier chain precedes a later one.

    Returns (True, None) or (False, (i, j)) with the first offending pair
    (0-based indices into the summand list as given).
    """
    n = len(spec.summands)
    for i in range(n):
        for j in range(i + 1, n):
            if _precedes(spec.summands[i], spec.summands[j]):
                return False, (i, j)
    return True, None
