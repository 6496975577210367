"""Frobenius modification edges and exact matrix realizations.

For two chains of one family written as D_1 = F(l1) + ... + F(l1+r1) and
D_2 = F(l2) + ... + F(l2+r2) with l = l2 - l1 >= 0, a nonzero chain map
D_1 -> D_2 exists iff l <= r1 <= l + r2, and the hom space is then a line.
The modification rule adds, for each source chain, at most one edge to the
smallest later chain admitting such a map with l = 0 or r1 = l + r2; the
modified Frobenius sends the source's top generator to itself plus the
aligned image in the target.

The concrete layer (h = 1 only) realizes Phi and N as exact rational
matrices: each block (summand i, position k) is a basis vector with
Phi-eigenvalue a_F * p^(l_i + k), where the family seeds a_F are distinct
primes different from p by default, and edges add the equal-eigenvalue
coupling term.  N * Phi = p * Phi * N holds exactly.

Blocks of one eigenvalue form a level; distinct families never share an
eigenvalue and every edge stays inside a level, so on the coordinate span
V_lambda of a level Phi = lambda * (1 + E) with E the 0/1 edge coupling,
and E is nilpotent.  Each V_lambda is therefore a generalized eigenspace,
and every Phi-stable subspace W is the direct sum of the W cap V_lambda.
N sends the level of (F, t) into that of (F, t - 1), so stable closures
are grown level by level (`subobjects.StableLattice.closures`) on the
integer operators of `level_operators`, which is where the level split is
enforced: it raises if E leaves a level or N sends one into two.  The
Newton slope of W is the sum over levels of dim(W cap V_lambda) times the
slope of one block of the level (`level_t_n`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from . import linalg
from .linalg import Mat
from .model import Block, ModuleSpec, Summand, _is_prime
from .ordering import require_canonical

__all__ = [
    "ModificationEdge",
    "hom_dim",
    "build_modified_frobenius",
    "ConcreteRealization",
    "realize_matrices",
]


@dataclass(frozen=True)
class ModificationEdge:
    src: int
    dst: int
    alignment: int   # l = l_dst - l_src >= 0


def hom_dim(s1: Summand, s2: Summand) -> int:
    """Dimension (0 or 1) of the chain-map space from s1 to s2."""
    if s1.family != s2.family:
        return 0
    l = s2.l - s1.l
    r1, r2 = s1.b - 1, s2.b - 1
    return 1 if 0 <= l <= r1 <= l + r2 else 0


def build_modified_frobenius(spec: ModuleSpec) -> tuple[ModificationEdge, ...]:
    """Modification edges for a canonically ordered spec.

    For each k1, the edge goes to the smallest k2 > k1 with a nonzero chain
    map whose alignment satisfies l = 0 or r1 = l + r2; chains admitting no
    such partner stay unmodified.
    """
    require_canonical(spec)
    edges = []
    for k1, s1 in enumerate(spec.summands):
        for k2 in range(k1 + 1, len(spec.summands)):
            s2 = spec.summands[k2]
            if hom_dim(s1, s2) != 1:
                continue
            l = s2.l - s1.l
            r1, r2 = s1.b - 1, s2.b - 1
            if l == 0 or r1 == l + r2:
                edges.append(ModificationEdge(k1, k2, l))
                break
    return tuple(edges)


def _default_seeds(spec: ModuleSpec) -> dict[str, Fraction]:
    # one family needs no separation; several get the successive primes
    # != p, so that stable subspaces split across families
    if len(spec.families) == 1:
        return {spec.families[0].id: Fraction(1)}
    primes = (q for q in itertools.count(2) if _is_prime(q) and q != spec.config.p)
    return {fam.id: Fraction(next(primes)) for fam in spec.families}


@dataclass(frozen=True)
class ConcreteRealization:
    spec: ModuleSpec
    edges: tuple[ModificationEdge, ...]
    seeds: dict[str, Fraction]
    basis: tuple[Block, ...]
    phi: Mat
    nmat: Mat
    coupling: Mat   # E with Phi = lambda * (1 + E) on each level

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def p(self) -> int:
        return self.spec.config.p

    @cached_property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Basis index groups of the eigen-levels, in basis order; blocks
        share an eigenvalue iff they share family and twist."""
        groups: dict[tuple[str, int], list[int]] = {}
        for idx, blk in enumerate(self.basis):
            groups.setdefault((blk.family.id, blk.twist), []).append(idx)
        return tuple(tuple(g) for g in groups.values())

    @cached_property
    def _level_of(self) -> tuple[tuple[int, int], ...]:
        """(level, position in the level) of each basis index."""
        out = [(0, 0)] * self.dimension
        for k, coords in enumerate(self.levels):
            for pos, i in enumerate(coords):
                out[i] = (k, pos)
        return tuple(out)

    @cached_property
    def level_operators(self) -> tuple[tuple[tuple | None, tuple | None], ...]:
        """Per level, the coupling E and N on it, each as (target level,
        integer columns in level coordinates as (row, value) pairs), or None
        where zero.  Raises RuntimeError unless E maps the level into itself
        and N into one level."""
        level_of = self._level_of
        ops = [(name, linalg.sparse_columns(mat))
               for name, mat in (("coupling", self.coupling), ("N", self.nmat))]
        out = []
        for level, coords in enumerate(self.levels):
            pair = []
            for name, cols in ops:
                block = [cols[j] for j in coords]
                targets = {level_of[i][0] for col in block for i, _ in col}
                if len(targets) > 1 or (name == "coupling" and targets - {level}):
                    raise RuntimeError(
                        f"{name} sends level {level} into levels {sorted(targets)}"
                    )
                local = tuple(
                    tuple((level_of[i][1], a) for i, a in col) for col in block
                )
                pair.append((targets.pop(), local) if targets else None)
            out.append(tuple(pair))
        return tuple(out)

    @cached_property
    def level_slopes(self) -> tuple[tuple[int, ...], int]:
        """Newton slope of one block of each level, read off its first, as
        integers over one common denominator: (numerators, denominator)."""
        cfg = self.spec.config
        slopes = [Fraction(self.basis[c[0]].t_n(cfg)) for c in self.levels]
        den = math.lcm(*(t.denominator for t in slopes))
        return tuple(int(t * den) for t in slopes), den

    def level_t_n(self, dims: Iterable[int]) -> Fraction:
        """Newton slope of a Phi,N-stable subspace W with dim(W cap V_lambda)
        given per level: each level contributes it times the slope of its
        blocks."""
        nums, den = self.level_slopes
        return Fraction(sum(d * x for d, x in zip(dims, nums)), den)


def realize_matrices(
    spec: ModuleSpec,
    edges: tuple[ModificationEdge, ...] = (),
    seeds: dict[str, Fraction] | None = None,
) -> ConcreteRealization:
    """Exact rational (Phi, N) realizing the spec; restricted to h = 1.

    Raises ValueError for a zero seed, for two families sharing an
    eigenvalue, and for an edge coupling blocks of different eigenvalues:
    each breaks the level structure that closures and t_N rely on.
    """
    for fam in spec.families:
        if fam.h != 1:
            raise ValueError("concrete layer requires h=1")
    if seeds is None:
        seeds = _default_seeds(spec)
    for fid, seed in seeds.items():
        if seed == 0:
            raise ValueError(f"Frobenius seed of family {fid!r} is zero")
    basis = tuple(spec.blocks())
    n = len(basis)
    p = spec.config.p
    lams = [seeds[blk.family.id] * Fraction(p) ** blk.twist for blk in basis]
    owner: dict[Fraction, str] = {}
    for blk, lam in zip(basis, lams):
        fid = owner.setdefault(lam, blk.family.id)
        if fid != blk.family.id:
            raise ValueError(
                f"families {fid!r} and {blk.family.id!r} share the eigenvalue {lam}"
            )
    index = {(blk.summand, blk.k): i for i, blk in enumerate(basis)}
    phi = [[Fraction(0)] * n for _ in range(n)]
    nmat = [[Fraction(0)] * n for _ in range(n)]
    coupling = [[Fraction(0)] * n for _ in range(n)]
    edge_by_src = {e.src: e for e in edges}
    for j, blk in enumerate(basis):
        lam = lams[j]
        phi[j][j] = lam
        e = edge_by_src.get(blk.summand)
        if e is not None and blk.k >= e.alignment:
            tgt = index[(e.dst, blk.k - e.alignment)]
            if lams[tgt] != lam:
                raise ValueError(f"edge {e} couples blocks of different eigenvalues")
            phi[tgt][j] = lam
            coupling[tgt][j] = Fraction(1)
        if blk.k > 0:
            below = index[(blk.summand, blk.k - 1)]
            nmat[below][j] = Fraction(1)
    phi_m = tuple(tuple(row) for row in phi)
    nmat_m = tuple(tuple(row) for row in nmat)
    _check_commutation(phi_m, nmat_m, p)
    return ConcreteRealization(
        spec, tuple(edges), dict(seeds), basis, phi_m, nmat_m,
        tuple(tuple(row) for row in coupling),
    )


def _check_commutation(phi: Mat, nmat: Mat, p: int) -> None:
    """Raise RuntimeError unless N * Phi = p * Phi * N, column by column,
    with each product applied through the nonzero entries only."""
    n = len(phi)
    phi_cols = linalg.sparse_columns(phi)
    n_cols = linalg.sparse_columns(nmat)
    scale = Fraction(p)
    for j in range(n):
        lhs = linalg.apply_columns(n_cols, [row[j] for row in phi])
        rhs = linalg.apply_columns(phi_cols, [row[j] for row in nmat])
        for x, y in zip(lhs, rhs):
            if (x or y) and x != scale * y:
                raise RuntimeError("realization violates N*Phi = p*Phi*N")
