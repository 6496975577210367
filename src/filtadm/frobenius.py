"""Frobenius modification edges and exact matrix realizations.

For two chains of one family written as D_1 = F(l1) + ... + F(l1+r1) and
D_2 = F(l2) + ... + F(l2+r2) with l = l2 - l1 >= 0, a nonzero chain map
D_1 -> D_2 exists iff l <= r1 <= l + r2, and the hom space is then a line.
The modification rule adds, for each source chain, at most one edge to the
smallest later chain admitting such a map with l = 0 or r1 = l + r2; the
modified Frobenius sends the source's top generator to itself plus the
aligned image in the target.

The concrete layer (h = 1 only) realizes Phi and N exactly, as sparse
integer columns: each block (summand i, position k) is a basis vector with
Phi-eigenvalue a_F * p^(l_i + k).  The family seed a_F is 1 for a single
family and otherwise the successive primes other than p: each is a unit
at p, so the valuations of Phi are the spec's slopes, and by unique
factorization a_F p^a = a_G p^b has no solution for F != G, so no two
families share an eigenvalue.  Edges add the equal-eigenvalue
coupling term, so column j of Phi is lambda_j (e_j + E e_j) with E the 0/1
edge coupling.  The realization keeps the eigenvalues and the nonzero
entries of the columns of E and N; N * Phi = p * Phi * N is checked
exactly on them, with work proportional to the nonzero entries.  Every
entry is an integer, the eigenvalues too: a twist is never negative, and
`realize_matrices` refuses a spec with a negative one.  Dense integer
matrices of Phi and N are built only when read (`ConcreteRealization.phi`,
`nmat`), for the `build-phi` report.

Blocks of one eigenvalue form a level; distinct families never share an
eigenvalue and every edge stays inside a level, so on the coordinate span
V_lambda of a level Phi = lambda * (1 + E) with E the 0/1 edge coupling.
E is nilpotent, which `realize_matrices` checks on input.  It refuses two
edges from one summand, since E carries one edge per source, and a cycle
of edges, a self-loop included: E moves a block along the edge out of
its summand, so with no cycle every block reaches 0.  Each V_lambda is
therefore a generalized eigenspace, and every Phi-stable subspace W is
the direct sum of the W cap V_lambda.  E and N send each block to one
block with coefficient 1, or to 0, and EN = NE, which N Phi = p Phi N
gives with Phi = lambda (1 + E) on each level: the merge lemma of the
`subobjects` docstring rests on both.
N sends the level of (F, t) into that of (F, t - 1), so stable closures
are grown level by level (`subobjects.StableLattice.closures`) on the
integer operators of `level_operators`, read off the sparse columns, which
is where the level split is enforced: it raises if E leaves a level or N
sends one into two.  The Newton slope of W is the sum over levels of
dim(W cap V_lambda) times the slope of one block of the level
(`level_slopes`, in the integers of `model.scaled_slopes`), which
`subobjects.StableLattice.scaled_t_n` adds up per stable subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .model import Block, InternalConsistencyError, ModuleSpec, Summand
from .model import _is_prime, scaled_slopes
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
    such partner stay unmodified.  A spec that `ordering.canonical_order`
    returned is marked and trusted; any other is checked in full
    (ValueError).
    """
    if not spec.canonical:
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


def _seeds(spec: ModuleSpec) -> dict[str, int]:
    """The family seeds a_F of the module docstring, in family order."""
    if len(spec.families) == 1:
        return {spec.families[0].id: 1}
    primes = (q for q in itertools.count(2) if _is_prime(q) and q != spec.config.p)
    return {fam.id: next(primes) for fam in spec.families}


@dataclass(frozen=True)
class ConcreteRealization:
    """(Phi, N) on the basis of blocks, as sparse integer columns.

    Column j of Phi is lambda_j (e_j + E e_j), with lambda_j the eigenvalue
    of basis index j and E the edge coupling; the columns of E and N hold
    their nonzero entries as (row, value) pairs.  The dense integer
    matrices `phi` and `nmat` are built from them on first read.
    """

    spec: ModuleSpec
    edges: tuple[ModificationEdge, ...]
    seeds: dict[str, int]
    basis: tuple[Block, ...]
    eigenvalues: tuple[int, ...]
    e_cols: tuple[tuple[tuple[int, int], ...], ...]   # E, by column
    n_cols: tuple[tuple[tuple[int, int], ...], ...]   # N, by column

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _dense(self, cols, scales=None) -> tuple[tuple[int, ...], ...]:
        """The matrix with the given sparse columns, column j scaled by
        scales[j], plus the diagonal of `scales` when given."""
        n = self.dimension
        out = [[0] * n for _ in range(n)]
        for j, col in enumerate(cols):
            lam = 1
            if scales is not None:
                lam = scales[j]
                out[j][j] += lam
            for i, a in col:
                out[i][j] += lam * a
        return tuple(tuple(row) for row in out)

    @cached_property
    def phi(self) -> tuple[tuple[int, ...], ...]:
        """Phi as a dense integer matrix."""
        return self._dense(self.e_cols, self.eigenvalues)

    @cached_property
    def nmat(self) -> tuple[tuple[int, ...], ...]:
        """N as a dense integer matrix."""
        return self._dense(self.n_cols)

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
        where zero, read off `e_cols` and `n_cols`.  Raises
        InternalConsistencyError unless E maps the level into itself and N
        into one level."""
        level_of = self._level_of
        ops = (("coupling", self.e_cols), ("N", self.n_cols))
        out = []
        for level, coords in enumerate(self.levels):
            pair = []
            for name, cols in ops:
                block = [cols[j] for j in coords]
                targets = {level_of[i][0] for col in block for i, _ in col}
                if len(targets) > 1 or (name == "coupling" and targets - {level}):
                    raise InternalConsistencyError(
                        f"{name} sends level {level} into levels {sorted(targets)}"
                    )
                local = tuple(
                    tuple((level_of[i][1], a) for i, a in col) for col in block
                )
                pair.append((targets.pop(), local) if targets else None)
            out.append(tuple(pair))
        return tuple(out)

    @cached_property
    def uniserial(self) -> bool:
        """Whether the coupling E is a single chain on every level: E sends
        each basis vector of the level to a multiple of another or to 0,
        along one chain e_top -> ... -> e_bottom -> 0 through all of them.
        Then the stable subspaces are exactly the stable good spans, and
        otherwise they are infinitely many (`subobjects` module docstring).

        On a level that is rank E|lambda = width - 1, the columns hitting
        width - 1 distinct targets, with E nilpotent on the level, which
        following the chain from the one vector outside the image decides
        (`_is_chain`): a cycle keeps every column count right and never
        reaches 0 from there.  A width-1 level always qualifies; a column
        with two entries never does.
        """
        return all(
            _is_chain(len(coords), coupling)
            for coords, (coupling, _) in zip(self.levels, self.level_operators)
        )

    @cached_property
    def level_slopes(self) -> tuple[tuple[int, ...], int]:
        """Newton slope of one block of each level, read off its first, as
        integers over one common denominator: (numerators, denominator),
        from `model.scaled_slopes`."""
        sc = scaled_slopes(self.spec)
        firsts = (self.basis[coords[0]] for coords in self.levels)
        return tuple(sc.bottoms[b.summand] + b.k * sc.step for b in firsts), sc.den


def _is_chain(width: int, coupling) -> bool:
    """Whether `coupling`, a `level_operators` entry of a level of `width`
    basis vectors, is one chain through all of them
    (`ConcreteRealization.uniserial`)."""
    if coupling is None:
        return width == 1
    cols = coupling[1]
    if any(len(col) > 1 for col in cols):
        return False
    image = {col[0][0] for col in cols if col}
    if len(image) != width - 1:
        return False
    (j,) = set(range(width)) - image
    for _ in range(width - 1):
        if not cols[j]:
            return False
        j = cols[j][0][0]
    return not cols[j]


def realize_matrices(
    spec: ModuleSpec, edges: tuple[ModificationEdge, ...] = ()
) -> ConcreteRealization:
    """Exact (Phi, N) realizing the spec, as sparse integer columns, with
    the family seeds of the module docstring; h = 1 only.

    Raises ValueError for a summand with a negative twist, which
    `validate_spec` refuses too, for an edge whose src or dst is not a
    summand index or whose alignment is negative, for an edge coupling
    blocks of different eigenvalues, for two edges from one summand, and
    for edges that form a cycle, a self-loop included: each breaks the
    level structure that closures and t_N rely on (module docstring).
    """
    for fam in spec.families:
        if fam.h != 1:
            raise ValueError("concrete layer requires h=1")
    for i, s in enumerate(spec.summands):
        if s.l < 0:
            raise ValueError(
                f"summands[{i}] has the negative twist {s.l}: "
                "the concrete layer requires l >= 0"
            )
    seeds = _seeds(spec)
    basis = tuple(spec.blocks())
    p = spec.config.p
    lams = tuple(seeds[b.family.id] * p ** b.twist for b in basis)
    index = {(blk.summand, blk.k): i for i, blk in enumerate(basis)}
    e_cols = []
    n_cols = []
    edge_by_src: dict[int, ModificationEdge] = {}
    count = len(spec.summands)
    for e in edges:
        if not (0 <= e.src < count and 0 <= e.dst < count and e.alignment >= 0):
            raise ValueError(
                f"edge {e} names no block: src and dst must be summand indices "
                f"below {count} and the alignment must be >= 0"
            )
        if e.src in edge_by_src:
            raise ValueError(
                f"edges {edge_by_src[e.src]} and {e} leave one summand: "
                "the coupling carries one edge per source"
            )
        edge_by_src[e.src] = e
    for e in edges:
        # one edge per source: following them from e.dst meets e.src
        # within len(edges) steps iff e lies on a cycle
        node = e.dst
        for _ in edges:
            if node == e.src:
                raise ValueError(
                    f"edge {e} closes a cycle of edges: the coupling is not nilpotent"
                )
            nxt = edge_by_src.get(node)
            if nxt is None:
                break
            node = nxt.dst
    for j, blk in enumerate(basis):
        e = edge_by_src.get(blk.summand)
        if e is not None and blk.k >= e.alignment:
            tgt = index[(e.dst, blk.k - e.alignment)]
            if lams[tgt] != lams[j]:
                raise ValueError(f"edge {e} couples blocks of different eigenvalues")
            e_cols.append(((tgt, 1),))
        else:
            e_cols.append(())
        # blocks run bottom to top inside a summand: (i, k - 1) is j - 1
        n_cols.append(((j - 1, 1),) if blk.k > 0 else ())
    _check_commutation(lams, e_cols, n_cols, p)
    return ConcreteRealization(
        spec, tuple(edges), seeds, basis, lams, tuple(e_cols), tuple(n_cols)
    )


def _check_commutation(eigenvalues, e_cols, n_cols, p: int) -> None:
    """Raise InternalConsistencyError unless N * Phi = p * Phi * N, for the
    Phi whose column j is lambda_j (e_j + E e_j), column by column over the
    nonzero entries of the sparse columns only."""
    phi_cols = [
        ((j, lam), *((i, lam * a) for i, a in col))
        for j, (lam, col) in enumerate(zip(eigenvalues, e_cols))
    ]
    for j, col in enumerate(n_cols):
        diff: dict[int, int] = {}
        for k, x in phi_cols[j]:          # N * (Phi e_j)
            for i, a in n_cols[k]:
                diff[i] = diff.get(i, 0) + a * x
        for k, x in col:                  # p * Phi * (N e_j)
            for i, a in phi_cols[k]:
                diff[i] = diff.get(i, 0) - p * a * x
        if any(diff.values()):
            raise InternalConsistencyError("realization violates N*Phi = p*Phi*N")
