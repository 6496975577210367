"""Good subobjects, their stable lattice, and the concrete enumeration.

Good subobjects are bottom-aligned block selections (one count per
summand).  Under a Frobenius modification only the selections compatible
with every edge remain honest submodules: an edge (src -> dst, alignment l)
forces c_src <= l + c_dst.  A subspace D' meets the stable goods in its
intersection profile, the mapping from each stable good E to
dim(E cap D'), with rank D' the entry of the whole module:
`StableLattice.profile` gives it for a stable subspace, and
`smallest_enclosing_good` reads the witness's enclosing good off it.  The
paper's greedy flags, their index sets and the special pairs read off
them are built from the same profile by the test oracles
(`tests/oracles.py`); the verdict bounds t_H by chain certificates over
`StableLattice.lower_covers` instead.

The concrete enumerator lists the Phi,N-stable subspaces of a realization
up to relative position against the good lattice, one representative per
class.  Where every level is a chain (`ConcreteRealization.uniserial`),
the stable subspaces are exactly the stable good spans (the theorem
below), each its own class, so the list is `StableLattice.good_keys`,
complete by theorem.  Otherwise they are infinitely many, and the classes
come from closing signed {0,+-1}-pattern vectors with two or more nonzero
entries inside each generalized eigenspace and saturating them under
sums, from the stable good spans, which are closed under sums already.
By the merge lemma below that list holds the class of the closure of
every vector on a level whose merges are pairs, and `_check_merges`
refuses any other level with a ValueError.  Nothing is drawn at random,
so the list is a function of the realization alone.
The work runs on piece ids (`_class_keys`, which the verdict calls): a
stable good span is its own class, the other keys are grouped by class
before anything is ordered, only a class with several keys runs the
tie-break, and both orders compare the rows as
rationals, each entry over its row's pivot: in integers, each `int_rows`
row scaled by L / pivot with L the lcm of the pivots of the keys
compared.  `Subobject`s are built only for the public list.

Finitely many stable subspaces, by theorem.  Call a level a chain when
the coupling E sends each of its basis vectors to a multiple of another
or to 0, along one chain through all of them: rank E|lambda = width - 1
with E nilpotent on the level, as `frobenius.realize_matrices` makes it
(`ConcreteRealization.uniserial` tests every level; a width-1 level is a
chain).

- If every level is a chain, the stable subspaces are exactly the
  stable good spans.  A stable W is the direct sum of its pieces
  W_lambda (below), and on a level Phi-stability is E-stability.  The
  E-stable subspaces of a chain are its kernel flag, ker E^k spanned by
  the last k basis vectors of the chain, so every W_lambda, and W, is
  spanned by blocks.  N e_(i,k) = e_(i,k-1), so that set of blocks is
  bottom-aligned in each summand: W is the span of a good, and Phi keeps
  it, so a stable one.  Every stable good span is stable in turn.
- If some level lambda = (F, t) holds two chains, there are infinitely
  many stable subspaces.  Let U be the span of every block of another
  family, or of F with twist below t: E keeps each level and N lowers
  the twist by one, so U is stable, and so is U + <x> for every x in
  ker E|lambda, since Ex = 0 and Nx lies in U.  E is nilpotent on the
  level and its rank is at most width - 2, so that kernel has dimension
  at least 2 and holds infinitely many lines.

This is the distributive case of Camillo (Distributive modules, J.
Algebra 36, 1975), with the one-dimensional level modules as the simple
modules, isomorphic iff they share a level: a chain is uniserial, and
the all-chains module has a lattice of length n whose join-irreducibles
are the n goods generated by one block each.  So the verdict reads an
all-chains realization's class list off its scan of the stable goods,
and builds a `StableLattice` only where the lattice is infinite.

The merge lemma: every single-vector closure has a listed class.

- E and N send each block to one block with coefficient 1, or to 0, as
  `frobenius.realize_matrices` builds them (`_check_merges` checks E).
  EN = NE, which follows from N Phi = p Phi N with Phi = lambda (1 + E)
  on each level.
- Fix x on a level lambda.  Its closure W has the piece span{E^b N^a x :
  b >= 0} on the level lambda - a, and no other piece.
- A stable good G is E-stable, so on each level the blocks outside G
  form a set O that E^-1 keeps, and pi_O E = E_O pi_O for the projection
  pi_O onto O and E_O = pi_O E on it.  Hence dim(G cap W) on lambda - a is
  dim W_(lambda-a) minus the Krylov dimension of pi_O N^a x under the
  nilpotent E_O, which is the least b with E_O^b pi_O N^a x = 0; with O
  every block of the level, that is dim W_(lambda-a).
- The entry of E^b N^a x at a block v is sigma_P(x) = sum of x_u over u
  in P, the set of blocks of lambda that E^b N^a sends to v, and E_O^b
  agrees with E^b on O.  So rank, t_N and every dim(G cap W), the class
  of W, depend only on which sigma_P(x) vanish.  Call a P with two or
  more blocks a merge.
- N^a is injective on the blocks it does not kill and E^b N^a = N^a E^b,
  so every merge is a set of blocks of lambda that E^b sends to one
  block.  These sets are nested or disjoint, since E^b u = E^b u' gives
  E^(b+1) u = E^(b+1) u'.  So where every merge of lambda is a pair, no
  two pairs share a block, and every zero pattern of the sigma_P is that
  of a {0, +-1} vector: 1 on the support of x, and -1 on one block of each
  pair that x cancels.  With its first nonzero entry +1 that vector is a
  `_pattern_vectors` entry or a unit vector, whose closure is a stable
  good span.  On such a level the list holds the class of every
  single-vector closure, by proof, and nothing is left to audit.
- Chain levels, split levels (their blocks in distinct components of the
  undirected edge graph, which E and N never leave) and every level of a
  realization without edges have no merge at all.  Where a merge holds
  three blocks the list is provably incomplete: for four copies of F(0)
  with edges 0 -> 3, 1 -> 3 and 2 -> 3, no {0, +-1} vector has x0 + x1 +
  x2 = 0 with all three entries nonzero, so the class of the closure of
  (1, 1, -2, 0) is never listed.  `_check_merges` refuses such a level.
  The tests find none on any modified one-family spec of three or more
  summands, offsets 0-5, lengths 1-6 and dimension <= 8, and none in the
  benchmark streams: only edges set by hand have reached the refusal.
- The lemma is about one vector on one level.  That the saturation under
  sums lists the class of every sum of such closures is checked by the
  tests, not proved.

One fact carries the concrete layer: a stable W is the direct sum of its
pieces W_lambda = W cap V_lambda.  For stable W, W' the sums W_lambda +
W'_lambda lie in the independent V_lambda, so W + W' is their direct sum
and (W + W') cap V_lambda = W_lambda + W'_lambda.  `StableLattice` interns
each piece as a small int per level, so a subspace is the tuple of its
piece ids, a sum of two subspaces is one memoized level sum per level,
and dim(E cap W) for the stable goods E, the class key, is a sum of
per-level terms memoized per piece id.  Stable subspaces enter the
library only there, born as piece ids: closures grow one level at a
time in integers, on the operators `ConcreteRealization.level_operators`
builds only when they keep the level split.  Full-width canonical rows
are built only for the subspaces that need them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import linalg
from .frobenius import ConcreteRealization, ModificationEdge
from .model import (
    CapExceededError,
    GoodSubobject,
    InternalConsistencyError,
    ModuleSpec,
)

__all__ = [
    "check_cap",
    "check_guard",
    "Subobject",
    "is_stable_good",
    "stable_good_subobjects",
    "smallest_enclosing_good",
    "enumerate_concrete_subobjects",
    "StableLattice",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 8
_LATTICE_GUARD = 1500


def check_guard(count: int) -> None:
    """Refuse a list of more than `_LATTICE_GUARD` stable subspaces."""
    if count > _LATTICE_GUARD:
        raise CapExceededError(
            f"subobject lattice exceeds the guard size of {_LATTICE_GUARD} subspaces"
        )


def check_cap(dimension: int, cap: int) -> None:
    """Refuse work that enumerates subspaces or good subobjects of a
    module whose dimension is above `cap`."""
    if dimension > cap:
        raise CapExceededError(
            f"dimension {dimension} exceeds the enumeration cap {cap}"
        )


@dataclass(frozen=True)
class Subobject:
    """A Phi,N-stable subspace, held as its canonical rows (`rows`, as
    `StableLattice.int_rows` gives them); `key` holds its piece ids in the
    `StableLattice` that produced it, when one did."""

    rows: tuple[tuple[int, ...], ...]
    key: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.rows)


def is_stable_good(
    good: GoodSubobject, edges: Sequence[ModificationEdge]
) -> bool:
    return all(good.counts[e.src] <= e.alignment + good.counts[e.dst] for e in edges)


def stable_good_subobjects(
    spec: ModuleSpec, edges: Sequence[ModificationEdge] = ()
) -> tuple[GoodSubobject, ...]:
    return tuple(g for g in spec.goods if is_stable_good(g, edges))


def _full(spec: ModuleSpec) -> GoodSubobject:
    return GoodSubobject(tuple(s.b for s in spec.summands))


def smallest_enclosing_good(
    spec: ModuleSpec, profile: Mapping[GoodSubobject, int]
) -> GoodSubobject:
    """The smallest stable good containing D'.

    The stable goods E with dim(E cap D') = rank D' are closed under
    componentwise minimum (the intersection of two goods), so that minimum
    over all of them is the unique smallest one.
    """
    full = _full(spec)
    rank = profile[full]
    counts = full.counts
    for g, inter in profile.items():
        if inter == rank:
            counts = tuple(map(min, counts, g.counts))
    return GoodSubobject(counts)


# ---------------------------------------------------------------------------
# concrete enumeration
# ---------------------------------------------------------------------------


def _pattern_vectors(width: int) -> list[tuple[int, ...]]:
    """Signed {0, +-1} coefficient vectors with at least two nonzero
    entries on one eigenspace level, in the level's own coordinates.

    A unit vector is not a pattern: E and N send blocks to multiples of
    blocks, so the closure of one block is spanned by blocks and closed
    under N, a stable good span that `good_keys` already lists.  The
    first nonzero coefficient is +1, since a global sign never changes
    the span, and the others take both signs.  By the merge lemma of the
    module docstring these vectors and the unit vectors realize every
    zero pattern a single vector can have on a level whose merges are
    pairs, so their closures hold every class of a single-vector closure
    there.  What the tests show of the signs: on an uncoupled level of
    width 2 the lines off both axes form one class, which (1, 1) and
    (1, -1) each list, and dropping both loses it; and one module with
    infinitely many stable subspaces has a class that only a pattern with
    a negative entry lists.
    """
    out = []
    for size in range(2, width + 1):
        for subset in itertools.combinations(range(width), size):
            for signs in itertools.product((1, -1), repeat=size - 1):
                row = [0] * width
                row[subset[0]] = 1
                for i, s in zip(subset[1:], signs):
                    row[i] = s
                out.append(tuple(row))
    return out


class StableLattice:
    """The level pieces of the stable subspaces of one realization,
    interned as small ints per level (id 0 is the zero piece of every
    level), and its stable goods `goods` laid out level by level.

    A piece is its canonical basis in the level's coordinates, as
    primitive integer rows with positive pivots (`Echelon.int_rows`).
    `closures` and the good spans `good_keys` are born as piece ids.  The
    canonical basis of a subspace is assembled from its pieces: the level
    rows, embedded and sorted by pivot, are already in reduced row echelon
    form, because levels occupy disjoint columns and keep their order.  The
    term of a piece for a good E is len(piece) minus its rank on the level
    columns outside E; goods with the same outside columns on a level share
    it.  The stable goods are read off the spec's good table
    (`ModuleSpec.goods`), the one transversality reads too; with their
    dimensions `good_sizes` and `lower_covers` they give the poset of the
    stable goods that the chain bounds run over.
    """

    def __init__(self, realization: ConcreteRealization):
        self.realization = realization
        levels = realization.levels
        self._widths = [len(coords) for coords in levels]
        self._pieces: list[list[tuple]] = [[()] for _ in levels]
        self._ids: list[dict[tuple, int]] = [{(): 0} for _ in levels]
        self._sums: list[dict[tuple[int, int], int]] = [{} for _ in levels]
        self._terms: list[dict[int, tuple[int, ...]]] = [{} for _ in levels]
        self._good_dims: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._measures: dict[tuple[int, ...], tuple[int, int]] = {}
        self._full_rows: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
        self.zero = (0,) * len(levels)
        self.goods = stable_good_subobjects(realization.spec, realization.edges)
        # every block has dimension 1 (h = 1), so dim E is the sum of counts
        self.good_sizes = tuple(sum(g.counts) for g in self.goods)
        # per level: the distinct outside column sets (level positions) and,
        # for each good, the index of its set; and the good spans, whose
        # pieces are unit rows.  Block (i, k) lies in the good with counts c
        # iff k < c_i, so a good's split of a level is read off the
        # (summand, k) signature of the level's blocks, one column of counts
        # per summand, and each distinct split is laid out once.
        self._outside: list[tuple[list[tuple[int, ...]], list[int]]] = []
        spans = []
        basis = realization.basis
        counts = list(zip(*(g.counts for g in self.goods)))
        for level, coords in enumerate(levels):
            inside = list(zip(*(
                map(basis[c].k.__lt__, counts[basis[c].summand]) for c in coords
            )))
            splits = {split: w for w, split in enumerate(dict.fromkeys(inside))}
            which = list(map(splits.__getitem__, inside))
            units = [tuple(int(j == k) for j in coords) for k in coords]
            pids = [
                self._intern(level, tuple(u for u, ins in zip(units, split) if ins))
                for split in splits
            ]
            sets = [tuple(k for k, ins in enumerate(sp) if not ins) for sp in splits]
            self._outside.append((sets, which))
            spans.append(list(map(pids.__getitem__, which)))
        self.good_keys = list(zip(*spans))

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """For every stable good, the indices in `goods` of the stable goods
        it covers: those below it with no stable good in between.

        The stable goods are closed under componentwise minimum, so above a
        good E the smallest stable good with one more block of summand i
        exists: raise c_i by one, then raise c_dst to c_src - l along every
        violated edge until none is.  Every good above E lies above one of
        these, so the goods E is covered by are the minimal ones among
        them.  `goods` is in lexicographic order, which extends
        containment, so every index here is below the good's own.
        """
        goods = self.goods
        index = {g.counts: k for k, g in enumerate(goods)}
        edges = self.realization.edges
        tops = [s.b for s in self.realization.spec.summands]
        lower: list[list[int]] = [[] for _ in goods]
        for k, good in enumerate(goods):
            ups = set()
            for i, top in enumerate(tops):
                if good.counts[i] == top:
                    continue
                c = list(good.counts)
                c[i] += 1
                grew = True
                while grew:
                    grew = False
                    for e in edges:
                        if c[e.src] > e.alignment + c[e.dst]:
                            c[e.dst] = c[e.src] - e.alignment
                            grew = True
                ups.add(tuple(c))
            for up in ups:
                if not any(v != up and all(map(operator.le, v, up)) for v in ups):
                    lower[index[up]].append(k)
        return tuple(map(tuple, lower))

    def _intern(self, level: int, piece: tuple) -> int:
        ids = self._ids[level]
        pid = ids.get(piece)
        if pid is None:
            pid = ids[piece] = len(ids)
            self._pieces[level].append(piece)
        return pid

    def closures(self, groups: Iterable[Iterable[tuple[int, Sequence]]]) -> list[tuple]:
        """Piece ids of the smallest Phi,N-stable subspaces containing the
        vectors of the first 1, 2, ... of `groups`, each given as (level,
        entries in the level's coordinates).

        On level vectors Phi-stability is E-stability, so one integer
        echelon per level reached grows under E and N (`level_operators`):
        each row that extends it is queued once and only images of queued
        rows are reduced; the levels that grew are read out after a group.
        """
        ops = self.realization.level_operators
        echs: dict[int, linalg.Echelon] = {}
        key = list(self.zero)
        out = []
        for vectors in groups:
            queue = []
            for level, v in vectors:
                ech = echs.get(level)
                if ech is None:
                    ech = echs[level] = linalg.Echelon(self._widths[level])
                w = ech.add(list(v))
                if w is not None:
                    queue.append((level, w))
            grown = {level for level, _ in queue}
            while queue:
                level, v = queue.pop()
                for target, cols in filter(None, ops[level]):
                    ech = echs.get(target)
                    if ech is None:
                        ech = echs[target] = linalg.Echelon(self._widths[target])
                    elif len(ech) == ech.ncols:
                        continue
                    image = [0] * ech.ncols
                    for x, col in zip(v, cols):
                        if x:
                            for i, a in col:
                                image[i] += a * x
                    w = ech.add(image)
                    if w is not None:
                        grown.add(target)
                        queue.append((target, w))
            for level in grown:
                key[level] = self._intern(level, echs[level].int_rows())
            out.append(tuple(key))
        return out

    def closure(self, level: int, v: Sequence[int]) -> tuple[int, ...]:
        """Piece ids of the closure of one nonzero integer vector on a level."""
        return self.closures([[(level, v)]])[0]

    def piece(self, level: int, pid: int) -> tuple:
        """Canonical integer basis of a piece, in the level's own coordinates."""
        return self._pieces[level][pid]

    def level_dims(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """dim(W cap V_lambda) per level, where W has the piece ids `key`."""
        return tuple(len(pieces[pid]) for pieces, pid in zip(self._pieces, key))

    def _measure(self, key: tuple[int, ...]) -> tuple[int, int]:
        """(`dim`, `scaled_t_n`) of a key, memoized per key."""
        out = self._measures.get(key)
        if out is None:
            dims = self.level_dims(key)
            nums = self.realization.level_slopes[0]
            out = self._measures[key] = (sum(dims), sum(map(operator.mul, dims, nums)))
        return out

    def dim(self, key: tuple[int, ...]) -> int:
        return self._measure(key)[0]

    def scaled_t_n(self, key: tuple[int, ...]) -> int:
        """t_N times the denominator of `ConcreteRealization.level_slopes`."""
        return self._measure(key)[1]

    def _level_sum(self, level: int, i: int, j: int) -> int:
        if i == j or not j:
            return i
        if not i:
            return j
        if i > j:
            i, j = j, i
        sums = self._sums[level]
        pid = sums.get((i, j))
        if pid is None:
            pieces = self._pieces[level]
            rows = linalg.span_sum(pieces[i], pieces[j])
            pid = i if rows is pieces[i] else self._intern(level, rows)
            sums[(i, j)] = pid
        return pid

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Piece ids of the sum of two stable subspaces."""
        return tuple(map(self._level_sum, range(len(a)), a, b))

    def _pivot_rows(self, key: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """(pivot column, row) for the rows of `int_rows`, in their order;
        each piece's full-width rows are built once per piece id."""
        out = []
        for level, pid in enumerate(key):
            if pid:
                rows = self._full_rows.get((level, pid))
                if rows is None:
                    n = self.realization.dimension
                    coords = self.realization.levels[level]
                    rows = []
                    for row in self._pieces[level][pid]:
                        full = [0] * n
                        for c, x in zip(coords, row):
                            full[c] = x
                        rows.append((coords[next(k for k, x in enumerate(row) if x)], tuple(full)))
                    self._full_rows[(level, pid)] = rows
                out += rows
        # pivots are distinct, so the sort never compares rows
        out.sort()
        return out

    def int_rows(self, key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Canonical basis of the subspace with these piece ids, as primitive
        integer rows with positive pivots: the embedded piece rows sorted by
        pivot, already reduced since levels occupy disjoint columns."""
        return tuple(row for _, row in self._pivot_rows(key))

    def _level_terms(self, level: int, pid: int) -> tuple[int, ...]:
        terms = self._terms[level].get(pid)
        if terms is None:
            piece = self.piece(level, pid)
            sets, which = self._outside[level]
            r = len(piece)
            if r == 1:
                # one row has rank 1 on the outside columns iff it is nonzero there
                row = piece[0]
                by_set = [1 - any([row[k] for k in out]) for out in sets]
            else:
                by_set = [
                    r - linalg.rank(tuple(tuple(row[k] for k in out) for row in piece))
                    if out and r else r
                    for out in sets
                ]
            terms = self._terms[level][pid] = tuple(map(by_set.__getitem__, which))
        return terms

    def good_dims(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """dim(E cap W) for every stable good E, in the order of `goods`,
        where W has the piece ids `key`; memoized per key."""
        dims = self._good_dims.get(key)
        if dims is None:
            parts = [
                self._level_terms(level, pid) for level, pid in enumerate(key) if pid
            ]
            dims = tuple(map(sum, zip(*parts))) if parts else (0,) * len(self.goods)
            self._good_dims[key] = dims
        return dims

    def profile(self, key: tuple[int, ...]) -> dict[GoodSubobject, int]:
        """The intersection profile of the subspace with the piece ids
        `key`: `good_dims` keyed by the stable goods."""
        return dict(zip(self.goods, self.good_dims(key)))


def _saturate(
    lattice: StableLattice,
    keys: Iterable[tuple[int, ...]],
    closed: Iterable[tuple[int, ...]] = (),
) -> list[tuple[int, ...]]:
    """Close a set of stable subspaces, given by piece ids, under sums.

    S starts as `closed`, a set already closed under sums, and the zero
    subspace if `keys` holds it.  The generators `keys` join one at a
    time, S <- S + {s + g : s in S} + {g}, and S stays closed under sums
    since g + g = g; a generator already in S adds nothing.  So a closed
    set gives the same key set as a seed as among the generators, and
    either way the guard refuses iff that set passes it, as S only grows.
    """
    keys = dict.fromkeys(keys)
    subs = dict.fromkeys(itertools.chain(closed, (key for key in keys if not any(key))))
    check_guard(len(subs))
    add = lattice.add
    for g in keys:
        if g in subs:
            continue
        for key in [g, *(add(s, g) for s in subs)]:
            if key not in subs:
                subs[key] = None
                check_guard(len(subs))
    return list(subs)


def _negatives(lattice: StableLattice, key: tuple[int, ...]) -> int:
    """The negative entries of the canonical integer rows of `key`, which
    are those of its canonical rows."""
    return sum(
        x < 0 for level, pid in enumerate(key)
        for row in lattice.piece(level, pid) for x in row
    )


def _row_order(
    lattice: StableLattice, keys: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per key, its rows over their pivots times one integer L common to
    `keys`: the lcm of every pivot of their `int_rows`.

    Scaling a row with pivot p by L / p gives L times the row over its
    pivot, in integers.  With L common to all keys these compare exactly
    as the rows over their pivots do, as rationals.
    """
    ints = [lattice._pivot_rows(key) for key in keys]
    scale = math.lcm(*(row[c] for rows in ints for c, row in rows))
    return {
        key: tuple(
            row if row[c] == scale else tuple(x * (scale // row[c]) for x in row)
            for c, row in rows
        )
        for key, rows in zip(keys, ints)
    }


def _check_merges(realization: ConcreteRealization) -> None:
    """Raise ValueError naming the first level where some power of the
    coupling E sends three or more of its blocks to one block: a merge the
    pattern list does not cover (the merge lemma of the module docstring).

    The sets E^b sends to one block are nested or disjoint, so where none
    holds three blocks every merge is a pair and no two pairs share one.
    A coupling column that is not one block with coefficient 1 breaks the
    lemma's premise and raises InternalConsistencyError.  E is nilpotent
    on a level of width w (`frobenius.realize_matrices`), so E^w = 0 and w
    powers are all there are.
    """
    basis = realization.basis
    for level, (coords, (coupling, _)) in enumerate(
        zip(realization.levels, realization.level_operators)
    ):
        if coupling is None:
            continue
        cols = coupling[1]
        if any(col and (len(col) > 1 or col[0][1] != 1) for col in cols):
            raise InternalConsistencyError(
                f"the coupling sends a block of level {level} to no single block"
            )
        step = [col[0][0] if col else None for col in cols]
        # block -> its image under E^b, for the blocks E^b does not kill
        image = {u: v for u, v in enumerate(step) if v is not None}
        for b in range(1, len(coords)):
            sets: dict[int, list[int]] = {}
            for u, v in image.items():
                sets.setdefault(v, []).append(u)
            for merged in sets.values():
                if len(merged) > 2:
                    top = basis[coords[0]]
                    blocks = [(basis[coords[u]].summand, basis[coords[u]].k) for u in merged]
                    raise ValueError(
                        f"level {level} ({top.family.id}, twist {top.twist}): E^{b} "
                        f"sends the blocks (summand, k) {blocks} to one block; the "
                        "class list covers only merges of two blocks"
                    )
            image = {u: step[v] for u, v in image.items() if step[v] is not None}


def _class_keys(lattice: StableLattice) -> list[tuple[int, ...]]:
    """Piece ids of one representative per relative-position class of the
    stable subspaces, in the order of `enumerate_concrete_subobjects`; the
    caller checks the cap.

    The keys are the stable good spans `good_keys` where every level is a
    chain, refused past `_LATTICE_GUARD`, and otherwise the pattern
    route's, on a realization `_check_merges` accepts.  A good's class
    holds the good alone: if dim(G cap W) = dim G = dim W, then W = G.  So
    only the other keys are grouped by class (rank, `good_dims`), and no
    good's `good_dims` is read.  A class with several keys keeps the one
    without negative entries, then with the smallest rows; the
    representatives are sorted by (rank, rows), and rows are built only
    where ranks tie.  Both orders compare the rows over their pivots, as
    the integers of `_row_order`.  Neither reads the order of the keys.

    On the pattern route the stable good spans, zero included, seed the
    saturation (`_saturate`): they are closed under sums, since the
    componentwise max of two stable count vectors is stable, and only the
    pattern closures join as generators.
    """
    realization = lattice.realization
    goods = lattice.good_keys
    if realization.uniserial:
        # every stable subspace, by the theorem of the module docstring
        keys = goods
        check_guard(len(keys))
    else:
        _check_merges(realization)
        patterns = [
            lattice.closure(level, v)
            for level, coords in enumerate(realization.levels)
            for v in _pattern_vectors(len(coords))
        ]
        keys = _saturate(lattice, patterns, goods)
    good_set = set(goods)
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for key in keys:
        if key in good_set:
            by_dim.setdefault(lattice.dim(key), []).append(key)
        else:
            classes.setdefault((lattice.dim(key), lattice.good_dims(key)), []).append(key)
    for (dim, _), members in classes.items():
        if len(members) > 1:
            order = _row_order(lattice, members)
            members = [min(members, key=lambda k: (_negatives(lattice, k), order[k]))]
        by_dim.setdefault(dim, []).append(members[0])
    ranked = []
    for dim in sorted(by_dim):
        reps = by_dim[dim]
        if len(reps) > 1:
            reps.sort(key=_row_order(lattice, reps).__getitem__)
        ranked += reps
    return ranked


def enumerate_concrete_subobjects(
    realization: ConcreteRealization,
    cap: int = DEFAULT_CAP,
    lattice: StableLattice | None = None,
) -> tuple[Subobject, ...]:
    """All Phi,N-stable subspaces up to relative position, canonically sorted.

    Where every level is a chain (`ConcreteRealization.uniserial`), the
    stable subspaces are exactly the stable good spans, every one of them
    listed.  Otherwise pattern atoms are the signed {0,+-1} vectors with
    two or more nonzero entries inside each generalized eigenspace, closed
    under Phi and N, and the subspaces are the sum-closure of the atoms and
    of the stable good spans; a level where some power of E sends three or
    more blocks to one, whose classes the patterns miss, raises ValueError
    (`_check_merges`).  Either way one representative per class is kept
    (`_class_keys`): the one without negative entries, then with the
    smallest canonical rows, sorted by (rank, canonical rows), rows
    compared over their pivots.  Results hold their canonical rows and
    their piece ids `key` in `lattice` (new if None).
    """
    check_cap(realization.dimension, cap)
    lattice = lattice or StableLattice(realization)
    return tuple(
        Subobject(lattice.int_rows(key), key) for key in _class_keys(lattice)
    )
