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
class.  Where the stable subspaces are finitely many, `StableLattice.walk`
lists every one of them, breadth first over covers, so the list is
complete by construction and nothing audits it.  Where they are
infinitely many, the walk stops at the first family of covers, and the
classes come from closing signed {0,+-1}-pattern vectors inside each
generalized eigenspace and saturating under sums; `RANDOM_ROUNDS`
random-coefficient rounds re-derive the classes there and fail loudly if
the pattern heuristic ever misses one.
The work runs on piece ids (`_class_keys`, which the verdict calls): the
keys are grouped by class before anything is ordered, only a class with
several keys runs the tie-break, and both orders compare the rows as
rationals, each entry over its row's pivot: in integers, each `int_rows`
row scaled by L / pivot with L the lcm of the pivots of the keys
compared.  `Subobject`s are built only for the public list.
The closure of c*v is the closure of v for c != 0: the first step of
both stores the same primitive row with a positive pivot, and every
later step reads only that row.  So single-vector closures are memoized
per line (`StableLattice.closure`), and a random draw on a width-1
level, a multiple of the unit pattern, is a lookup.

The walk.  On a level vector Phi-stability is E-stability, with E
nilpotent on the level and N sending it into one other level, so a
simple quotient W / U of stable subspaces is one-dimensional, lies in
one level and is killed by E and N.  The covers of a stable U are
therefore the U + <x> with x in S_lambda(U) = {x in V_lambda : Ex in
U_lambda, Nx in U_target} outside U_lambda, and every stable subspace is
reached from 0 through a composition series.  Where every
S_lambda(U) / U_lambda has dimension at most 1, the cover of U in level
lambda is U_lambda replaced by S_lambda(U): one null space per level, no
closure, no pattern and no random draw, and with at most one cover per
level and chains of length at most dim V the walk ends.  A quotient of
dimension 2 or more holds a projective line of distinct covers, so the
stable subspaces are infinitely many.  This is the distributive case of
Camillo (Distributive modules, J. Algebra 36, 1975), with the
one-dimensional level modules as the simple modules, isomorphic iff
they share a level.

One fact carries the concrete layer: a stable W is the direct sum of its
pieces W_lambda = W cap V_lambda.  For stable W, W' the sums W_lambda +
W'_lambda lie in the independent V_lambda, so W + W' is their direct sum
and (W + W') cap V_lambda = W_lambda + W'_lambda.  `StableLattice` interns
each piece as a small int per level, so a subspace is the tuple of its
piece ids, a sum of two subspaces is one memoized level sum per level,
and dim(E cap W) for the stable goods E, the class key, is a sum of
per-level terms memoized per piece id.  Stable subspaces enter the
library only there, born as piece ids: closures and the walk's covers
grow one level at a time in integers, on the operators
`ConcreteRealization.level_operators` builds only when they keep the
level split.  Full-width canonical rows
are built only for the subspaces that need them.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
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
    below,
)

__all__ = [
    "check_cap",
    "Subobject",
    "is_stable_good",
    "stable_good_subobjects",
    "smallest_enclosing_good",
    "enumerate_concrete_subobjects",
    "random_round_subobjects",
    "StableLattice",
    "DEFAULT_CAP",
    "RANDOM_ROUNDS",
]

DEFAULT_CAP = 8
# the audit rounds of an infinite lattice's class list, and the rounds of
# random candidates the verdict's search adds
RANDOM_ROUNDS = 5
_LATTICE_GUARD = 1500
_NONZERO_DIGITS = tuple(x for x in range(-9, 10) if x != 0)


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
    """Signed {0, +-1} coefficient vectors on one eigenspace level, in the
    level's own coordinates.

    The first nonzero coefficient is +1, since a global sign never changes
    the span, and the others take both signs.  What the tests show of the
    signs: on an uncoupled level of width 2 the lines off both axes form
    one class, which (1, 1) and (1, -1) each list, and dropping both loses
    it; and one module with infinitely many stable subspaces has a class
    that only a pattern with a negative entry lists.
    """
    out = []
    for size in range(1, width + 1):
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
    stable goods that chain bounds walk.  `walk` lists every stable
    subspace when there are finitely many, over the cover spans of
    `cover_span`, and otherwise records in `family` where it found
    infinitely many.
    """

    def __init__(self, realization: ConcreteRealization):
        self.realization = realization
        levels = realization.levels
        self._widths = [len(coords) for coords in levels]
        self._pieces: list[list[tuple]] = [[()] for _ in levels]
        self._ids: list[dict[tuple, int]] = [{(): 0} for _ in levels]
        self._sums: list[dict[tuple[int, int], int]] = [{} for _ in levels]
        self._terms: list[dict[int, tuple[int, ...]]] = [{} for _ in levels]
        self._lines: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
        self._good_dims: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._measures: dict[tuple[int, ...], tuple[int, int]] = {}
        self._full_rows: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
        self._form_memo: dict[tuple[int, int, int], list[list[int]]] = {}
        self._cover_spans: dict[tuple[int, int, int], int] = {}
        self._walked: list[tuple[int, ...]] | None = None
        self.family: tuple[tuple[int, ...], int, int] | None = None
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
        self._whole: list[int] = []   # per level, the piece id of V_lambda
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
            self._whole.append(self._intern(level, tuple(units)))
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
        """Piece ids of the closure of one nonzero integer vector on a level,
        memoized per line: the closure of c*v is that of v for c != 0."""
        g = math.gcd(*v)
        if next(filter(None, v)) < 0:
            g = -g
        line = (level, tuple(x // g for x in v))
        key = self._lines.get(line)
        if key is None:
            key = self._lines[line] = self.closures(((line,),))[0]
        return key

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

    def _forms(self, level: int, op: int, pid: int) -> list[list[int]]:
        """The nonzero forms A^T y on a level, for A the coupling E (op 0)
        or N (op 1) from it and y vanishing on the piece `pid` of A's
        target level; memoized per (level, op, pid)."""
        memo = (level, op, pid)
        forms = self._form_memo.get(memo)
        if forms is None:
            target, cols = self.realization.level_operators[level][op]
            forms = self._form_memo[memo] = []
            for y in linalg.kernel_rows(self._pieces[target][pid], self._widths[target]):
                f = [sum([a * y[i] for i, a in col]) for col in cols]
                if any(f):
                    forms.append(f)
        return forms

    def cover_span(self, level: int, key: tuple[int, ...]) -> int:
        """The piece id of S = {x in V_lambda : Ex in U_lambda, Nx in
        U_target} for the stable U with piece ids `key` and lambda = `level`;
        memoized per (level, U_lambda, U_target).

        S is the null space of the nonzero forms E^T y for y vanishing on
        U_lambda and N^T z for z vanishing on U_target (`_forms`).  With no
        form it is V_lambda; otherwise its dimension is width minus the
        rank of the forms, one integer echelon of them (one form has rank
        1), and only when that exceeds dim U_lambda is S read off the null
        space of the echelon (`linalg.kernel_rows`).  U + <x> is stable for
        x in S, so S / U_lambda is the lambda-part of the socle of V / U.
        Raises InternalConsistencyError unless every form vanishes on
        U_lambda, as it does for a stable U.
        """
        coupling, nmat = self.realization.level_operators[level]
        memo = (level, key[level], 0 if nmat is None else key[nmat[0]])
        pid = self._cover_spans.get(memo)
        if pid is not None:
            return pid
        forms = self._forms(level, 0, key[level]) if coupling else []
        if nmat:
            forms = forms + self._forms(level, 1, memo[2])
        piece = self._pieces[level][key[level]]
        if piece and any(sum(map(operator.mul, f, u)) for f in forms for u in piece):
            raise InternalConsistencyError(
                f"the stable subspace {key} is not inside its cover span on level {level}"
            )
        width = self._widths[level]
        pid = key[level]
        if not forms:
            pid = self._whole[level]
        elif len(forms) > 1 or len(piece) < width - 1:
            ech = linalg.Echelon(width)
            for f in forms:
                if len(ech) == width:
                    break
                ech.add(list(f))
            size = width - len(ech)
            if size > len(piece):
                span = linalg.Echelon(width, piece)
                for v in linalg.kernel_rows(ech.int_rows(), width):
                    if span.add(v) is not None and len(span) == size:
                        break
                pid = self._intern(level, span.int_rows())
        self._cover_spans[memo] = pid
        return pid

    def walk(self) -> list[tuple[int, ...]] | None:
        """Piece ids of every stable subspace when there are finitely many,
        else None; memoized.

        Breadth first from 0 over covers.  A cover of a stable U is U + <x>
        for x in `cover_span` S of one level outside U_lambda: the quotient
        is simple, so one-dimensional and killed by E and N.  Every stable
        subspace is reached from 0 through a composition series.  Where
        dim S / U_lambda = 1 the cover in that level is unique, U_lambda
        replaced by S; where it is 2 or more, every line of S / U_lambda
        gives its own cover, so the lattice is infinite: the walk stops and
        records (U, level, dim S / U_lambda) in `family`.  Raises
        CapExceededError past `_LATTICE_GUARD` subspaces.
        """
        if self._walked is not None or self.family is not None:
            return self._walked
        pieces = self._pieces
        spans = self._cover_spans
        targets = [nmat[0] if nmat else None for _, nmat in self.realization.level_operators]
        nodes = [self.zero]
        seen = {self.zero}
        steps = []   # (cover, U, level, its piece in the cover, in U)
        for key in nodes:
            for level, target in enumerate(targets):
                # the memo lookup of `cover_span`, inlined
                own = key[level]
                pid = spans.get((level, own, 0 if target is None else key[target]))
                if pid is None:
                    pid = self.cover_span(level, key)
                if pid == own:
                    continue
                grow = len(pieces[level][pid]) - len(pieces[level][own])
                if grow > 1:
                    self.family = (key, level, grow)
                    return None
                cover = key[:level] + (pid,) + key[level + 1:]
                if cover not in seen:
                    seen.add(cover)
                    nodes.append(cover)
                    steps.append((cover, key, level, pid, own))
                    if len(nodes) > _LATTICE_GUARD:
                        raise CapExceededError(
                            "subobject lattice exceeds the guard size of "
                            f"{_LATTICE_GUARD} subspaces"
                        )
        # a cover differs from U on one level, so its `dim`, `scaled_t_n`
        # and `good_dims` are U's plus that level's change; U comes first
        nums = self.realization.level_slopes[0]
        measures, good_dims, terms = self._measures, self._good_dims, self._level_terms
        measures[self.zero] = (0, 0)
        good_dims[self.zero] = (0,) * len(self.goods)
        for cover, key, level, pid, own in steps:
            dim, scaled = measures[key]
            measures[cover] = (dim + 1, scaled + nums[level])
            good_dims[cover] = tuple(map(
                operator.add, good_dims[key],
                map(operator.sub, terms(level, pid), terms(level, own)),
            ))
        self._walked = nodes
        return nodes

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
    lattice: StableLattice, keys: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Close a set of stable subspaces, given by piece ids, under sums.

    The generators join one at a time, S <- S + {s + g : s in S} + {g}, and
    S stays closed under sums since g + g = g; a generator already in S
    adds nothing.
    """
    keys = dict.fromkeys(keys)
    subs = dict.fromkeys(key for key in keys if not any(key))
    add = lattice.add
    for g in keys:
        if g in subs:
            continue
        for key in [g, *(add(s, g) for s in subs)]:
            if key not in subs:
                subs[key] = None
                if len(subs) > _LATTICE_GUARD:
                    raise CapExceededError(
                        "subobject lattice exceeds the guard size of "
                        f"{_LATTICE_GUARD} subspaces"
                    )
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


def _class_keys(lattice: StableLattice, seed: int = 0) -> list[tuple[int, ...]]:
    """Piece ids of one representative per relative-position class of the
    stable subspaces, in the order of `enumerate_concrete_subobjects`; the
    caller checks the cap.

    The keys are the walk's on a finite lattice, and on an infinite one
    the pattern route's, audited by `RANDOM_ROUNDS` random rounds drawn
    from `seed`.  They are grouped by class (rank, `good_dims`) first.  A
    class with several keys keeps the one without negative entries, then
    with the smallest rows; the representatives are sorted by (rank, rows),
    and rows are built only where ranks tie.  Both orders compare the rows
    over their pivots, as the integers of `_row_order`.
    """
    keys = lattice.walk()
    audit = keys is None
    if audit:
        keys = [lattice.zero, *lattice.good_keys]
        for level, coords in enumerate(lattice.realization.levels):
            keys += [lattice.closure(level, v) for v in _pattern_vectors(len(coords))]
        keys = _saturate(lattice, keys)
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for key in keys:
        classes.setdefault((lattice.dim(key), lattice.good_dims(key)), []).append(key)
    by_dim: dict[int, list[tuple[int, ...]]] = {}
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
    rng = random.Random(seed)
    for _ in range(RANDOM_ROUNDS if audit else 0):
        for key in random_round_subobjects(lattice, rng):
            if (lattice.dim(key), lattice.good_dims(key)) not in classes:
                raise InternalConsistencyError(
                    "random-coefficient round found a new subobject class"
                )
    return ranked


def enumerate_concrete_subobjects(
    realization: ConcreteRealization,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    lattice: StableLattice | None = None,
) -> tuple[Subobject, ...]:
    """All Phi,N-stable subspaces up to relative position, canonically sorted.

    When the stable subspaces are finitely many, they are the subspaces of
    the walk over covers (`StableLattice.walk`), every one of them, and
    `seed` goes unused.  Otherwise pattern atoms are the signed {0,+-1}
    vectors inside each generalized eigenspace, closed under Phi and N,
    the subspaces are the sum-closure of the atoms and of the stable good
    spans, and `RANDOM_ROUNDS` passes with random nonzero coefficients,
    drawn from `seed`, must not produce any new relative-position class,
    or the pattern heuristic is declared broken.  Either way one
    representative per class is kept (`_class_keys`): the one without
    negative entries, then with the smallest canonical rows, sorted by
    (rank, canonical rows), rows compared over their pivots.  Results hold
    their canonical rows and their piece ids `key` in `lattice` (new if
    None).
    """
    check_cap(realization.dimension, cap)
    lattice = lattice or StableLattice(realization)
    return tuple(
        Subobject(lattice.int_rows(key), key) for key in _class_keys(lattice, seed)
    )


def random_round_subobjects(
    lattice: StableLattice, rng: random.Random
) -> list[tuple[int, ...]]:
    """Piece ids of the closures of one random nonzero-coefficient vector
    per eigenspace level."""
    bits = rng.getrandbits
    out = []
    for level, coords in enumerate(lattice.realization.levels):
        # the vector of the coefficients num / den, scaled by the lcm of den;
        # num is choice(_NONZERO_DIGITS) and den randint(1, 4)
        draws = [
            (_NONZERO_DIGITS[below(bits, len(_NONZERO_DIGITS))], 1 + below(bits, 4))
            for _ in coords
        ]
        scale = math.lcm(*(den for _, den in draws))
        v = [num * (scale // den) for num, den in draws]
        out.append(lattice.closure(level, v))
    return out
