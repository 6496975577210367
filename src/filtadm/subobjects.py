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

The concrete enumerator lists Phi,N-stable subspaces of a realization by
closing signed {0,+-1}-pattern vectors inside each generalized eigenspace
and saturating under sums, keeping one representative per relative
position against the good lattice; random-coefficient rounds re-derive
the classes and fail loudly if the pattern heuristic ever misses one.
The work runs on piece ids (`_class_keys`, which the verdict calls): the
saturated keys are grouped by class before anything is ordered, only a
class with several keys runs the tie-break, and both orders compare
integer rows, each `int_rows` row scaled by L / pivot with L the lcm of
the pivots of the keys compared.  That is L times the canonical
`Fraction` rows, so the order is theirs, and `Subobject` rows are built
only for the public list.
The closure of c*v is the closure of v for c != 0: the first step of
both stores the same primitive row with a positive pivot, and every
later step reads only that row.  So single-vector closures are memoized
per line (`StableLattice.closure`), and a random draw on a width-1
level, a multiple of the unit pattern, is a lookup.

One fact carries the concrete layer: a stable W is the direct sum of its
pieces W_lambda = W cap V_lambda.  For stable W, W' the sums W_lambda +
W'_lambda lie in the independent V_lambda, so W + W' is their direct sum
and (W + W') cap V_lambda = W_lambda + W'_lambda.  `StableLattice` interns
each piece as a small int per level, so a subspace is the tuple of its
piece ids, a sum of two subspaces is one memoized level sum per level,
and dim(E cap W) for the stable goods E, the class key, is a sum of
per-level terms memoized per piece id.  Stable subspaces enter the
library only there, born as piece ids: closures grow one level at a time
in integers, on the operators `ConcreteRealization.level_operators`
builds only when they keep the level split.  Full-width canonical rows
are built only for the subspaces that need them.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import linalg
from .linalg import Mat
from .frobenius import ConcreteRealization, ModificationEdge
from .model import GoodSubobject, ModuleSpec
from .pairs import InternalConsistencyError

__all__ = [
    "CapExceededError",
    "check_cap",
    "Subobject",
    "enumerate_good_subobjects",
    "is_stable_good",
    "stable_good_subobjects",
    "good_coords",
    "smallest_enclosing_good",
    "enumerate_concrete_subobjects",
    "random_round_subobjects",
    "StableLattice",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 8
_LATTICE_GUARD = 1500
_NONZERO_DIGITS = tuple(x for x in range(-9, 10) if x != 0)


class CapExceededError(ValueError):
    pass


def check_cap(dimension: int, cap: int) -> None:
    """Refuse work that enumerates subspaces or good subobjects of a
    module whose dimension is above `cap`."""
    if dimension > cap:
        raise CapExceededError(
            f"dimension {dimension} exceeds the enumeration cap {cap}"
        )


@dataclass(frozen=True)
class Subobject:
    """A Phi,N-stable subspace, canonically represented by RREF rows, held
    as a `linalg.CanonicalBasis`; `key` holds its piece ids in the
    `StableLattice` that produced it, when one did."""

    rows: Mat
    key: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", linalg.rref(self.rows))

    @property
    def rank(self) -> int:
        return len(self.rows)


def enumerate_good_subobjects(spec: ModuleSpec) -> tuple[GoodSubobject, ...]:
    """Every count vector in prod_i {0..b_i}, zero and the whole included."""
    ranges = [range(s.b + 1) for s in spec.summands]
    return tuple(GoodSubobject(c) for c in itertools.product(*ranges))


def is_stable_good(
    good: GoodSubobject, edges: Sequence[ModificationEdge]
) -> bool:
    return all(good.counts[e.src] <= e.alignment + good.counts[e.dst] for e in edges)


def stable_good_subobjects(
    spec: ModuleSpec, edges: Sequence[ModificationEdge] = ()
) -> tuple[GoodSubobject, ...]:
    return tuple(
        g for g in enumerate_good_subobjects(spec) if is_stable_good(g, edges)
    )


def good_coords(spec: ModuleSpec, good: GoodSubobject) -> tuple[int, ...]:
    """Basis indices of the included blocks (h = 1 block layout)."""
    coords = []
    pos = 0
    for i, s in enumerate(spec.summands):
        h = spec.family_of(i).h
        if h != 1:
            raise ValueError("coordinate layout requires h=1")
        coords.extend(range(pos, pos + good.counts[i]))
        pos += s.b
    return tuple(coords)


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

    Signs matter: two modification edges can converge on one block (an
    aligned source plus a top-matched one), and the difference stratum of
    their coefficients carries its own subobject class.  The first nonzero
    coefficient is normalized to +1 since a global sign never changes the
    span.
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
    it.  `good_sizes` and `lower_covers` give the poset of the stable
    goods that chain bounds walk.
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
        self.zero = (0,) * len(levels)
        self.goods = stable_good_subobjects(realization.spec, realization.edges)
        # per level: the distinct outside column sets (level positions) and,
        # for each good, the index of its set; and the good spans, whose
        # pieces are unit rows.  Block (i, k) lies in the good with counts c
        # iff k < c_i, so a good's split of a level is read off the
        # (summand, k) signature of the level's blocks, and each distinct
        # split is laid out once.
        self._outside: list[tuple[list[tuple[int, ...]], list[int]]] = []
        spans = []
        basis = realization.basis
        for level, coords in enumerate(levels):
            signature = [(basis[c].summand, basis[c].k) for c in coords]
            splits: dict[tuple[bool, ...], int] = {}
            which = [
                splits.setdefault(
                    tuple(k < g.counts[i] for i, k in signature), len(splits)
                )
                for g in self.goods
            ]
            units = [tuple(int(j == k) for j in coords) for k in coords]
            pids = [
                self._intern(level, tuple(u for u, ins in zip(units, split) if ins))
                for split in splits
            ]
            sets = [tuple(k for k, ins in enumerate(sp) if not ins) for sp in splits]
            self._outside.append((sets, which))
            spans.append([pids[w] for w in which])
        self.good_keys = list(zip(*spans))

    @cached_property
    def good_sizes(self) -> tuple[int, ...]:
        """dim E for every stable good E, in the order of `goods`."""
        spec = self.realization.spec
        return tuple(g.dimension(spec) for g in self.goods)

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
                w = ech.add(v)
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
                    w = ech.add_integral(image)
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

    def dim(self, key: tuple[int, ...]) -> int:
        return sum(self.level_dims(key))

    def t_n(self, key: tuple[int, ...]) -> Fraction:
        return self.realization.level_t_n(self.level_dims(key))

    def scaled_t_n(self, key: tuple[int, ...]) -> int:
        """t_N times the denominator of `ConcreteRealization.level_slopes`."""
        nums = self.realization.level_slopes[0]
        return sum(d * x for d, x in zip(self.level_dims(key), nums))

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

    def int_rows(self, key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Canonical basis of the subspace with these piece ids, as primitive
        integer rows with positive pivots."""
        n = self.realization.dimension
        out = []
        for coords, pieces, pid in zip(self.realization.levels, self._pieces, key):
            for row in pieces[pid]:
                full = [0] * n
                for c, x in zip(coords, row):
                    full[c] = x
                out.append((coords[next(k for k, x in enumerate(row) if x)], full))
        out.sort(key=operator.itemgetter(0))
        return tuple(tuple(full) for _, full in out)

    def rows(self, key: tuple[int, ...]) -> Mat:
        """Canonical basis of the subspace with these piece ids."""
        return linalg.fraction_rows(self.int_rows(key))

    def _level_terms(self, level: int, pid: int) -> tuple[int, ...]:
        terms = self._terms[level].get(pid)
        if terms is None:
            piece = self.piece(level, pid)
            sets, which = self._outside[level]
            r = len(piece)
            by_set = [
                r - linalg.rank(tuple(tuple(row[k] for k in out) for row in piece))
                if out else r
                for out in sets
            ]
            terms = self._terms[level][pid] = tuple(by_set[w] for w in which)
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
                    raise CapExceededError("subobject lattice exceeds the guard size")
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
    """Per key, its canonical rows times one integer L common to `keys`: the
    lcm of every pivot of their `int_rows`.

    A primitive row with pivot p is p times its canonical row, so scaling
    it by L / p gives L times the canonical row, in integers.  With L
    common to all keys these compare exactly as the `Fraction` rows do.
    """
    ints = [lattice.int_rows(key) for key in keys]
    heads = [[next(filter(None, row)) for row in rows] for rows in ints]
    scale = math.lcm(*(p for ps in heads for p in ps))
    return {
        key: tuple(
            row if p == scale else tuple(x * (scale // p) for x in row)
            for p, row in zip(ps, rows)
        )
        for key, rows, ps in zip(keys, ints, heads)
    }


def _class_keys(
    lattice: StableLattice, seed: int = 0, rounds: int = 5
) -> list[tuple[int, ...]]:
    """Piece ids of one representative per relative-position class of the
    stable subspaces, in the order of `enumerate_concrete_subobjects`; the
    caller checks the cap.

    The saturated keys are grouped by class (rank, `good_dims`) first.  A
    class with several keys keeps the one without negative entries, then
    with the smallest canonical rows; the representatives are sorted by
    (rank, canonical rows).  Both orders compare the integer rows of
    `_row_order`, so no `Fraction` row is built.
    """
    realization = lattice.realization
    keys = [lattice.zero, *lattice.good_keys]
    for level, coords in enumerate(realization.levels):
        keys += [lattice.closure(level, v) for v in _pattern_vectors(len(coords))]
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for key in _saturate(lattice, keys):
        classes.setdefault((lattice.dim(key), lattice.good_dims(key)), []).append(key)
    reps = {}
    for (dim, _), members in classes.items():
        if len(members) > 1:
            order = _row_order(lattice, members)
            members = [min(members, key=lambda k: (_negatives(lattice, k), order[k]))]
        reps[members[0]] = dim
    order = _row_order(lattice, list(reps))
    ranked = sorted(reps, key=lambda k: (reps[k], order[k]))
    rng = random.Random(seed)
    for _ in range(rounds):
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
    rounds: int = 5,
    lattice: StableLattice | None = None,
) -> tuple[Subobject, ...]:
    """All Phi,N-stable subspaces up to relative position, canonically sorted.

    Pattern atoms are the signed {0,+-1} vectors inside each generalized
    eigenspace, closed under Phi and N; the result is the sum-closure of
    the atoms and of the stable good spans, one representative per class
    (`_class_keys`): the one without negative entries, then with the
    smallest canonical basis, sorted by (rank, canonical basis).
    `rounds` extra passes with random nonzero coefficients must not produce
    any new relative-position class, or the pattern heuristic is declared
    broken.  Results carry their piece ids `key` in `lattice` (new if None).
    """
    check_cap(realization.dimension, cap)
    lattice = lattice or StableLattice(realization)
    return tuple(
        Subobject(lattice.rows(key), key) for key in _class_keys(lattice, seed, rounds)
    )


def random_round_subobjects(
    lattice: StableLattice, rng: random.Random
) -> list[tuple[int, ...]]:
    """Piece ids of the closures of one random nonzero-coefficient vector
    per eigenspace level."""
    out = []
    for level, coords in enumerate(lattice.realization.levels):
        # the vector of the coefficients num / den, scaled by the lcm of den
        draws = [(rng.choice(_NONZERO_DIGITS), rng.randint(1, 4)) for _ in coords]
        scale = math.lcm(*(den for _, den in draws))
        v = [num * (scale // den) for num, den in draws]
        out.append(lattice.closure(level, v))
    return out
