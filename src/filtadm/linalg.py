"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row vectors.  A
subspace is identified with its row space and represented canonically by
the reduced row echelon form of any spanning set, so two subspaces are
equal iff their canonical matrices are equal as tuples.

Two kernels do the elimination.  `rank` scales rows to integers and runs
fraction-free integer elimination; it serves dimension counts on dense
rows such as sampled filtration bases.  Every canonical basis (`rref`,
`span_sum`, `intersect_coords`, `closure_under`) comes from `Echelon`, a
pivot-indexed echelon basis that grows one vector at a time: a new vector
is reduced against the existing pivots in ascending order, zero entries
are skipped, and back-substitution runs once, when the canonical rows are
read out.  Already reduced input therefore costs only zero tests, and
`rref` returns input that it verifies to be a canonical tuple as it is.
The size of an `Echelon` and its rows pivoting at or after a column are
read out without back-substitution; intersection dimensions on the
verify path come from these.

`closure_under` grows the smallest subspace stable under operators given
as sparse columns through nested groups of generators, one canonical
basis per group.  The determinant, characteristic polynomial and p-adic
valuation are not here: only the tests use them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int, m: int) -> Mat:
    return tuple(tuple(ZERO for _ in range(m)) for _ in range(n))


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _int_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for r in rows:
        den = 1
        for x in r:
            d = x.denominator
            den = den * d // math.gcd(den, d)
        row = [int(x.numerator * (den // x.denominator)) for x in r]
        if any(row):
            g = 0
            for v in row:
                g = math.gcd(g, v)
            if g > 1:
                row = [v // g for v in row]
            out.append(row)
    return out


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank via fraction-free Gaussian elimination on integer-scaled rows."""
    work = _int_rows(rows)
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(r + 1, len(work)):
            q = work[i][c]
            if q:
                row = work[i]
                work[i] = [p * a - q * b for a, b in zip(row, prow)]
        r += 1
        if r == len(work):
            break
    return r


class Echelon:
    """Echelon basis of a growing subspace of Q^ncols, indexed by pivot.

    The row stored at pivot c has a 1 at c and zeros before it, so reducing
    a vector against the pivots in ascending order clears every pivot
    column of it.  Rows are kept together with the columns after the pivot
    where they are nonzero, and only those entries are touched.
    """

    __slots__ = ("ncols", "_pivots", "_rows")

    def __init__(self, ncols: int, canonical: Mat = ()):
        self.ncols = ncols
        self._pivots: list[int] = []
        self._rows: dict[int, tuple[list[Fraction], list[int]]] = {}
        for row in canonical:
            for c, x in enumerate(row):
                if x:
                    self._store(c, list(row))
                    break

    def _store(self, c: int, row: list[Fraction]) -> None:
        insort(self._pivots, c)
        self._rows[c] = (row, [j for j in range(c + 1, self.ncols) if row[j]])

    def add(self, v: Sequence[Fraction]) -> list[Fraction] | None:
        """Extend the basis by `v`; the new row, or None if `v` was in it."""
        w = list(v)
        rows = self._rows
        for c in self._pivots:
            x = w[c]
            if x:
                row, nz = rows[c]
                for j in nz:
                    w[j] -= x * row[j]
                w[c] = ZERO
        for c, x in enumerate(w):
            if x:
                break
        else:
            return None
        if x != 1:
            w = [y / x if y else y for y in w]
        self._store(c, w)
        return w

    def __len__(self) -> int:
        return len(self._pivots)

    def rows_from(self, col: int) -> Mat:
        """The stored rows whose pivot is at or after `col`.

        Every stored row is zero before its pivot, so these rows span the
        vectors of the space that vanish on every column before `col`.
        """
        pivots = self._pivots
        return tuple(
            tuple(self._rows[c][0]) for c in pivots[bisect_left(pivots, col):]
        )

    def rows(self) -> Mat:
        """The canonical basis (reduced row echelon form)."""
        done: dict[int, tuple[list[Fraction], list[int]]] = {}
        for c in reversed(self._pivots):
            row, _ = self._rows[c]
            row = list(row)
            for c2 in done:
                x = row[c2]
                if x:
                    other, nz = done[c2]
                    for j in nz:
                        row[j] -= x * other[j]
                    row[c2] = ZERO
            done[c] = (row, [j for j in range(c + 1, self.ncols) if row[j]])
        return tuple(tuple(done[c][0]) for c in self._pivots)


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _is_canonical(rows) -> bool:
    """True when `rows` is a tuple of Fraction tuples in reduced row
    echelon form: no zero row, pivots strictly increasing and equal to 1,
    and every pivot column zero outside its own row."""
    if type(rows) is not tuple:
        return False
    width = len(rows[0]) if rows else 0
    pivots = []
    for row in rows:
        if type(row) is not tuple or len(row) != width:
            return False
        c = None
        for j, x in enumerate(row):
            if type(x) is not Fraction:
                return False
            if c is None and x:
                c = j
        if c is None or row[c] != 1 or (pivots and c <= pivots[-1]):
            return False
        # rows below have zeros before their later pivots, so only the
        # rows above can break column c
        for above in rows[: len(pivots)]:
            if above[c]:
                return False
        pivots.append(c)
    return True


def rref(rows: Iterable[Sequence[Fraction]]) -> Mat:
    """Reduced row echelon form with zero rows dropped (canonical basis).

    Input that already is a canonical tuple comes back as the same object.
    """
    if _is_canonical(rows):
        return rows
    rows = list(rows)
    if not rows:
        return ()
    ech = Echelon(len(rows[0]))
    for r in rows:
        ech.add([_fraction(x) for x in r])
    return ech.rows()


def span_sum(a: Mat, b: Iterable[Sequence[Fraction]]) -> Mat:
    """Canonical basis of rowspace(a) + rowspace(b), for canonical `a`.

    Returns `a` itself when rowspace(b) lies inside rowspace(a).
    """
    b = list(b)
    if not b:
        return a
    ech = Echelon(len(b[0]), a)
    grew = False
    for v in b:
        if ech.add(v) is not None:
            grew = True
    return ech.rows() if grew else a


def intersect_coords(coords: Sequence[int], b: Mat) -> Mat:
    """Canonical basis of span(e_i : i in coords) ∩ rowspace(b).

    Eliminating the columns outside `coords` first leaves the rows whose
    pivot lies in `coords` with zeros everywhere else; they span the
    intersection.
    """
    if not b:
        return ()
    n = len(b[0])
    inside = set(coords)
    order = [j for j in range(n) if j not in inside] + sorted(inside)
    ech = Echelon(n)
    for v in b:
        ech.add([v[j] for j in order])
    out = Echelon(n)
    for row in ech.rows_from(n - len(inside)):
        back = [ZERO] * n
        for pos, j in enumerate(order):
            back[j] = row[pos]
        out.add(back)
    return out.rows()


def stack(*mats: Mat) -> Mat:
    rows: list[Vec] = []
    for m in mats:
        rows.extend(m)
    return tuple(rows)


def dim_intersection_coords(coords: Sequence[int], b: Mat, ncols: int) -> int:
    """dim(span(e_i : i in coords) ∩ rowspace(b)) via projection rank."""
    inside = set(coords)
    others = [j for j in range(ncols) if j not in inside]
    if not others:
        return rank(b)
    proj = tuple(tuple(row[j] for j in others) for row in b)
    return rank(b) - rank(proj)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in m)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def sparse_columns(op: Mat) -> list[list[tuple[int, Fraction]]]:
    """Nonzero entries of each column of `op`, as (row, value) pairs."""
    cols: list[list[tuple[int, Fraction]]] = [[] for _ in op[0]] if op else []
    for i, row in enumerate(op):
        for j, a in enumerate(row):
            if a:
                cols[j].append((i, a))
    return cols


def apply_columns(
    cols: list[list[tuple[int, Fraction]]], v: Sequence[Fraction]
) -> list[Fraction]:
    """The product of the operator given by `sparse_columns` with `v`."""
    w = [ZERO] * len(cols)
    for j, x in enumerate(v):
        if x:
            for i, a in cols[j]:
                w[i] += a * x
    return w


def closure_under(
    groups: Iterable[Iterable[Sequence[Fraction]]],
    operators: Sequence[list[list[tuple[int, Fraction]]]],
) -> list[Mat]:
    """Canonical bases of the smallest subspaces stable under every
    operator that contain the vectors of the first 1, 2, ... of `groups`.

    The operators are given by `sparse_columns`.  One closure grows
    through the groups: each vector that extends the echelon basis is
    queued once, and only the images of queued vectors are reduced against
    the basis.  Once the basis fills the space nothing more is reduced, and
    a group that adds nothing gives back the previous rows object.
    """
    ncols = len(operators[0])
    ech = Echelon(ncols)
    rows: Mat = ()
    out = []
    for vectors in groups:
        queue = []
        for v in vectors:
            if len(ech) == ncols:
                break
            w = ech.add(v)
            if w is not None:
                queue.append(w)
        if queue:
            while queue and len(ech) < ncols:
                v = queue.pop()
                for cols in operators:
                    w = ech.add(apply_columns(cols, v))
                    if w is not None:
                        queue.append(w)
            rows = ech.rows()
        out.append(rows)
    return out
