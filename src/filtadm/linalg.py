"""Exact linear algebra over the rationals, in integers.

A rational subspace of Q^n has exactly one basis of primitive integer
rows in reduced row echelon form with positive pivots: its canonical
rows.  Every subspace and matrix here is held in integers, a subspace as
its canonical rows, a tuple of int tuples, so two subspaces are equal iff
their canonical rows are equal as tuples.  A vector with denominators is
scaled to integers where it is made, which leaves its span unchanged; only
a report writes a row as rationals, each entry over the pivot
(`model.row_to_str`).

Two eliminations grow a basis one integer vector at a time, and they
differ in what they read out.

- `Echelon`, a pivot-indexed echelon basis, fraction-free in the style of
  Bareiss, reads out canonical rows.  Each stored row is primitive with a
  positive pivot, a vector is reduced against the pivots in ascending
  order by r <- p*r - x*row (both scaled down by gcd(p, x) first, so a
  pivot dividing x costs no scaling), and the result is divided by the
  gcd of its entries.  `int_rows` reads out the canonical rows after one
  integer back-substitution.  `rank` and `span_sum` are read-outs of it.
  Its size is read out without back-substitution; intersection
  dimensions on the verify path come from it.  Subspaces are compared
  and interned by their canonical rows, so everything that keeps a
  subspace uses this one.
- `ScaledReducedForm`, Bareiss-Montante elimination, keeps the reduced
  form of its rows scaled by their pivot minor, in integers with exact
  division and no gcd, and reads out only whether the rows are
  independent on a set of columns (`full_rank_on`).  Transversality asks
  exactly that, of every tail block of a basis in turn, and needs no
  canonical rows: one back-substitution after every row is what this form
  saves.

Stable closures are grown level by level in `subobjects.StableLattice`;
the level split is enforced in `frobenius` (`level_operators`).
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterable, Sequence


class Echelon:
    """Echelon basis of a growing subspace of Q^ncols, indexed by pivot.

    The row stored at pivot c is a primitive integer row, positive at c
    and zero before it, so reducing a vector against the pivots in
    ascending order clears every pivot column of it.  Rows are kept
    together with the columns after the pivot where they are nonzero, and
    only those entries are subtracted.
    """

    __slots__ = ("ncols", "_pivots", "_rows")

    def __init__(self, ncols: int, canonical: Sequence[Sequence[int]] = ()):
        """An echelon of the rows `canonical`, canonical rows as `int_rows`
        gives them, which it stores as they are."""
        self.ncols = ncols
        self._pivots: list[int] = []
        self._rows: dict[int, tuple[Sequence[int], list[int]]] = {}
        for row in canonical:
            for c, x in enumerate(row):
                if x:
                    self._pivots.append(c)
                    self._rows[c] = (row, [j for j in range(c + 1, ncols) if row[j]])
                    break

    def add(self, w: list[int]) -> list[int] | None:
        """Extend the basis by the integer vector `w`, a list it takes over
        and may change; the new stored row, or None if `w` was in the
        span."""
        rows = self._rows
        for c in self._pivots:
            x = w[c]
            if x:
                row, nz = rows[c]
                p = row[c]
                if p != 1:
                    g = math.gcd(p, x)
                    if g != p:
                        p //= g
                        w = [p * y for y in w]
                    x //= g
                for j in nz:
                    w[j] -= x * row[j]
                w[c] = 0
        for c, x in enumerate(w):
            if x:
                break
        else:
            return None
        g = math.gcd(*w)
        if x < 0:
            g = -g
        if g != 1:
            w = [y // g for y in w]
        insort(self._pivots, c)
        rows[c] = (w, [j for j in range(c + 1, self.ncols) if w[j]])
        return w

    def __len__(self) -> int:
        return len(self._pivots)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """The canonical rows: primitive integer rows in reduced row echelon
        form with positive pivots.

        Back-substitution runs from the last pivot up, in integers: each
        row is cleared at the later pivot columns by the rows already
        reduced there, which are zero at every other pivot column.
        """
        done: dict[int, list[int]] = {}
        out = []
        for c in reversed(self._pivots):
            row, nz = self._rows[c]
            for c2 in nz:
                x = row[c2]
                if x and c2 in done:
                    other = done[c2]
                    p = other[c2]
                    g = math.gcd(p, x)
                    p //= g
                    x //= g
                    row = [p * a - x * b for a, b in zip(row, other)]
            g = math.gcd(*row)
            if g != 1:
                row = [a // g for a in row]
            done[c] = row
            out.append(tuple(row))
        out.reverse()
        return tuple(out)


class ScaledReducedForm:
    """The reduced row echelon form of a growing list of independent
    integer rows, scaled by its pivot minor: Bareiss-Montante elimination.

    After rows a_1 .. a_k with pivot columns P, one per row, the row kept
    at pivot p is d * R_p, where R = A_P^-1 A is the reduced form of
    A = (a_1; ...; a_k), unit at P, and d = +-det A_P is the pivot minor.
    Every pivot entry equals d and every other pivot column is zero.  By
    Cramer's rule the entry of d * R_p at a column c is the k-minor of A on
    P with c in place of p, so every entry is an integer.  Each pivot is
    the first nonzero entry of its reduced row, and a kept row has the new
    row subtracted only when it is nonzero at the new pivot, which then
    lies after its own, so every row stays zero before its own pivot: R is
    the RREF of A.

    A new row v reduces to w = d*v - sum_p v[p] * row_p: zero at P, and at
    a column c the (k+1)-minor of (A; v) on P and c, the Schur complement
    of A_P times d, so no division.  Its first nonzero entry e = w[q] is
    the new pivot minor, and every kept row becomes (e*row - row[q]*w) / d,
    which is e/d times the old one, cleared at q.  Sylvester's identity
    (Bareiss, Math. Comp. 22, 1968) makes that division exact: the result
    holds (k+1)-minors again.  So entries stay minors, bounded by
    Hadamard's inequality, with no gcd and no back-substitution.
    """

    __slots__ = ("det", "_rows")

    def __init__(self):
        self.det = 1
        self._rows: dict[int, list[int]] = {}   # pivot column -> d * R_p

    def add(self, v: Sequence[int]) -> bool:
        """Take the integer row `v`; False, and no change, when it lies in
        the span of the rows already taken."""
        d, rows = self.det, self._rows
        w = [d * x for x in v] if d != 1 else list(v)
        for p, row in rows.items():
            x = v[p]
            if x:
                w = [a - x * b for a, b in zip(w, row)]
        for q, e in enumerate(w):
            if e:
                break
        else:
            return False
        for p, row in rows.items():
            y = row[q]
            if y:
                rows[p] = [(e * a - y * b) // d for a, b in zip(row, w)]
            elif e != d:
                rows[p] = [e * a // d for a in row]
        rows[q] = w
        self.det = e
        return True

    def full_rank_on(self, cols: Sequence[int]) -> bool:
        """Whether the rows taken are independent on the columns `cols`, as
        many as the rows: whether the minor of those rows on `cols` is
        nonzero.

        That minor is nonzero iff the scaled form's is.  A row pivoting in
        `cols` is zero at the other pivot columns, so each such row and its
        pivot column split off; what is left is the t x t block of the rows
        pivoting outside `cols` on the columns of `cols` that are no pivot.
        Closed forms decide t <= 2, fraction-free elimination the rest.
        """
        rows = [row for p, row in self._rows.items() if p not in cols]
        if not rows:
            return True
        free = [c for c in cols if c not in self._rows]
        if len(free) == 1:
            return rows[0][free[0]] != 0
        if len(free) == 2:
            (a, b), (c, d) = ([row[k] for k in free] for row in rows)
            return a * d != b * c
        return _nonsingular([[row[k] for k in free] for row in rows])


def _nonsingular(a: list[list[int]]) -> bool:
    """Whether the square integer matrix `a`, whose rows it changes, is
    nonsingular: Bareiss elimination, each step's entries divided exactly
    by the previous pivot, with row swaps where a pivot is zero."""
    t = len(a)
    prev = 1
    for k in range(t):
        for i in range(k, t):
            if a[i][k]:
                break
        else:
            return False
        a[k], a[i] = a[i], a[k]
        top = a[k]
        p = top[k]
        for row in a[k + 1:]:
            x = row[k]
            for j in range(k + 1, t):
                row[j] = (p * row[j] - x * top[j]) // prev
        prev = p
    return True


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Dimension of the row space of integer rows."""
    ech = None
    for r in rows:
        if ech is None:
            ech = Echelon(len(r))
        ech.add(list(r))
        if len(ech) == ech.ncols:
            break
    return len(ech) if ech is not None else 0


def span_sum(a: tuple, b: Iterable[Sequence[int]]) -> tuple:
    """Canonical rows (as `Echelon.int_rows` reads them out) of rowspace(a)
    + rowspace(b), for `a` given in that form and integer rows `b`.

    Returns `a` itself when rowspace(b) lies inside rowspace(a).
    """
    b = list(b)
    if not b:
        return a
    ech = Echelon(len(b[0]), a)
    grew = False
    for v in b:
        if ech.add(list(v)) is not None:
            grew = True
    return ech.int_rows() if grew else a
