"""Exact linear algebra over the rationals.

Vectors are sequences of rationals, given as int or Fraction entries; a
subspace is identified with its row space and represented canonically by
the reduced row echelon form of any spanning set, as a tuple of Fraction
tuples, so two subspaces are equal iff their canonical matrices are equal
as tuples.

One kernel does all elimination: `Echelon`, a pivot-indexed echelon
basis that grows one vector at a time, fraction-free in the style of
Bareiss.  A vector with denominators is cleared by one lcm on entry, and
from then on only integers are stored: each row is primitive with a
positive pivot, a vector is reduced against the pivots in ascending order
by r <- p*r - x*row (both scaled down by gcd(p, x) first, so a pivot
dividing x costs no scaling), and the result is divided by the gcd of its
entries.  `int_rows` reads out the canonical basis after one integer
back-substitution, as primitive integer rows with positive pivots (again
unique), and `fraction_rows` divides them by their pivots: the only place
Fractions are built.  `rank`, `rref` and `span_sum` are read-outs of this
kernel, and `kernel_rows` reads a null space off its canonical rows with
no elimination of its own.  The size of an `Echelon` is read out without back-substitution;
intersection dimensions on the verify path come from it.

`CanonicalBasis` marks a tuple that is known to be in reduced row echelon
form.  Only `fraction_rows` (fed canonical integer rows by `Echelon.rows`
and by the lattice of stable subspaces) produces one, so `rref` returns a
marked basis as it is, in O(1), and reduces anything else.

Stable closures are grown level by level in `subobjects.StableLattice`;
the level split is enforced in `frobenius` (`level_operators`).
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)


class CanonicalBasis(tuple):
    """A tuple of Fraction rows verified to be in reduced row echelon form.

    Slices and sums of it are plain tuples, which carry no such promise.
    """

    __slots__ = ()


def integral(v: Sequence) -> list[int]:
    """`v` scaled by the lcm of its denominators, as ints."""
    den = 1
    for x in v:
        if type(x) is not int:
            d = x.denominator
            if d != 1:
                den = den * d // math.gcd(den, d)
    if den == 1:
        return [x if type(x) is int else x.numerator for x in v]
    return [
        x * den if type(x) is int else x.numerator * (den // x.denominator)
        for x in v
    ]


class Echelon:
    """Echelon basis of a growing subspace of Q^ncols, indexed by pivot.

    The row stored at pivot c is a primitive integer row, positive at c
    and zero before it, so reducing a vector against the pivots in
    ascending order clears every pivot column of it.  Rows are kept
    together with the columns after the pivot where they are nonzero, and
    only those entries are subtracted.
    """

    __slots__ = ("ncols", "_pivots", "_rows")

    def __init__(self, ncols: int, canonical: Mat = ()):
        self.ncols = ncols
        self._pivots: list[int] = []
        self._rows: dict[int, tuple[list[int], list[int]]] = {}
        for row in canonical:
            w = integral(row)
            for c, x in enumerate(w):
                if x:
                    self._pivots.append(c)
                    self._rows[c] = (w, [j for j in range(c + 1, ncols) if w[j]])
                    break

    def add(self, v: Sequence) -> list[int] | None:
        """Extend the basis by `v`; the new stored row, or None if `v` was
        in the span."""
        return self.add_integral(integral(v))

    def add_integral(self, w: list[int]) -> list[int] | None:
        """`add` for a list of ints, which it takes over and may change."""
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

    def pivots(self) -> tuple[int, ...]:
        """The pivot columns in ascending order, one per row of `int_rows`."""
        return tuple(self._pivots)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """The canonical basis with each row scaled to a primitive integer
        row with a positive pivot.

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

    def rows(self) -> CanonicalBasis:
        """The canonical basis (reduced row echelon form)."""
        return fraction_rows(self.int_rows())


def fraction_rows(rows: Iterable[Sequence[int]]) -> CanonicalBasis:
    """Canonical Fraction rows of primitive integer rows in reduced echelon
    form with positive pivots (as `Echelon.int_rows` gives them)."""
    out = []
    for row in rows:
        p = next(a for a in row if a)
        if p == 1:
            out.append(tuple(Fraction(a) if a else ZERO for a in row))
        else:
            out.append(tuple(Fraction(a, p) if a else ZERO for a in row))
    return CanonicalBasis(out)


def rank(rows: Iterable[Sequence]) -> int:
    """Dimension of the row space."""
    ech = None
    for r in rows:
        if ech is None:
            ech = Echelon(len(r))
        ech.add(r)
        if len(ech) == ech.ncols:
            break
    return len(ech) if ech is not None else 0


def rref(rows: Iterable[Sequence]) -> CanonicalBasis:
    """Reduced row echelon form with zero rows dropped (canonical basis).

    A `CanonicalBasis` comes back as the same object.
    """
    if type(rows) is CanonicalBasis:
        return rows
    rows = list(rows)
    ech = Echelon(len(rows[0]) if rows else 0)
    for r in rows:
        ech.add(r)
    return ech.rows()


def span_sum(a: tuple, b: Iterable[Sequence]) -> tuple:
    """Canonical integer rows (as `Echelon.int_rows` reads them out) of
    rowspace(a) + rowspace(b), for `a` given in that form.

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
    return ech.int_rows() if grew else a


def kernel_rows(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """An integer basis of {x : r . x = 0 for every row r}, read off
    primitive integer rows in reduced echelon form with positive pivots (as
    `Echelon.int_rows` gives them).

    For each column f that is no pivot: L at f and -r[f] * (L / p) at the
    pivot p of each row r nonzero at f, L the lcm of those pivots.  A row
    is zero at the other pivots and at the other vectors' free columns, so
    it meets the vector in p * (-r[f] * L / p) + r[f] * L = 0.
    """
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    out = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        hits = [(c, row[c], row[f]) for c, row in zip(pivots, rows) if row[f]]
        scale = math.lcm(*(p for _, p, _ in hits))
        v = [0] * ncols
        v[f] = scale
        for c, p, x in hits:
            v[c] = -x * (scale // p)
        out.append(v)
    return out
