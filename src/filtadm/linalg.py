"""Exact linear algebra over the rationals, in integers.

A rational subspace of Q^n has exactly one basis of primitive integer
rows in reduced row echelon form with positive pivots: its canonical
rows.  Every subspace and matrix here is held in integers, a subspace as
its canonical rows, a tuple of int tuples, so two subspaces are equal iff
their canonical rows are equal as tuples.  A vector with denominators is
scaled to integers where it is made, which leaves its span unchanged; only
a report writes a row as rationals, each entry over the pivot
(`model.row_to_str`).

One elimination, `Echelon`, grows a basis one integer vector at a time:
a pivot-indexed echelon basis, fraction-free in the style of Bareiss.
Each stored row is primitive with a positive pivot, a vector is reduced
against the pivots in ascending order by r <- p*r - x*row (both scaled
down by gcd(p, x) first, so a pivot dividing x costs no scaling), and the
result is divided by the gcd of its entries.  `int_rows` reads out the
canonical rows after one integer back-substitution.  `rank` and
`span_sum` are read-outs of it.  Its size is read out without
back-substitution; intersection dimensions on the verify path come from
it.  Subspaces are compared and interned by their canonical rows.

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
