"""Exact dense linear algebra over the rationals: rref, rank, nullspace.

Matrices come in as lists of rows whose entries may be `int` or
`Fraction`, and go out as lists of `Fraction` rows.  The elimination runs
on integer rows, fraction-free, in one routine: `rref` clears every other
row and divides the pivots out once at the end, while `rank` runs only
the forward half and reduces nothing.

`primitive` is the one place that picks the primitive integer
representative of a rational vector; `rref`, the Groebner content
normalization and the series gcd all go through it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = ["primitive", "rref", "rank", "nullspace"]

Matrix = list[list[Fraction | int]]


def primitive(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the lcm of its denominators, divided by its content.

    The result is the primitive integer vector that is a positive multiple
    of the row; a zero row stays zero.
    """
    scale = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    content = gcd(*ints)
    return [a // content for a in ints] if content > 1 else ints


def _echelon(rows: Matrix, full: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination on primitive integer rows (see `rref`); without
    `full` only the rows below each pivot are cleared, which leaves the same pivots."""
    m = [primitive(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(0 if full else r + 1, len(m)):
            f = m[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(m[i], top)]
                content = gcd(*new)
                m[i] = [x // content for x in new] if content > 1 else new
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list.

    Each row is scaled to a primitive integer row first.  Gauss-Jordan
    elimination then replaces row i by (p*row_i - f*row_r)/g, where p is
    the pivot of row r, f the entry of row i in the pivot column, and g the
    gcd content of the result, so every row stays a primitive integer row.
    Each pivot row is divided by its pivot once at the end.  Pivots are the
    first nonzero entry of a column, with no pivoting by size; the RREF of
    a matrix is unique, so the result is the one Fraction elimination gives.
    Zero rows come last.
    """
    m, pivots = _echelon(rows, True)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out.extend([Fraction(0)] * len(row) for row in m[len(pivots) :])
    return out, pivots


def rank(rows: Matrix) -> int:
    return len(_echelon(rows, False)[1])


def nullspace(rows: Matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel; one vector per free column, that column = 1.

    Deterministic: vectors are listed in increasing free-column order.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -reduced[row_idx][free]
        basis.append(v)
    return basis
