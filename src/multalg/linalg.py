"""Exact dense linear algebra over Fraction: rref, rank, nullspace."""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rref", "rank", "nullspace"]

Matrix = list[list[Fraction]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list.

    Exact: the first nonzero entry of a column is its pivot, no pivoting by size.
    """
    m = [list(row) for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel; one vector per free column, that column = 1.

    Deterministic: vectors are listed in increasing free-column order.
    """
    if not rows:
        return [
            [Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
            for j in range(ncols)
        ]
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
