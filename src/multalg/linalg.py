"""Exact dense linear algebra over the rationals: rref, rank, nullspace.

Matrices come in as lists of rows whose entries may be `int` or
`Fraction`, and go out as lists of `Fraction` rows.  `rref` is the only
elimination: it runs on integer rows, fraction-free, clears every other
row and divides the pivots out once at the end.  `rank` and `nullspace`
read its result.

Before eliminating, `rref` counts pivots modulo the prime p = 2^30 - 35,
the largest prime below 2^30, so that a residue is one 30-bit digit of a
CPython int and a product of two residues is two.  A minor that is nonzero
mod p is a nonzero integer minor of the integer-scaled rows, so the rank
mod p is a lower bound for the rank over Q.  When it reaches every column,
it is the exact rank, and no elimination is needed: the RREF of full
column rank is the identity over zero rows.  Otherwise the exact
elimination decides.  `multiplicity` certifies its socle and pairing
blocks the same way, on the residues mod p that the staircase walk makes
(see `groebner`), and builds an exact block only where a certificate fails.

`primitive` is the one place that picks the primitive integer
representative of a rational vector; `rref`, the Groebner content
normalization and the series gcd all go through it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = ["primitive", "rref", "rank", "nullspace"]

Matrix = list[list[Fraction | int]]

_PRIME = (1 << 30) - 35


def primitive(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the lcm of its denominators, divided by its content.

    The result is the primitive integer vector that is a positive multiple
    of the row; a zero row stays zero.
    """
    scale = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    content = gcd(*ints)
    return [a // content for a in ints] if content > 1 else ints


def _echelon(rows: Matrix) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on primitive integer rows (see `rref`)."""
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
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(m[i], top)]
                content = gcd(*new)
                m[i] = [x // content for x in new] if content > 1 else new
        pivots.append(c)
        r += 1
    return m, pivots


def _rank_mod_prime(rows: Iterable[Sequence[Fraction | int]], want: int) -> int:
    """Rank of the rows mod `_PRIME`, counting at most `want` pivots and reducing each row only
    when it is reached; a denominator divisible by p ends the count early (a lower bound still)."""
    p = _PRIME
    inverses: dict[int, int] = {}
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row with pivot 1)
    for row in rows:
        if len(echelon) == want:
            break
        v = []
        for x in row:
            if type(x) is int:
                v.append(x % p)
                continue
            inv = inverses.get(x.denominator)
            if inv is None:
                if not x.denominator % p:
                    return len(echelon)
                inv = inverses[x.denominator] = pow(x.denominator, -1, p)
            v.append(x.numerator * inv % p)
        for c, e in echelon:  # e is zero in the earlier pivot columns
            f = v[c]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, e)]
        c = next((c for c, a in enumerate(v) if a), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            echelon.append((c, [a * inv % p for a in v]))
    return len(echelon)


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list: the package's only
    elimination, which `rank` and `nullspace` read.

    Each row is scaled to a primitive integer row first.  Gauss-Jordan
    elimination then replaces row i by (p*row_i - f*row_r)/g, where p is
    the pivot of row r, f the entry of row i in the pivot column, and g the
    gcd content of the result, so every row stays a primitive integer row.
    Each pivot row is divided by its pivot once at the end.  Pivots are the
    first nonzero entry of a column, with no pivoting by size; the RREF of
    a matrix is unique, so the result is the one Fraction elimination gives.
    Zero rows come last.  A matrix of full column rank mod p (see the
    module docstring) is not eliminated.
    """
    ncols = len(rows[0]) if rows else 0
    if len(rows) >= ncols and _rank_mod_prime(rows, ncols) == ncols:
        one, zero = Fraction(1), Fraction(0)
        eye = [[one if i == j else zero for j in range(ncols)] for i in range(len(rows))]
        return eye, list(range(ncols))
    m, pivots = _echelon(rows)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out.extend([Fraction(0)] * len(row) for row in m[len(pivots) :])
    return out, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


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
