"""Exact linear algebra used as independent oracles.

Leading principal minors by one fraction-free (Bareiss) elimination, and
Gauss-Jordan inversion on integer rows kept primitive (each divided by the
gcd of its entries, a division exact by definition of the gcd), with the
rational inverse read off the diagonal at the end.  Both start from the
rows scaled to integers by the lcm of their denominators.  Nothing here
knows about the structured factorizations in identities.py; keeping the two
routes independent is what makes their agreement meaningful.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .combinatorics import exact_div
from .matrices import Matrix, from_rows


def _require_square(m: Matrix) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")


def _scaled_rows(m: Matrix) -> tuple[list, list]:
    """Each row as plain ints, scaled by the lcm of its own denominators;
    returns the rows and the per-row scale factors."""
    rows, factors = [], []
    for row in m:
        f = lcm(*(x.denominator for x in row))
        rows.append([int(x * f) for x in row])
        factors.append(f)
    return rows, factors


def leading_minors(m: Matrix) -> list:
    """Determinants of the leading k x k blocks of m, k = 1..n, as Fractions.

    One fraction-free (Bareiss) elimination without row swaps yields them
    all: afterwards the k-th pivot of the row-scaled integer matrix is
    det(m[:k, :k]) times the first k row factors.  Every interior division
    is exact by construction, and checked at runtime anyway.  A zero
    leading minor raises ValueError.
    """
    _require_square(m)
    work, factors = _scaled_rows(m)
    n = len(work)
    minors = []
    prev = scale = 1
    for k, f in enumerate(factors):
        pivot = work[k][k]
        if pivot == 0:
            raise ValueError(f"leading principal minor of size {k + 1} is zero")
        scale *= f
        minors.append(Fraction(pivot, scale))
        row_k = work[k]
        for i in range(k + 1, n):
            row_i = work[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = exact_div(pivot * row_i[j] - lead * row_k[j], prev)
            row_i[k] = 0
        prev = pivot
    return minors


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries; row must not be all zero.

    The gcd divides every entry by definition, so each exact_div is exact.
    """
    g = gcd(*row)
    return row if g == 1 else [exact_div(v, g) for v in row]


def invert_rational(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination on primitive integer rows.

    Each row of m is scaled by the lcm of its denominators, F m, and
    augmented with the identity.  Eliminating column c from row r replaces
    it with p * row_r - row_r[c] * pivot_row, p the pivot, and then divides
    the row by the gcd of its entries.  Scaling a row by a nonzero constant
    is a legal Gauss-Jordan step, so the rows stay integer with nothing
    rounded, and dividing out the gcd keeps their entries short.  The left half ends diagonal, D = E F m for the accumulated
    right half E, so the inverse is read off as m^-1 = (F m)^-1 F = D^-1 E F.

    The pivot is the first nonzero entry down each column: exact arithmetic
    needs no choice by magnitude, and first-nonzero keeps the elimination
    order deterministic.  Raises ValueError naming the rank reached if the
    matrix turns out singular.
    """
    _require_square(m)
    rows, factors = _scaled_rows(m)
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise ValueError(f"singular matrix: elimination stalled at rank {col} of {n}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col]
        p = pivot[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = _primitive([p * a - f * b for a, b in zip(aug[r], pivot)])
    return from_rows(
        [Fraction(aug[i][n + j] * factors[j], aug[i][i]) for j in range(n)] for i in range(n)
    )
