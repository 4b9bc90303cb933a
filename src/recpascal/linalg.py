"""Exact linear algebra used as independent oracles.

Leading principal minors by one fraction-free (Bareiss) elimination and
Gauss-Jordan inversion over the rationals.  Nothing here knows about the
structured factorizations in identities.py; keeping the two routes
independent is what makes their agreement meaningful.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def invert_rational(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals.

    The pivot is the first nonzero entry down each column: exact arithmetic
    needs no choice by magnitude, and first-nonzero keeps the elimination
    order deterministic.  Raises ValueError naming the rank reached if the
    matrix turns out singular.
    """
    _require_square(m)
    n = len(m)
    x = [[Fraction(v) for v in row] for row in m]
    y = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if x[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError(f"singular matrix: elimination stalled at rank {col} of {n}")
        if pivot_row != col:
            x[col], x[pivot_row] = x[pivot_row], x[col]
            y[col], y[pivot_row] = y[pivot_row], y[col]
        p = x[col][col]
        if p != 1:
            x[col] = [v / p for v in x[col]]
            y[col] = [v / p for v in y[col]]
        xc = x[col]
        yc = y[col]
        for r in range(n):
            if r == col:
                continue
            f = x[r][col]
            if f == 0:
                continue
            xr = x[r]
            yr = y[r]
            for j in range(n):
                xr[j] -= f * xc[j]
                yr[j] -= f * yc[j]
    return from_rows(y)

