"""Exact linear algebra used as independent oracles.

Leading principal minors and Gauss-Jordan inversion, both by primitive-row
elimination: each step subtracts a multiple of the pivot row with the two
multipliers reduced by their gcd, then divides the row by the gcd of its
entries, divisions exact by definition of the gcd.  Both start from the
rows scaled to integers by the lcm of their denominators, and both store
only the columns that can still be nonzero: the minors' rows shrink by
their eliminated lead at every step, and Gauss-Jordan keeps n + 1 entries
per row, each eliminated column's slot reused for a column of the
accumulated row operations.  The minors are read off the pivots and the
tracked row scales, the rational inverse off each row's last slot, its
pivot, at the end.  Nothing here knows about the structured
factorizations in identities.py; keeping the two routes independent is
what makes their agreement meaningful.
"""
from __future__ import annotations

from math import gcd, lcm

from .combinatorics import exact_div
from .matrices import Matrix, _require_square, from_rows


def _scaled_rows(m: Matrix) -> tuple[list, list]:
    """Each row as plain ints, scaled by the lcm of its own denominators;
    returns the rows and the per-row scale factors."""
    rows, factors = [], []
    for row in m:
        f = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (f // x.denominator) for x in row])
        factors.append(f)
    return rows, factors


def _combine(row: list, pivot_row: list, lead: int, p: int) -> tuple[list, int, int]:
    """Eliminate lead, row's entry in the pivot column, against the pivot p.

    With h = gcd(p, lead), a = p/h and b = lead/h, the new row is
    a * row - b * pivot_row divided by its content g, the gcd of its
    entries, unless g is 0 (the row vanished) or 1.  Returns the new row,
    a and g, so that a caller can track the row's scale.  Each division is
    exact by definition of the gcd, and checked anyway.
    """
    h = gcd(p, lead)
    a, b = exact_div(p, h), exact_div(lead, h)
    new = [a * x - b * y for x, y in zip(row, pivot_row)]
    g = gcd(*new)
    if g > 1:
        new = [exact_div(v, g) for v in new]
    return new, a, g


def leading_minors(m: Matrix) -> list:
    """Determinants of the leading k x k blocks of m, k = 1..n, as Fractions.

    One primitive-row elimination without row swaps yields them all.  At
    step k the work rows below k hold only columns k..n-1: each step drops
    a row's eliminated lead and combines the tails.  Row i stays
    scale_i / content_i times (row i of m plus multiples of the rows above
    it): scale_i is the row's lcm factor times every multiplier a applied
    to it, and content_i the product of every gcd divided out of it.  So
    det(m[:k, :k]) = prod_{j<k} pivot_j content_j / scale_j.  A zero
    leading minor raises ValueError; a row that vanishes has content 0 and
    a zero pivot.
    """
    from fractions import Fraction

    _require_square(m)
    work, scales = _scaled_rows(m)
    n = len(work)
    contents = [1] * n
    minors = []
    det = Fraction(1)
    for k in range(n):
        p, *pivot_tail = work[k]
        if p == 0:
            raise ValueError(f"leading principal minor of size {k + 1} is zero")
        det *= Fraction(p * contents[k], scales[k])
        minors.append(det)
        for i in range(k + 1, n):
            lead, *rest = work[i]
            if lead:
                rest, a, g = _combine(rest, pivot_tail, lead, p)
                scales[i] *= a
                contents[i] *= g
            work[i] = rest
    return minors


def invert_rational(m: Matrix) -> Matrix:
    """Exact inverse by in-place Gauss-Jordan elimination on primitive
    integer rows.

    Each row of m is scaled by the lcm of its denominators, F m, and
    eliminated together with its side of E, the accumulated row operations,
    with E F m diagonal at the end; so m^-1 = (F m)^-1 F = D^-1 E F.  Only
    the columns that can still be nonzero are stored, n + 1 per row.  Slot
    j holds column j of F m until column j is eliminated, and then column
    order[j] of E, where order[j] is the original index of the row that
    pivoted at step j.  The last slot holds the row's own entry of E until
    the row pivots, and its diagonal entry of D after that.  Eliminating
    column c from a row is one _combine step against the pivot row.
    Scaling a row by a nonzero constant is a legal Gauss-Jordan step, so
    the rows stay integer with nothing rounded, and dividing out the gcds
    keeps their entries short.

    The pivot is the first nonzero entry down each column: exact arithmetic
    needs no choice by magnitude, and first-nonzero keeps the elimination
    order deterministic.  Raises ValueError naming the rank reached if the
    matrix turns out singular.
    """
    from fractions import Fraction

    _require_square(m)
    rows, factors = _scaled_rows(m)
    n = len(rows)
    for row in rows:
        row.append(1)
    order = list(range(n))
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise ValueError(f"singular matrix: elimination stalled at rank {col} of {n}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        order[col], order[pivot_row] = order[pivot_row], order[col]
        pivot = rows[col]
        p = pivot[col]
        # Slot col takes the pivot's own entry of E, column order[col], where
        # every other row still holds 0.  The pivot is 0 in the column each
        # other row keeps in its last slot, so that slot reads 0 meanwhile.
        pivot[col], pivot[n] = pivot[n], 0
        for i, row in enumerate(rows):
            f = row[col]
            if i != col and f:
                row[col] = 0
                rows[i] = _combine(row, pivot, f, p)[0]
        pivot[n] = p
    return from_rows(
        [Fraction(x * factors[j], row[n]) for j, x in sorted(zip(order, row))] for row in rows
    )
