"""Matrix generators and the small exact matrix algebra the checks need.

Dense matrices are immutable tuples of equal-length row tuples holding
Python ints or fractions.Fraction values, so entries read as m[i][j] and
equality is plain ==.  The diagonal factors G and D are plain int tuples
of their diagonals, which callers apply as entrywise scalings in O(n^2);
_dense_diagonal is the one builder of a dense diagonal matrix.  A product
forms each entry only over the overlap of its row's and column's nonzero
spans, read off the operands in O(n^2), so a triangular or banded operand
costs no multiplications by its known zeros.  The symmetric product
b D b^T, the congruence L D L^T of the checks of S = L D L^T and of von
Szily's identity, has its own function, congruence, which forms only the
upper triangle, over the same spans, and mirrors it.  Only the functions
that build a Fraction import fractions, here and in linalg and identities,
so a command that never makes one, such as invert or a plain oeis emit,
starts without it.

Generators fill rows by recurrence instead of recomputing each coefficient
from scratch: the symmetric Pascal array by prefix sums, integer additions
only, its reciprocal entry by entry from it, and the others by running
products with one exact division per entry; that includes the triangle's
inverse, which has a closed form.  The central binomials C(2m, m) are one
shared sequence: G's diagonal, the first column of L and of the super
Catalan array.  super_catalan_matrix is the package's one route to the
super Catalan numbers S(m, k); the checks and sequence readings all read it.
Tests pin the generated entries to math.comb and S to the factorial ratio.
"""
from __future__ import annotations

from itertools import accumulate, compress, count
from operator import mul

from .combinatorics import exact_div


def _require_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")


def _require_square(m) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")


def _central_binomials(n: int) -> list:
    """C(2m, m) for m = 0..n-1, by C(2m, m) = C(2m-2, m-1) * 2(2m-1) / m."""
    _require_size(n)
    out = [1]
    for m in range(1, n):
        out.append(exact_div(out[-1] * 2 * (2 * m - 1), m))
    return out


class Matrix(tuple):
    """Dense matrix: a nonempty tuple of equal-length, nonempty row tuples."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), len(self[0])

    @property
    def T(self) -> Matrix:
        return Matrix(zip(*self))

    def tolist(self) -> list:
        return [list(row) for row in self]


def from_rows(rows) -> Matrix:
    """Dense matrix from nested sequences; entries pass through."""
    m = Matrix(map(tuple, rows))
    if not m or not m[0] or any(len(row) != len(m[0]) for row in m):
        raise ValueError("from_rows needs a rectangular two-dimensional layout")
    return m


def identity(n: int) -> Matrix:
    """Integer identity matrix."""
    _require_size(n)
    return _dense_diagonal((1,) * n)


def _dense_diagonal(diag) -> Matrix:
    """Dense square matrix with diag on its diagonal and zeros elsewhere."""
    n = len(diag)
    return from_rows([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def pascal_matrix(n: int) -> Matrix:
    """Symmetric binomial array: entry (i, j) is C(i+j, i).

    Row 0 is all ones and every later row holds the prefix sums of the row
    above, by the hockey-stick identity C(i+j, i) = sum_{k<=j} C(i-1+k, i-1).
    """
    _require_size(n)
    rows = [(1,) * n]
    for _ in range(n - 1):
        rows.append(tuple(accumulate(rows[-1])))
    return from_rows(rows)


def reciprocal_pascal(n: int) -> Matrix:
    """Entrywise reciprocal of the symmetric binomial array: (i, j) -> 1/C(i+j, i)."""
    from fractions import Fraction

    return from_rows([Fraction(1, c) for c in row] for row in pascal_matrix(n))


def super_catalan_matrix(n: int) -> Matrix:
    """Array of super Catalan numbers: entry (m, k) is (2m)!(2k)!/(m! k! (m+k)!).

    Row m starts its recurrence S(m, k+1) = S(m, k) 2(2k+1) / (m+k+1) at the
    diagonal, S(m, m) = C(2m, m); the entries k < m are S(k, m), copied from
    the rows above.
    """
    rows = []
    for m, cur in enumerate(_central_binomials(n)):
        row = [above[m] for above in rows]
        row.append(cur)
        for k in range(m, n - 1):
            cur = exact_div(cur * 2 * (2 * k + 1), m + k + 1)
            row.append(cur)
        rows.append(row)
    return from_rows(rows)


def g_matrix(n: int) -> tuple:
    """G's diagonal: the central binomial coefficients C(2m, m)."""
    return tuple(_central_binomials(n))


def l_matrix(n: int) -> Matrix:
    """Unit lower triangular array whose row m holds C(2m, m+k) at column k."""
    rows = []
    for m, cur in enumerate(_central_binomials(n)):
        row = [0] * n
        row[0] = cur
        for k in range(m):
            cur = exact_div(cur * (m - k), m + k + 1)
            row[k + 1] = cur
        rows.append(row)
    return from_rows(rows)


def l_inverse_matrix(n: int) -> Matrix:
    """Inverse of l_matrix(n): row m >= 1 holds (-1)^(m-k) 2m/(m+k) C(m+k, 2k)
    at column k, the Chebyshev inverse pair to C(2m, m-k)."""
    _require_size(n)
    rows = []
    for m in range(n):
        row = [0] * n
        cur = 1 if m == 0 else (-2 if m % 2 else 2)
        row[0] = cur
        for k in range(m):
            cur = exact_div(-cur * (m + k) * (m - k), (2 * k + 1) * (2 * k + 2))
            row[k + 1] = cur
        rows.append(row)
    return from_rows(rows)


def d_matrix(n: int) -> tuple:
    """D's diagonal (1, -2, 2, -2, ...): a leading 1, then alternating -2 and 2."""
    _require_size(n)
    return (1,) + tuple(-2 if m % 2 else 2 for m in range(1, n))


def _span(v) -> tuple[int, int]:
    """(lo, hi) with v[lo] and v[hi - 1] v's first and last nonzero entries;
    (0, 0) when v is all zero."""
    lo = next(compress(count(), v), None)
    if lo is None:
        return 0, 0
    return lo, len(v) - next(compress(count(), reversed(v)))


def _trim(v) -> tuple:
    """(lo, v[lo:hi]): v's nonzero span v[lo:hi] and where it starts."""
    lo, hi = _span(v)
    return lo, v[lo:hi]


def _row_times(row, trimmed) -> list:
    """row times each trimmed vector (lo, v) in turn: the row's nonzero span
    and v are aligned at the later start, and map stops at the earlier end."""
    rlo, part = _trim(row)
    return [sum(map(mul, part[lo - rlo:], v)) if rlo <= lo
            else sum(map(mul, part, v[rlo - lo:]))
            for lo, v in trimmed]


def matmul(a, b):
    """Exact product of two dense matrices.

    An entry sums a[i][k] b[k][j] only over the overlap of the nonzero
    spans of row i of a and column j of b, since every other term is a known
    zero; an empty overlap gives the int 0.  A full row's or column's span
    slice is the tuple itself, not a copy, so a dense product pays nothing
    per entry for the spans.  Entries equal the full sums by value.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    trimmed = [_trim(col) for col in zip(*b)]
    return from_rows(_row_times(row, trimmed) for row in a)


def congruence(b, d):
    """Exact symmetric product b diag(d) b^T, d a sequence of b.shape[1] entries.

    Entry (i, j) sums b[i][k] d[k] b[j][k] over the overlap of the nonzero
    spans of rows i and j of b; only the entries with i <= j are formed,
    and the rest mirrored.  This is the congruence L D L^T of the checks of
    S = L D L^T and of von Szily's identity.
    """
    if len(d) != b.shape[1]:
        raise ValueError(f"dimension mismatch: {b.shape} x diagonal of {len(d)}")
    trimmed = [_trim(row) for row in b]
    upper = [_row_times(tuple(map(mul, row, d)), trimmed[i:]) for i, row in enumerate(b)]
    return from_rows([upper[j][i - j] for j in range(i)] + upper[i]
                     for i in range(len(upper)))
