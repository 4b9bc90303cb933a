"""Matrix generators and the small exact matrix algebra the checks need.

Dense matrices are immutable tuples of equal-length row tuples holding
Python ints or fractions.Fraction values, so entries read as m[i][j] and
equality is plain ==.  The diagonal factors G and D are plain int tuples
of their diagonals, which callers apply as entrywise scalings in O(n^2);
_dense_diagonal is the one builder of a dense diagonal matrix.  A product
forms each entry only over the overlap of its row's and column's nonzero
spans, so a triangular or banded operand costs no multiplications by its
known zeros; and when the operands have the congruence form a = b^T D, as
in the checks of S = L D L^T and of von Szily's identity, it forms only
the upper triangle of the symmetric product and mirrors it.  Both are read
off the operands, exactly, in O(n^2); no caller selects them.  Only the
functions that build a Fraction import fractions, here and in linalg and
identities, so a command that never makes one, such as invert or a plain
oeis emit, starts without it.

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


def _is_congruence(a, b) -> bool:
    """True when a = b^T D for some diagonal D, so that a b is symmetric.

    Column k of a must be d_k times row k of b, with d_k read off the first
    nonzero entry b[k][f] of that row; the test cross-multiplies, so it is
    exact and divides nothing.  A zero row of b adds nothing to a b, and
    there both sides of the test are zero.
    """
    if len(a) != len(b[0]):
        return False
    for col, row in zip(zip(*a), b):
        f = _span(row)[0]
        af, bf = col[f], row[f]
        if [x * bf for x in col] != [af * y for y in row]:
            return False
    return True


def matmul(a, b):
    """Exact product of two dense matrices.

    An entry sums a[i][k] b[k][j] only over the overlap of the nonzero
    spans of row i of a and column j of b, since every other term is a known
    zero; an empty overlap gives the int 0.  A full row's span slice is the
    row tuple itself, not a copy, so a dense product pays nothing per entry
    for the spans.  When a = b^T D for a diagonal D, as in the
    congruence L D L^T, the product is symmetric: only the entries with
    i <= j are formed and the rest mirrored.  Entries equal the full sums
    by value.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    trimmed = []
    for col in zip(*b):
        lo, hi = _span(col)
        trimmed.append((lo, col[lo:hi]))

    def row_entries(row, j0):
        """Entries j0, j0+1, ... of row times b: the row's nonzero span and
        each column's are aligned at the later start, and map stops at the
        earlier end."""
        rlo, rhi = _span(row)
        part = row[rlo:rhi]
        return [sum(map(mul, part[clo - rlo:], col)) if rlo <= clo
                else sum(map(mul, part, col[rlo - clo:]))
                for clo, col in trimmed[j0:]]

    if not _is_congruence(a, b):
        return from_rows(row_entries(row, 0) for row in a)
    upper = [row_entries(row, i) for i, row in enumerate(a)]
    return from_rows([upper[j][i - j] for j in range(i)] + upper[i]
                     for i in range(len(upper)))
