"""Matrix generators and the small exact matrix algebra the checks need.

Dense matrices are numpy arrays with dtype=object holding Python ints or
fractions.Fraction values; diagonal matrices get the lightweight Diagonal
wrapper so products with them stay O(n^2).  Every array returned here is
frozen (read-only): treat matrices as immutable values.

Generators fill rows with running-product recurrences, one exact division
per entry, instead of recomputing each coefficient from scratch.  Tests pin
the generated entries to the scalar kernels in combinatorics.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import exact_div


def _require_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def from_rows(rows) -> np.ndarray:
    """Dense object-dtype matrix from nested sequences; entries pass through."""
    arr = np.array(rows, dtype=object)
    if arr.ndim != 2:
        raise ValueError("from_rows needs a rectangular two-dimensional layout")
    return _frozen(arr)


def identity(n: int) -> np.ndarray:
    """Integer identity matrix."""
    _require_size(n)
    return from_rows([[int(i == j) for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class Diagonal:
    """Square diagonal matrix stored as its diagonal."""

    diag: tuple

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(self.diag))
        if not self.diag:
            raise ValueError("empty diagonal")

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        n = self.n
        return from_rows(
            [[self.diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )


def pascal_matrix(n: int) -> np.ndarray:
    """Symmetric binomial array: entry (i, j) is C(i+j, i)."""
    _require_size(n)
    rows = []
    for i in range(n):
        row = [1]
        for j in range(n - 1):
            row.append(exact_div(row[-1] * (i + j + 1), j + 1))
        rows.append(row)
    return from_rows(rows)


def reciprocal_pascal(n: int) -> np.ndarray:
    """Entrywise reciprocal of the symmetric binomial array: (i, j) -> 1/C(i+j, i)."""
    _require_size(n)
    rows = []
    for i in range(n):
        c = 1
        row = [Fraction(1)]
        for j in range(n - 1):
            c = exact_div(c * (i + j + 1), j + 1)
            row.append(Fraction(1, c))
        rows.append(row)
    return from_rows(rows)


def super_catalan_matrix(n: int) -> np.ndarray:
    """Array of super Catalan numbers: entry (m, k) is (2m)!(2k)!/(m! k! (m+k)!)."""
    _require_size(n)
    rows = []
    start = 1
    for m in range(n):
        if m:
            start = exact_div(start * 2 * (2 * m - 1), m)
        cur = start
        row = [cur]
        for k in range(n - 1):
            cur = exact_div(cur * 2 * (2 * k + 1), m + k + 1)
            row.append(cur)
        rows.append(row)
    return from_rows(rows)


def g_matrix(n: int) -> Diagonal:
    """Diagonal of central binomial coefficients C(2m, m)."""
    _require_size(n)
    diag = [1]
    for m in range(n - 1):
        diag.append(exact_div(diag[-1] * 2 * (2 * m + 1), m + 1))
    return Diagonal(tuple(diag))


def l_matrix(n: int) -> np.ndarray:
    """Unit lower triangular array whose row m holds C(2m, m+k) at column k."""
    _require_size(n)
    rows = []
    start = 1
    for m in range(n):
        if m:
            start = exact_div(start * 2 * (2 * m - 1), m)
        row = [0] * n
        cur = start
        row[0] = cur
        for k in range(m):
            cur = exact_div(cur * (m - k), m + k + 1)
            row[k + 1] = cur
        rows.append(row)
    return from_rows(rows)


def d_matrix(n: int) -> Diagonal:
    """Diagonal (1, -2, 2, -2, ...): a leading 1, then alternating -2 and 2."""
    _require_size(n)
    return Diagonal((1,) + tuple(-2 if m % 2 else 2 for m in range(1, n)))


def matmul(a, b):
    """Exact matrix product; a Diagonal operand becomes a row or column scaling."""
    if isinstance(a, Diagonal):
        if a.n != b.shape[0]:
            raise ValueError(f"dimension mismatch: {a.n} vs {b.shape}")
        return _frozen(np.array(a.diag, dtype=object)[:, None] * b)
    if isinstance(b, Diagonal):
        if a.shape[1] != b.n:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.n}")
        return _frozen(a * np.array(b.diag, dtype=object)[None, :])
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return _frozen(a @ b)


def equal(a, b) -> bool:
    """Exact entrywise equality of two dense matrices."""
    return a.shape == b.shape and bool((a == b).all())
