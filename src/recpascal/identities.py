"""Executable checks for the factorization identities, plus the production
path that inverts the reciprocal Pascal matrix through its triangular and
diagonal factors.

The inverse R^-1 = G L^-T D^-1 L^-1 G is assembled in plain ints: only
D^-1 = diag(1, -1/2, 1/2, ...) is fractional, and D' = 2 D^-1 is integer.
So the route forms 2 R^-1 = G L^-T D' L^-1 G and halves every entry with a
checked division; that halving is the integrality claim, checked.

The super Catalan array S has one route, matrices.super_catalan_matrix, and
every check compares against it; the tests pin it to the factorial ratio.
Von Szily's identity, the scalar form of S = L D L^T, is checked for every
index pair as one two-sided integer product of math.comb values.  Its folded
one-sided form is entrywise L D L^T, which check_ldl compares.

Checks never raise on a mathematical failure.  A check body returns its
first counterexample, check_integrality's for an odd entry of 2 R^-1 too;
_check times the body, builds the CheckReport and makes an ExactnessError
raised on the way, say by a faulty generator, the counterexample.  The
production routes, r_inverse_via_factorization here and det_inverse_sequence
in sequences, raise ExactnessError instead when a claimed integer is not one,
and det_comparison when a leading minor of R is zero.
"""
from __future__ import annotations

import time
from collections import namedtuple
from functools import wraps
from math import comb

from .combinatorics import ExactnessError, exact_div
from .linalg import _scaled_rows, leading_minors
from .matrices import (
    Diagonal,
    Matrix,
    _require_size,
    d_matrix,
    from_rows,
    g_matrix,
    identity,
    l_inverse_matrix,
    l_matrix,
    matmul,
    reciprocal_pascal,
    super_catalan_matrix,
)


class CheckReport(namedtuple("CheckReport", "name n counterexample elapsed")):
    """Outcome of one identity check.

    counterexample is None exactly when the check passed; otherwise it is
    (i, j, expected, actual) for the first failing location.  Scalar checks
    use location (0, 0); sequence checks put the sequence index in i.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        ce = None
        if self.counterexample is not None:
            i, j, expected, actual = self.counterexample
            ce = {"i": i, "j": j, "expected": str(expected), "actual": str(actual)}
        return {
            "name": self.name,
            "n": self.n,
            "passed": self.passed,
            "counterexample": ce,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


_CHECKS = {}


def _check(name: str):
    """Decorator making the check `name`, listed in _CHECKS in the order
    defined (the report order), from a body returning the first counterexample
    or None; an ExactnessError e becomes (0, 0, "an exact division", str(e))."""
    def decorate(body):
        @wraps(body)
        def check(n: int) -> CheckReport:
            start = time.perf_counter()
            try:
                mismatch = body(n)
            except ExactnessError as exc:
                mismatch = (0, 0, "an exact division", str(exc))
            return CheckReport(name, n, mismatch, time.perf_counter() - start)
        _CHECKS[name] = check
        return check
    return decorate


def _first_mismatch(expected, actual):
    """Row-major scan for the first differing entry; None when equal."""
    if expected.shape != actual.shape:
        raise ValueError(f"shape mismatch: {expected.shape} vs {actual.shape}")
    for i, (erow, arow) in enumerate(zip(expected, actual)):
        for j, (e, a) in enumerate(zip(erow, arow)):
            if e != a:
                return (i, j, e, a)
    return None


def _sign(k: int) -> int:
    # (-1)**k is a float for negative k, so take the parity instead.
    return -1 if k & 1 else 1


@_check("grg")
def check_grg(n: int) -> CheckReport:
    """Super Catalan array against the central-binomial-scaled reciprocal array."""
    g = g_matrix(n)
    return _first_mismatch(super_catalan_matrix(n), matmul(matmul(g, reciprocal_pascal(n)), g))


@_check("ldl")
def check_ldl(n: int) -> CheckReport:
    """Super Catalan array against the triangular-diagonal-triangular product."""
    l = l_matrix(n)
    return _first_mismatch(super_catalan_matrix(n), matmul(matmul(l, d_matrix(n)), l.T))


@_check("vonszily")
def check_von_szily_upto(n: int) -> CheckReport:
    """Von Szily's identity sum_j (-1)^j C(2m, m+j) C(2m', m'-j) = S(m, m')
    for every index pair below n, as one integer product.

    Row m of T holds C(2m, m+j) for j = -(n-1)..n-1, zero where |j| > m; each
    entry is one math.comb call, so the table is independent of l_matrix.
    The signed T times its column-reversed transpose gives every two-sided
    sum at once, compared with super_catalan_matrix(n).
    """
    _require_size(n)
    t = [[comb(2 * m, m + j) if -m <= j <= m else 0 for j in range(1 - n, n)]
         for m in range(n)]
    signed = from_rows([_sign(j) * x for j, x in enumerate(row, 1 - n)] for row in t)
    reversed_t = from_rows(row[::-1] for row in t)
    return _first_mismatch(super_catalan_matrix(n), matmul(signed, reversed_t.T))


@_check("parity")
def check_l_inverse_column(n: int) -> CheckReport:
    """First column of the triangle's inverse against the alternating diagonal.

    L . L^-1 = I is checked exactly first (it pins the leading 1 at (0, 0)),
    so the column read is the true inverse's, not only the closed form's.
    Every entry of D below the leading 1 is +-2, so equality with D's
    diagonal is the parity claim: column 0 is even below its 1."""
    linv = l_inverse_matrix(n)
    return (_first_mismatch(identity(n), matmul(l_matrix(n), linv))
            or _first_mismatch(from_rows([x] for x in d_matrix(n).diag),
                               from_rows([row[0]] for row in linv)))


def _doubled_r_inverse(n: int) -> Matrix:
    """2 R^-1 = G L^-T D' L^-1 G in plain ints, with D' = 2 D^-1 integer."""
    linv = l_inverse_matrix(n)
    d2 = Diagonal(tuple(exact_div(2, d) for d in d_matrix(n).diag))
    g = g_matrix(n)
    return matmul(matmul(g, matmul(matmul(linv.T, d2), linv)), g)


def _first_odd(m: Matrix):
    """(i, j, x) for the first odd entry x of m in row-major order, or None."""
    return next(((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x & 1),
                None)


def _halve(m: Matrix) -> Matrix:
    """Entrywise checked halving: the first odd entry, in row-major order,
    raises through exact_div rather than rounds; then every entry is even
    and a shift halves it."""
    if (odd := _first_odd(m)) is not None:
        exact_div(odd[2], 2)
    return from_rows([x >> 1 for x in row] for row in m)


def r_inverse_via_factorization(n: int) -> Matrix:
    """Integer inverse of the reciprocal Pascal matrix via its factors.

    Sandwiches the doubled reciprocal alternating diagonal between the
    inverted triangle and its transpose, scales by the central binomials,
    and halves every entry with a checked division: a failed integrality
    claim aborts rather than rounds.
    """
    return _halve(_doubled_r_inverse(n))


def r_inverse_00(n: int) -> int:
    """Top-left entry of the inverse, from the closed expression
    1 + sum of column0[i]^2 / d[i]; alternates between +1 and -1 with n."""
    col = [row[0] for row in l_inverse_matrix(n)]
    return 1 + sum(exact_div(c * c, d) for c, d in zip(col[1:], d_matrix(n).diag[1:]))


def det_r_inverse_formula(n: int) -> Fraction:
    """Closed-form determinant of the integer inverse, evaluated verbatim:
    (-1)^(n(n+1)/2) / 2^(n-1) times the product of squared central binomials."""
    from fractions import Fraction

    prod = 1
    for c in g_matrix(n).diag:
        prod *= c * c
    sign = _sign(n * (n + 1) // 2)
    return Fraction(sign * prod, 2 ** (n - 1))


def det_comparison(n: int) -> dict:
    """Closed-form determinant next to the elimination oracle's value.

    The oracle is 1 / det(R), with det(R) from one primitive-row elimination
    of the reciprocal Pascal matrix; no inverse is formed.
    Magnitude and sign agreement are reported separately: the magnitudes
    always agree, while the closed form's sign factor disagrees with the
    oracle for odd n.  Both values are kept exact so the discrepancy stays
    visible instead of being smoothed over.  A zero leading minor raises
    ExactnessError: each leading block of R is a smaller R, claimed invertible.
    """
    formula = det_r_inverse_formula(n)
    try:
        oracle = 1 / leading_minors(reciprocal_pascal(n))[-1]
    except ValueError as exc:
        raise ExactnessError(f"1 / det(R_{n}): {exc}") from None
    return {
        "formula": formula,
        "oracle": oracle,
        "magnitude_match": abs(formula) == abs(oracle),
        "sign_match": (formula > 0) == (oracle > 0),
    }


@_check("integrality")
def check_integrality(n: int) -> CheckReport:
    """Factorization inverse is all-integer, multiplies back to the identity,
    and agrees with the closed expression at (0, 0).

    The product R . R^-1 = I is formed exactly in plain ints, with each row
    of R scaled by the lcm of its denominators, and compared with
    diag(lcm_i); only a mismatching entry is divided back by its row's lcm
    to report the entry of R . R^-1.  For a square R that makes the checked
    matrix the unique inverse, so no second inversion is needed.
    """
    from fractions import Fraction

    doubled = _doubled_r_inverse(n)
    try:
        rinv = _halve(doubled)
    except ExactnessError:
        i, j, x = _first_odd(doubled)
        return (i, j, "an integer entry", Fraction(x, 2))
    scaled, lcms = _scaled_rows(reciprocal_pascal(n))
    product = matmul(from_rows(scaled), rinv)
    mismatch = _first_mismatch(
        from_rows([f * (i == j) for j in range(n)] for i, f in enumerate(lcms)), product)
    if mismatch is not None:
        i, j, _, x = mismatch
        return (i, j, int(i == j), Fraction(x, lcms[i]))
    closed = r_inverse_00(n)
    return None if rinv[0][0] == closed else (0, 0, closed, rinv[0][0])


@_check("det")
def check_det(n: int) -> CheckReport:
    """Determinant magnitudes as a report; the sign note is not a failure."""
    cmp = det_comparison(n)
    return None if cmp["magnitude_match"] else (0, 0, abs(cmp["formula"]), abs(cmp["oracle"]))
