"""Executable checks for the factorization identities, plus the production
path that inverts the reciprocal Pascal matrix through its triangular and
diagonal factors.

The inverse R^-1 = G L^-T D^-1 L^-1 G is built in plain ints.  The route
applies it to two vectors, e_0 and k = (0, 1, ..., n-1): c = R^-1 e_0 and
v = R^-1 k.  Only D^-1 = diag(1, -1/2, 1/2, ...) is fractional, and on
those two vectors it divides exactly, with a check: L^-1 G e_0 is D's
diagonal and L^-1 G k is even.  R = F H F with F = diag(i!) and
H[i][j] = 1/(i+j)! a Hankel matrix, and the inverse of a Hankel matrix
has displacement rank 2, so every other entry of R^-1 follows from c and
v by a recurrence run upward from a zero row, O(1) products and one
checked division each: O(n^2) work in all, where the congruence
L^-T D^-1 L^-1 costs n^3/6 products.  Every division, D^-1's included,
is checked, so the integrality claim is checked at every entry; a
division cannot tell a wrong integer from a right one, so every row sum
is checked against row 0 of R R^-1 = I too.

The super Catalan array S has one route, matrices.super_catalan_matrix, and
every check compares against it; the tests pin it to the factorial ratio.
Von Szily's identity, the scalar form of S = L D L^T, is checked for every
index pair as one two-sided integer product of math.comb values.  Its folded
one-sided form is entrywise L D L^T, which check_ldl compares.

Checks never raise on a mathematical failure.  A check body returns its
first counterexample; _check times the body, builds the CheckReport and
makes an ExactnessError raised on the way the counterexample it carries,
say a wrong entry of R^-1, or else its message.  The production routes,
r_inverse_via_factorization here and det_inverse_sequence in sequences,
raise ExactnessError instead when a claimed integer is not one, and
det_comparison when a leading minor of R is zero.
"""
from __future__ import annotations

import time
from collections import namedtuple
from functools import wraps
from math import comb

from .combinatorics import ExactnessError, exact_div
from .linalg import _scaled_rows, leading_minors
from .matrices import (
    Matrix,
    _dense_diagonal,
    _require_size,
    congruence,
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
    or None; an ExactnessError e becomes its counterexample, if it carries
    one, else (0, 0, "an exact division", str(e))."""
    def decorate(body):
        @wraps(body)
        def check(n: int) -> CheckReport:
            start = time.perf_counter()
            try:
                mismatch = body(n)
            except ExactnessError as exc:
                mismatch = exc.counterexample or (0, 0, "an exact division", str(exc))
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
    """Super Catalan array against the central-binomial-scaled reciprocal
    array G R G, each entry of R scaled once by the int g_i g_j."""
    g = g_matrix(n)
    return _first_mismatch(super_catalan_matrix(n), from_rows(
        [gi * gj * x for gj, x in zip(g, row)] for gi, row in zip(g, reciprocal_pascal(n))))


@_check("ldl")
def check_ldl(n: int) -> CheckReport:
    """Super Catalan array against the triangular-diagonal-triangular product
    L D L^T, formed as one congruence of L by D's diagonal."""
    ldl = congruence(l_matrix(n), d_matrix(n))
    return _first_mismatch(super_catalan_matrix(n), ldl)


@_check("vonszily")
def check_von_szily_upto(n: int) -> CheckReport:
    """Von Szily's identity sum_j (-1)^j C(2m, m+j) C(2m', m'+j) = S(m, m')
    for every index pair below n, as one integer product.

    Row m of T holds C(2m, m+j) for j = -(n-1)..n-1, zero where |j| > m; each
    entry is one math.comb call, so the table is independent of l_matrix.
    The congruence T diag((-1)^j) T^T gives every two-sided sum at once,
    compared with super_catalan_matrix(n).
    """
    _require_size(n)
    t = from_rows([comb(2 * m, m + j) if -m <= j <= m else 0 for j in range(1 - n, n)]
                  for m in range(n))
    signs = [_sign(j) for j in range(1 - n, n)]
    return _first_mismatch(super_catalan_matrix(n), congruence(t, signs))


@_check("parity")
def check_l_inverse_column(n: int) -> CheckReport:
    """First column of the triangle's inverse against the alternating diagonal.

    L . L^-1 = I is checked exactly first (it pins the leading 1 at (0, 0)),
    so the column read is the true inverse's, not only the closed form's.
    Every entry of D below the leading 1 is +-2, so equality with D's
    diagonal is the parity claim: column 0 is even below its 1."""
    linv = l_inverse_matrix(n)
    return (_first_mismatch(identity(n), matmul(l_matrix(n), linv))
            or _first_mismatch(from_rows([x] for x in d_matrix(n)),
                               from_rows([row[0]] for row in linv)))


def _divide_entries(of: str, cells, nums, dens) -> list:
    """nums[k] / dens[k], each checked, as the entries cells[k] = (i, j) of
    the matrix `of`; the first remainder a / b raises ExactnessError naming
    its entry, with counterexample (i, j, "an integer entry", a / b), the
    claim read "an integer entry of `of`" where `of` is not R^-1 itself."""
    try:
        return list(map(exact_div, nums, dens))
    except ExactnessError as exc:
        from fractions import Fraction

        (i, j), a, b = next(t for t in zip(cells, nums, dens) if t[1] % t[2])
        claim = "an integer entry" if of == "R^-1" else f"an integer entry of {of}"
        raise ExactnessError(f"entry ({i}, {j}) of {of}: {exc}",
                             (i, j, claim, Fraction(a, b))) from None


def _r_inverse_columns(n: int) -> tuple[tuple, tuple]:
    """c = R^-1 e_0 and v = R^-1 k, k = (0, 1, ..., n-1), as int tuples.

    R^-1 b = G L^-T D^-1 L^-1 G b is formed right to left for b = e_0 and
    then for b = k: G b is written down directly, D^-1 divides and G
    scales entrywise, and L^-1 and L^-T each make one n x 1 product, so
    each step costs O(n^2).  D^-1 divides exactly where it sits:
    L^-1 G e_0 is the first column of L^-1, which is D's diagonal (the
    parity claim), and every entry of G k = (m C(2m, m)) is even.  Each
    division is checked, and the first remainder raises ExactnessError
    naming its entry (m, 0) of the column D^-1 L^-1 G e_0 or D^-1 L^-1 G k.
    """
    linv = l_inverse_matrix(n)
    linv_t = linv.T
    d, g = d_matrix(n), g_matrix(n)
    columns = []
    for b, gb in (("e_0", [int(m == 0) for m in range(n)]),
                  ("k", [m * x for m, x in enumerate(g)])):
        y = matmul(linv, from_rows([x] for x in gb)).T[0]
        w = _divide_entries(f"D^-1 L^-1 G {b}", ((m, 0) for m in range(n)), y, d)
        z = matmul(linv_t, from_rows([x] for x in w))
        columns.append(tuple(x * gm for gm, (x,) in zip(g, z)))
    return tuple(columns)


def _fill(c: tuple, v: tuple) -> Matrix:
    """The symmetric Y = R^-1 from its column c = Y e_0 and v = Y k.

    R = F H F with F = diag(i!) and H[i][j] = 1/(i+j)! a Hankel matrix, so
    Z H - H Z^T = h e_0^T - e_0 h^T for the down-shift Z, and multiplying
    by H^-1 on both sides gives, for 0 <= i < n and 0 <= j < n - 1,

        (j+1) Y[i][j+1] - (i+1) Y[i+1][j] = v_i c_j - c_i v_j,  Y[n][.] = 0.

    Upward from that zero row, row i of the lower triangle is c_i followed
    by ((i+1) Y[i+1][j] + v_i c_j - c_i v_j) / (j+1) for j < i: O(1)
    products and one checked division per entry.  The upper triangle is
    the mirror of the lower.  The divisions check that each entry is an
    integer, not that it is right; row 0 of R is all ones, so row i of Y
    must sum to [i == 0], and a row that does not raises ExactnessError
    with the entry (0, i) of R . Y that it makes wrong as counterexample.
    """
    n = len(c)
    lower, below = [], [0] * n
    for i in range(n - 1, -1, -1):
        ci, vi, k = c[i], v[i], i + 1
        nums = [k * y + vi * cj - ci * vj for y, cj, vj in zip(below, c[:i], v)]
        below = [ci] + _divide_entries("R^-1", ((i, j) for j in range(1, k)), nums, range(1, k))
        lower.append(below)
    lower.reverse()
    rows = [row + [lower[j][i] for j in range(i + 1, n)] for i, row in enumerate(lower)]
    for i, row in enumerate(rows):
        if (s := sum(row)) != (i == 0):
            raise ExactnessError(f"row {i} of R^-1 sums to {s}, not {int(i == 0)}",
                                 (0, i, int(i == 0), s))
    return from_rows(rows)


def r_inverse_via_factorization(n: int) -> Matrix:
    """Integer inverse of the reciprocal Pascal matrix via its factors.

    Two columns of R^-1 come from the factors, G L^-T D^-1 L^-1 G applied
    to two vectors, D^-1 by checked division; the Hankel displacement of R
    then fills every other entry in O(n^2), each by one checked division,
    and every row sum is checked against row 0 of R R^-1 = I.  A wrong
    entry aborts rather than returns: the ExactnessError names it and
    carries it as the counterexample.  check_integrality still multiplies back.
    """
    return _fill(*_r_inverse_columns(n))


def r_inverse_00(n: int) -> int:
    """Top-left entry of the inverse, from the closed expression
    1 + sum of column0[i]^2 / d[i]; alternates between +1 and -1 with n."""
    col = [row[0] for row in l_inverse_matrix(n)]
    return 1 + sum(exact_div(c * c, d) for c, d in zip(col[1:], d_matrix(n)[1:]))


def det_r_inverse_formula(n: int):
    """Closed-form determinant of the integer inverse, evaluated verbatim:
    (-1)^(n(n+1)/2) / 2^(n-1) times the product of squared central binomials."""
    from fractions import Fraction

    prod = 1
    for c in g_matrix(n):
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
    ExactnessError, "a nonzero leading minor" failed: each leading block of
    R is a smaller R, claimed invertible.
    """
    formula = det_r_inverse_formula(n)
    try:
        oracle = 1 / leading_minors(reciprocal_pascal(n))[-1]
    except ValueError as exc:
        msg = f"1 / det(R_{n}): {exc}"
        raise ExactnessError(msg, (0, 0, "a nonzero leading minor", msg)) from None
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
    matrix the unique inverse, so no second inversion is needed.  What the
    route itself finds wrong is reported, by _check, as its ExactnessError
    names it: an entry it cannot divide out exactly, a / b, as
    (i, j, "an integer entry", a / b), or as (m, 0, "an integer entry of
    D^-1 L^-1 G e_0", a / b), k in place of e_0 for the second column; a
    row i summing to s, not [i == 0], as the entry (0, i) of R . R^-1 that
    row makes wrong, (0, i, [i == 0], s).
    """
    from fractions import Fraction

    rinv = r_inverse_via_factorization(n)
    scaled, lcms = _scaled_rows(reciprocal_pascal(n))
    product = matmul(from_rows(scaled), rinv)
    mismatch = _first_mismatch(_dense_diagonal(lcms), product)
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
