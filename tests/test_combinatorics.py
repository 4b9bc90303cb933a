"""Scalar kernels and super Catalan identities against pinned values."""
import math

import pytest
from hypothesis import given, strategies as st

from recpascal import (
    ExactnessError,
    exact_div,
    g_matrix,
    super_catalan_matrix,
)

from oracles import binomial_factorial, super_catalan_factorial


def test_exact_div_divides():
    assert exact_div(12, 3) == 4
    assert exact_div(-12, 3) == -4
    assert exact_div(0, 7) == 0


def test_exact_div_rejects_remainder():
    with pytest.raises(ExactnessError):
        exact_div(7, 2)


# The central binomials C(2m, m) come from g_matrix, the production route.

def test_central_binomial_pinned_values():
    c = g_matrix(6).diag
    assert (c[0], c[2], c[5]) == (1, 6, 252)


def test_central_binomial_is_binomial_2m_m():
    c = g_matrix(65).diag
    for m in range(65):
        assert c[m] == binomial_factorial(2 * m, m)


def test_central_binomial_even_for_positive_m():
    assert all(c % 2 == 0 for c in g_matrix(65).diag[1:])


@given(st.integers(1, 501))
def test_central_binomial_even_property(n):
    assert all(c % 2 == 0 for c in g_matrix(n).diag[1:])


# The super Catalan numbers S(m, n) come from super_catalan_matrix, the
# production route, pinned here to the factorial ratio.
_S = super_catalan_matrix(41)


def test_super_catalan_pinned_values():
    assert _S[0][0] == 1
    assert _S[1][1] == 2
    assert _S[2][1] == 4
    assert _S[2][2] == 6


def test_super_catalan_matches_factorial_oracle():
    for m in range(41):
        for n in range(41):
            assert _S[m][n] == super_catalan_factorial(m, n)


def test_super_catalan_symmetry():
    for m in range(41):
        for n in range(m, 41):
            assert _S[m][n] == _S[n][m]


def test_super_catalan_central_binomial_quotient():
    # S(m,n) * C(m+n, m) == C(2m,m) * C(2n,n), an exact integer relation
    c = g_matrix(41).diag
    for m in range(41):
        for n in range(41):
            lhs = _S[m][n] * math.comb(m + n, m)
            assert lhs == c[m] * c[n]
