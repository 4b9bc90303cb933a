"""Matrix generators against the scalar kernels, plus the matrix algebra."""
from fractions import Fraction
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recpascal import (
    check_ldl,
    check_von_szily_upto,
    d_matrix,
    exact_div,
    from_rows,
    g_matrix,
    identity,
    invert_rational,
    l_inverse_matrix,
    l_matrix,
    matmul,
    pascal_matrix,
    reciprocal_pascal,
    super_catalan_matrix,
)
from recpascal import identities, matrices
from recpascal.matrices import congruence

from oracles import binomial_factorial, matmul_triple_sum, super_catalan_factorial

GENERATORS = (pascal_matrix, reciprocal_pascal, super_catalan_matrix,
              g_matrix, l_matrix, l_inverse_matrix, d_matrix)


def test_pascal_pinned():
    assert pascal_matrix(1).tolist() == [[1]]
    assert pascal_matrix(3).tolist() == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]


def test_reciprocal_pinned():
    assert reciprocal_pascal(3).tolist() == [
        [1, 1, 1],
        [1, Fraction(1, 2), Fraction(1, 3)],
        [1, Fraction(1, 3), Fraction(1, 6)],
    ]


def test_super_catalan_matrix_pinned():
    assert super_catalan_matrix(3).tolist() == [[1, 2, 6], [2, 2, 4], [6, 4, 6]]


def test_g_matrix_pinned():
    assert g_matrix(1) == (1,)
    assert g_matrix(4) == (1, 2, 6, 20)


def test_l_matrix_pinned():
    assert l_matrix(3).tolist() == [[1, 0, 0], [2, 1, 0], [6, 4, 1]]


def test_l_inverse_pinned():
    assert l_inverse_matrix(1).tolist() == [[1]]
    assert l_inverse_matrix(3).tolist() == [[1, 0, 0], [-2, 1, 0], [2, -4, 1]]


def test_l_inverse_first_column():
    assert [row[0] for row in l_inverse_matrix(4)] == [1, -2, 2, -2]


def test_l_inverse_multiplies_back_in_plain_ints():
    for n in range(1, 65):
        linv = l_inverse_matrix(n)
        assert matmul(l_matrix(n), linv) == identity(n), n
        assert all(isinstance(x, int) for row in linv for x in row)


def test_l_inverse_agrees_with_gauss_jordan():
    for n in (1, 2, 5, 9, 16):
        assert l_inverse_matrix(n) == invert_rational(l_matrix(n))


def test_l_inverse_matches_its_closed_form():
    # (-1)^(m-k) 2m/(m+k) C(m+k, 2k) below the diagonal, binomials from
    # factorials, against the generator's running-product recurrence
    for n in range(1, 49):
        linv = l_inverse_matrix(n)
        for m in range(n):
            for k in range(n):
                if m == 0 or k > m:
                    expected = int(m == k)
                else:
                    expected = ((-1) ** (m - k) * Fraction(2 * m, m + k)
                                * binomial_factorial(m + k, 2 * k))
                assert linv[m][k] == expected, (n, m, k)


def test_d_matrix_pinned():
    assert d_matrix(1) == (1,)
    assert d_matrix(4) == (1, -2, 2, -2)
    assert d_matrix(5) == (1, -2, 2, -2, 2)
    # every entry divides 2, so 2 D^-1 is an integer diagonal
    assert tuple(exact_div(2, d) for d in d_matrix(5)) == (2, -1, 1, -1, 1)


def test_generators_match_scalar_kernels():
    # every generated entry against the one-off kernel, all sizes to 16
    for n in range(1, 17):
        p = pascal_matrix(n)
        r = reciprocal_pascal(n)
        s = super_catalan_matrix(n)
        l = l_matrix(n)
        g = g_matrix(n)
        for i in range(n):
            assert g[i] == comb(2 * i, i)
            for j in range(n):
                assert p[i][j] == comb(i + j, i)
                assert r[i][j] == Fraction(1, comb(i + j, i))
                assert s[i][j] == super_catalan_factorial(i, j)
                assert l[i][j] == (comb(2 * i, i + j) if j <= i else 0)


def test_pascal_matrix_matches_binomials_at_benchmark_size():
    # prefix sums reach every entry of the size the sequence benchmark runs
    n = 400
    p = pascal_matrix(n)
    assert p.shape == (n, n)
    for i, row in enumerate(p):
        assert row == tuple(comb(i + j, i) for j in range(n)), i


def test_symmetric_generators_equal_their_transpose():
    for n in range(1, 65):
        for gen in (pascal_matrix, reciprocal_pascal, super_catalan_matrix):
            m = gen(n)
            assert m == m.T, (gen.__name__, n)


def test_l_matrix_unit_lower_triangular():
    # the A094527 and A110162 readings skip the upper triangles of L and L^-1
    for gen in (l_matrix, l_inverse_matrix):
        for n in range(1, 65):
            l = gen(n)
            for i in range(n):
                assert l[i][i] == 1, (gen.__name__, n, i)
                for j in range(i + 1, n):
                    assert l[i][j] == 0, (gen.__name__, n, i, j)


def test_reciprocal_is_hadamard_inverse_of_pascal():
    for n in range(1, 65):
        p = pascal_matrix(n)
        r = reciprocal_pascal(n)
        for i in range(n):
            for j in range(n):
                assert r[i][j] == Fraction(1, p[i][j])


def test_every_generator_rejects_size_zero():
    for gen in GENERATORS:
        with pytest.raises(ValueError):
            gen(0)
        with pytest.raises(ValueError):
            gen(-3)


def test_generated_matrices_are_frozen():
    m = pascal_matrix(3)
    with pytest.raises(TypeError):
        m[0][0] = 5
    with pytest.raises(TypeError):
        m[0] = (5, 5, 5)


def test_matmul_pinned():
    m = pascal_matrix(4)
    assert matmul(identity(4), m) == m
    assert matmul(m, identity(4)) == m
    # a full row against columns with leading zeros: the row's span slice is
    # cut at each column's first nonzero entry
    for a, b in ((reciprocal_pascal(6), l_matrix(6)),
                 (pascal_matrix(6), l_inverse_matrix(6))):
        assert matmul(a, b).tolist() == matmul_triple_sum(a, b)


def test_matmul_matches_dense_diagonal_product():
    # the checks scale rows and columns by a diagonal tuple directly; that
    # must equal the product with the dense diagonal matrix
    g = g_matrix(5)
    m = pascal_matrix(5)
    dense_g = matrices._dense_diagonal(g)
    assert matmul(dense_g, m) == from_rows([[g[i] * x for x in row] for i, row in enumerate(m)])
    assert matmul(m, dense_g) == from_rows(map(mul, row, g) for row in m)


entries = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)


def dense(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(from_rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_matmul_rectangular_matches_explicit_sums(rows, inner, cols, data):
    a = data.draw(dense(rows, inner))
    b = data.draw(dense(inner, cols))
    expected = matmul_triple_sum(a, b)
    product = matmul(a, b)
    assert product.shape == (rows, cols)
    assert product.tolist() == expected
    for m in (a, b, product):
        assert m.T.T == m
        assert m.T.shape == m.shape[::-1]


@st.composite
def zero_spans(draw, rows, cols):
    """A matrix whose zeros, ints or Fractions, make it triangular, banded,
    zero on one diagonal, or zero on some whole rows and columns."""
    m = draw(dense(rows, cols)).tolist()
    zero = draw(st.sampled_from([0, Fraction(0)]))
    off = draw(st.integers(-cols, cols))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    keep = draw(st.sampled_from(list({
        "dense": lambda i, j: True,
        "lower": lambda i, j: j - i <= off,
        "upper": lambda i, j: j - i >= off,
        "band": lambda i, j: abs(j - i - off) <= 1,
        "zero diagonal": lambda i, j: j - i != off,
        "zero lines": lambda i, j: i not in zero_rows and j not in zero_cols,
    }.items())))[1]
    return from_rows([x if keep(i, j) else zero for j, x in enumerate(row)]
                     for i, row in enumerate(m))


sizes = st.integers(1, 7)


@settings(max_examples=100, deadline=None)
@given(sizes, sizes, sizes, st.data())
def test_matmul_matches_triple_sum_across_zero_spans(rows, inner, cols, data):
    a = data.draw(zero_spans(rows, inner), label="a")
    b = data.draw(zero_spans(inner, cols), label="b")
    assert matmul(a, b).tolist() == matmul_triple_sum(a, b)


@settings(max_examples=100, deadline=None)
@given(sizes, sizes, st.data())
def test_congruence_is_symmetric_and_matches_triple_sum(rows, inner, data):
    # b diag(d) b^T for a rational d, zeros allowed in d
    b = data.draw(zero_spans(rows, inner), label="b")
    d = data.draw(st.lists(entries, min_size=inner, max_size=inner), label="d")
    product = congruence(b, d)
    bd = [[x * dk for x, dk in zip(row, d)] for row in b]
    assert product.tolist() == matmul_triple_sum(bd, b.T)
    assert product == product.T


def test_congruences_of_the_paper_form_only_the_upper_triangle(monkeypatch):
    n = 9
    assert congruence(l_matrix(n), d_matrix(n)) == super_catalan_matrix(n)
    formed, row_times = [], matrices._row_times

    def counting(row, trimmed):
        out = row_times(row, trimmed)
        formed.extend(out)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(matrices, "_row_times", counting)
        congruence(l_matrix(n), d_matrix(n))
    assert len(formed) == n * (n + 1) // 2

    def failing(a, b):
        raise AssertionError("the checks of S = L D L^T form no general product")

    monkeypatch.setattr(identities, "matmul", failing)
    assert check_ldl(n).passed
    assert check_von_szily_upto(n).passed


def test_congruence_diagonal_length_mismatch():
    for d in ((1, -2), (1, -2, 2, -2)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            congruence(l_matrix(3), d)


def test_matmul_mixed_product_promotes_to_fractions():
    out = matmul(reciprocal_pascal(3), pascal_matrix(3))
    assert any(isinstance(x, Fraction) for row in out for x in row)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(pascal_matrix(3), pascal_matrix(4))


def test_transpose_pinned():
    m = from_rows([[1, 2], [3, 4]])
    assert m.T.tolist() == [[1, 3], [2, 4]]


def test_equal_compares_shape_and_entries():
    g = matrices._dense_diagonal(g_matrix(3))
    assert g == from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 6]])
    assert g != from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 7]])
    assert pascal_matrix(2) != pascal_matrix(3)
    assert pascal_matrix(3) != super_catalan_matrix(3)


def test_diagonal_validation():
    with pytest.raises(ValueError):
        matrices._dense_diagonal(())
    with pytest.raises(ValueError):
        matrices._dense_diagonal([])
    for diagonal in (g_matrix, d_matrix):
        with pytest.raises(ValueError):
            diagonal(0)


def test_diagonal_is_an_immutable_value():
    for diagonal in (g_matrix, d_matrix):
        d = diagonal(4)
        assert type(d) is tuple and all(type(x) is int for x in d)
        assert d == diagonal(4) and hash(d) == hash(diagonal(4))
        assert d != diagonal(5)
        with pytest.raises(TypeError):
            d[0] = 5
    assert g_matrix(2) != d_matrix(2)


def test_from_rows_rejects_ragged_input():
    with pytest.raises(ValueError):
        from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        from_rows([])
