"""Matrix generators against the scalar kernels, plus the matrix algebra."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recpascal import (
    Diagonal,
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
from recpascal import matrices

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
    assert g_matrix(1).diag == (1,)
    assert g_matrix(4).diag == (1, 2, 6, 20)


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
    assert d_matrix(1).diag == (1,)
    assert d_matrix(4).diag == (1, -2, 2, -2)
    assert d_matrix(5).diag == (1, -2, 2, -2, 2)
    # every entry divides 2, so 2 D^-1 is an integer diagonal
    assert tuple(exact_div(2, d) for d in d_matrix(5).diag) == (2, -1, 1, -1, 1)


def test_generators_match_scalar_kernels():
    # every generated entry against the one-off kernel, all sizes to 16
    for n in range(1, 17):
        p = pascal_matrix(n)
        r = reciprocal_pascal(n)
        s = super_catalan_matrix(n)
        l = l_matrix(n)
        g = g_matrix(n)
        for i in range(n):
            assert g.diag[i] == comb(2 * i, i)
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
    d = Diagonal((1, 2))
    ones = from_rows([[1, 1], [1, 1]])
    assert matmul(d, ones).tolist() == [[1, 1], [2, 2]]
    assert matmul(ones, d).tolist() == [[1, 2], [1, 2]]
    m = pascal_matrix(4)
    assert matmul(identity(4), m) == m
    assert matmul(m, identity(4)) == m
    # a full row against columns with leading zeros: the row's span slice is
    # cut at each column's first nonzero entry
    for a, b in ((reciprocal_pascal(6), l_matrix(6)),
                 (pascal_matrix(6), l_inverse_matrix(6))):
        assert matmul(a, b).tolist() == matmul_triple_sum(a, b)


def test_matmul_matches_dense_diagonal_product():
    g = g_matrix(5)
    m = pascal_matrix(5)
    assert matmul(g, m) == matmul(g.to_dense(), m)
    assert matmul(m, g) == matmul(m, g.to_dense())


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
    d = Diagonal(data.draw(st.lists(entries, min_size=inner, max_size=inner)))
    expected = matmul_triple_sum(a, b)
    product = matmul(a, b)
    assert product.shape == (rows, cols)
    assert product.tolist() == expected
    assert matmul(d, b) == matmul(d.to_dense(), b)
    assert matmul(a, d) == matmul(a, d.to_dense())
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


def congruent_pair(data, inner, cols):
    """b and a = b^T D for a rational diagonal D, zeros allowed in D."""
    b = data.draw(zero_spans(inner, cols), label="b")
    d = data.draw(st.lists(entries, min_size=inner, max_size=inner), label="d")
    return [[b[k][i] * d[k] for k in range(inner)] for i in range(cols)], b


@settings(max_examples=100, deadline=None)
@given(sizes, sizes, st.data())
def test_matmul_congruence_is_symmetric_and_matches_triple_sum(inner, cols, data):
    a, b = congruent_pair(data, inner, cols)
    a = from_rows(a)
    assert matrices._is_congruence(a, b)
    product = matmul(a, b)
    assert product.tolist() == matmul_triple_sum(a, b)
    assert product == product.T


@settings(max_examples=100, deadline=None)
@given(sizes, st.integers(2, 7), st.data())
def test_matmul_near_congruence_takes_the_general_path(inner, cols, data):
    # a = b^T D with a[j][k] moved off d_k b[k][j], where row k of b is
    # nonzero at some f != j: column k of a is then no multiple of row k
    a, b = congruent_pair(data, inner, cols)
    nonzero_rows = [k for k in range(inner) if any(b[k])]
    assume(nonzero_rows)
    k = data.draw(st.sampled_from(nonzero_rows), label="k")
    f = next(i for i, x in enumerate(b[k]) if x)
    j = data.draw(st.sampled_from([j for j in range(cols) if j != f]), label="j")
    a[j][k] += data.draw(entries.filter(bool), label="delta")
    a = from_rows(a)
    assert not matrices._is_congruence(a, b)
    assert matmul(a, b).tolist() == matmul_triple_sum(a, b)


def test_matmul_congruences_of_the_paper_take_the_symmetric_path():
    n = 9
    l, linv = l_matrix(n), l_inverse_matrix(n)
    d2 = Diagonal(tuple(2 // d for d in d_matrix(n).diag))
    assert matrices._is_congruence(matmul(l, d_matrix(n)), l.T)
    assert matrices._is_congruence(matmul(linv.T, d2), linv)
    assert not matrices._is_congruence(l, linv)
    # the symmetric P is P^T I, but R is no diagonal scaling of P's rows
    assert matrices._is_congruence(pascal_matrix(n), pascal_matrix(n))
    assert not matrices._is_congruence(reciprocal_pascal(n), pascal_matrix(n))


def test_matmul_mixed_product_promotes_to_fractions():
    out = matmul(reciprocal_pascal(3), pascal_matrix(3))
    assert any(isinstance(x, Fraction) for row in out for x in row)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(pascal_matrix(3), pascal_matrix(4))
    with pytest.raises(ValueError):
        matmul(Diagonal((1, 2)), pascal_matrix(3))
    with pytest.raises(ValueError):
        matmul(pascal_matrix(3), Diagonal((1, 2)))


def test_transpose_pinned():
    m = from_rows([[1, 2], [3, 4]])
    assert m.T.tolist() == [[1, 3], [2, 4]]


def test_equal_compares_shape_and_entries():
    assert g_matrix(3).to_dense() == from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 6]])
    assert g_matrix(3).to_dense() != from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 7]])
    assert pascal_matrix(2) != pascal_matrix(3)
    assert pascal_matrix(3) != super_catalan_matrix(3)


def test_diagonal_validation():
    with pytest.raises(ValueError):
        Diagonal(())
    with pytest.raises(ValueError):
        Diagonal([])


def test_diagonal_is_an_immutable_value():
    d = Diagonal([1, 2])
    assert d.diag == (1, 2) and type(d.diag) is tuple
    assert d == Diagonal((1, 2)) and hash(d) == hash(Diagonal((1, 2)))
    assert d != Diagonal((1, 3))
    assert d != Diagonal((1, 2, 0))
    with pytest.raises(AttributeError):
        d.diag = (5, 6)
    with pytest.raises(AttributeError):
        d.extra = 1


def test_from_rows_rejects_ragged_input():
    with pytest.raises(ValueError):
        from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        from_rows([])
