"""Matrix generators against the scalar kernels, plus the matrix algebra."""
from fractions import Fraction

import numpy as np
import pytest

from recpascal import (
    Diagonal,
    binomial,
    d_matrix,
    equal,
    exact_div,
    from_rows,
    g_matrix,
    identity,
    l_matrix,
    matmul,
    pascal_matrix,
    reciprocal_pascal,
    super_catalan,
    super_catalan_matrix,
)

GENERATORS = (pascal_matrix, reciprocal_pascal, super_catalan_matrix,
              g_matrix, l_matrix, d_matrix)


def rows(m):
    return [list(r) for r in m]


def test_pascal_pinned():
    assert rows(pascal_matrix(1)) == [[1]]
    assert rows(pascal_matrix(3)) == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]


def test_reciprocal_pinned():
    assert rows(reciprocal_pascal(3)) == [
        [1, 1, 1],
        [1, Fraction(1, 2), Fraction(1, 3)],
        [1, Fraction(1, 3), Fraction(1, 6)],
    ]


def test_super_catalan_matrix_pinned():
    assert rows(super_catalan_matrix(3)) == [[1, 2, 6], [2, 2, 4], [6, 4, 6]]


def test_g_matrix_pinned():
    assert g_matrix(1).diag == (1,)
    assert g_matrix(4).diag == (1, 2, 6, 20)


def test_l_matrix_pinned():
    assert rows(l_matrix(3)) == [[1, 0, 0], [2, 1, 0], [6, 4, 1]]


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
            assert g.diag[i] == binomial(2 * i, i)
            for j in range(n):
                assert p[i, j] == binomial(i + j, i)
                assert r[i, j] == Fraction(1, binomial(i + j, i))
                assert s[i, j] == super_catalan(i, j)
                assert l[i, j] == (binomial(2 * i, i + j) if j <= i else 0)


def test_symmetric_generators_equal_their_transpose():
    for n in range(1, 65):
        for gen in (pascal_matrix, reciprocal_pascal, super_catalan_matrix):
            m = gen(n)
            assert equal(m, m.T), (gen.__name__, n)


def test_l_matrix_unit_lower_triangular():
    for n in range(1, 65):
        l = l_matrix(n)
        for i in range(n):
            assert l[i, i] == 1
            for j in range(i + 1, n):
                assert l[i, j] == 0


def test_reciprocal_is_hadamard_inverse_of_pascal():
    for n in range(1, 65):
        p = pascal_matrix(n)
        r = reciprocal_pascal(n)
        for i in range(n):
            for j in range(n):
                assert r[i, j] == Fraction(1, p[i, j])


def test_every_generator_rejects_size_zero():
    for gen in GENERATORS:
        with pytest.raises(ValueError):
            gen(0)
        with pytest.raises(ValueError):
            gen(-3)


def test_generated_matrices_are_frozen():
    m = pascal_matrix(3)
    assert m.flags.writeable is False
    with pytest.raises(ValueError):
        m[0, 0] = 5


def test_matmul_pinned():
    d = Diagonal((1, 2))
    ones = from_rows([[1, 1], [1, 1]])
    assert rows(matmul(d, ones)) == [[1, 1], [2, 2]]
    assert rows(matmul(ones, d)) == [[1, 2], [1, 2]]
    m = pascal_matrix(4)
    assert equal(matmul(identity(4), m), m)
    assert equal(matmul(m, identity(4)), m)


def test_matmul_matches_dense_diagonal_product():
    g = g_matrix(5)
    m = pascal_matrix(5)
    assert equal(matmul(g, m), matmul(g.to_dense(), m))
    assert equal(matmul(m, g), matmul(m, g.to_dense()))


def test_matmul_mixed_product_promotes_to_fractions():
    out = matmul(reciprocal_pascal(3), pascal_matrix(3))
    assert any(isinstance(x, Fraction) for x in out.flat)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(pascal_matrix(3), pascal_matrix(4))
    with pytest.raises(ValueError):
        matmul(Diagonal((1, 2)), pascal_matrix(3))
    with pytest.raises(ValueError):
        matmul(pascal_matrix(3), Diagonal((1, 2)))


def test_transpose_pinned():
    m = from_rows([[1, 2], [3, 4]])
    assert rows(m.T) == [[1, 3], [2, 4]]


def test_equal_compares_shape_and_entries():
    assert equal(g_matrix(3).to_dense(), from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 6]]))
    assert not equal(g_matrix(3).to_dense(), from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 7]]))
    assert not equal(pascal_matrix(2), pascal_matrix(3))
    assert not equal(pascal_matrix(3), super_catalan_matrix(3))


def test_diagonal_validation():
    with pytest.raises(ValueError):
        Diagonal(())


def test_from_rows_rejects_ragged_input():
    with pytest.raises(ValueError):
        from_rows([[1, 2], [3]])
