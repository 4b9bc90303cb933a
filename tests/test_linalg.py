"""Exact determinants and inverses against slow independent oracles."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from recpascal import (
    from_rows,
    identity,
    invert_rational,
    leading_minors,
    matmul,
    r_inverse_via_factorization,
    reciprocal_pascal,
)

from oracles import det_bareiss, det_cofactor


def test_det_pinned_values():
    assert leading_minors(from_rows([[1]])) == [1]
    assert leading_minors(reciprocal_pascal(3)) == [1, Fraction(-1, 2), Fraction(-1, 36)]


def test_det_matches_cofactor_oracle_on_the_reciprocal_family():
    for n in range(1, 13):
        m = reciprocal_pascal(n)
        assert det_bareiss(m) == det_cofactor(m), n


def test_det_integer_matrices():
    assert det_bareiss(from_rows([[2, 0], [0, 3]])) == 6
    assert det_bareiss(from_rows([[0, 1], [1, 0]])) == -1
    assert det_bareiss(identity(5)) == 1


def test_det_singular_is_zero():
    assert det_bareiss(from_rows([[1, 2], [2, 4]])) == 0
    assert det_bareiss(from_rows([[0, 0], [1, 1]])) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError, match="square matrix required"):
        leading_minors(from_rows([[1, 2, 3], [4, 5, 6]]))


@settings(deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
)
def test_det_matches_cofactor_on_random_integer_matrices(entries):
    m = from_rows(entries)
    assert det_bareiss(m) == det_cofactor(m)


@settings(deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.fractions(
                    min_value=-5, max_value=5, max_denominator=6
                ),
                min_size=n, max_size=n,
            ),
            min_size=n, max_size=n,
        )
    )
)
def test_det_matches_cofactor_on_random_rational_matrices(entries):
    m = from_rows(entries)
    assert det_bareiss(m) == det_cofactor(m)


def test_leading_minors_match_cofactor_on_every_block():
    m = reciprocal_pascal(12)
    blocks = [from_rows(row[:k] for row in m[:k]) for k in range(1, 13)]
    assert leading_minors(m) == [det_cofactor(b) for b in blocks]


def test_leading_minors_raise_on_a_zero_minor():
    # a pivoting elimination swaps rows here; the leading-minor route must not
    with pytest.raises(ValueError, match="size 1 is zero"):
        leading_minors(from_rows([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="size 2 is zero"):
        leading_minors(from_rows([[1, 2], [2, 4]]))
    # row 1 vanishes entirely while column 0 is eliminated, before it pivots
    with pytest.raises(ValueError, match="size 2 is zero"):
        leading_minors(from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 0]]))


def _assert_leading_minors_match_cofactor(entries):
    """Every leading minor equals its cofactor determinant, or the first zero
    one is named in the ValueError."""
    m = from_rows(entries)
    blocks = [from_rows(row[:k] for row in m[:k]) for k in range(1, len(entries) + 1)]
    expected = [det_cofactor(b) for b in blocks]
    if 0 in expected:
        with pytest.raises(ValueError, match=f"size {expected.index(0) + 1} is zero"):
            leading_minors(m)
    else:
        assert leading_minors(m) == expected


@settings(deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
)
def test_leading_minors_match_cofactor_on_random_integer_matrices(entries):
    _assert_leading_minors_match_cofactor(entries)


@st.composite
def rational_matrices_with_row_factors(draw):
    """Square rational matrices, n = 1..5, with zeros drawn often, rows
    scaled by factors that leave their integer entries a common divisor,
    and now and then a row that is a multiple of an earlier one."""
    n = draw(st.integers(1, 5))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    entry = st.one_of(st.just(Fraction(0)), nonzero, nonzero)
    factor = st.sampled_from([1, 2, 6, 12, Fraction(1, 4), Fraction(9, 5)])
    rows = [
        [draw(factor) * x for x in draw(st.lists(entry, min_size=n, max_size=n))]
        for _ in range(n)
    ]
    if n > 1 and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(1, n - 1))
        f = draw(factor)
        rows[i] = [f * x for x in rows[draw(st.integers(0, i - 1))]]
    return rows


@settings(deadline=None)
@given(rational_matrices_with_row_factors())
def test_leading_minors_match_cofactor_on_random_rational_matrices(entries):
    _assert_leading_minors_match_cofactor(entries)


def test_invert_pinned_values():
    assert invert_rational(from_rows([[1]])).tolist() == [[1]]
    assert invert_rational(reciprocal_pascal(2)).tolist() == [[-1, 2], [2, -2]]
    assert invert_rational(from_rows([[1, 0], [0, 2]])).tolist() == [
        [1, 0],
        [0, Fraction(1, 2)],
    ]


def test_invert_times_original_is_identity():
    for n in range(1, 17):
        r = reciprocal_pascal(n)
        inv = invert_rational(r)
        assert matmul(r, inv) == identity(n)
        assert matmul(inv, r) == identity(n)


def test_invert_needs_row_swaps():
    m = from_rows([[0, 1], [1, 0]])
    assert invert_rational(m) == m


def test_invert_swaps_rows_after_column_0():
    # column 0 pivots in place; eliminating it zeroes (1, 1), so column 1
    # swaps rows 1 and 2.  The rows scale by 1, 3 and 2 to become integers.
    m = from_rows([[2, 2, 0], [1, 1, Fraction(1, 3)], [0, Fraction(1, 2), 1]])
    assert invert_rational(m).tolist() == [
        [Fraction(-5, 2), 6, -2],
        [3, -6, 2],
        [Fraction(-3, 2), 3, 0],
    ]


@settings(deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(
                    st.just(Fraction(0)),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6),
                ),
                min_size=n, max_size=n,
            ),
            min_size=n, max_size=n,
        )
    )
)
def test_invert_on_random_rational_matrices(entries):
    # many zeros make row swaps, and singular matrices, common
    m = from_rows(entries)
    n = len(entries)
    if det_cofactor(m) == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            invert_rational(m)
        return
    inv = invert_rational(m)
    assert all(type(x) is Fraction for row in inv for x in row)
    assert matmul(m, inv) == identity(n) == matmul(inv, m)


def test_det_of_inverse_is_reciprocal():
    for n in range(1, 17):
        r = reciprocal_pascal(n)
        assert leading_minors(r)[-1] * det_bareiss(invert_rational(r)) == 1


def test_invert_singular_reports_rank():
    with pytest.raises(ValueError, match="rank 1 of 2"):
        invert_rational(from_rows([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="rank 0 of 2"):
        invert_rational(from_rows([[0, 0], [0, 0]]))


@st.composite
def singular_rational_matrices(draw):
    """Square rational matrices, n = 1..6, with zeros drawn often, made
    singular by setting one column to a combination of the columns before
    it (an all-zero column when it is the first or every weight is 0)."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
    )
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    c = draw(st.integers(0, n - 1))
    weights = draw(st.lists(entry, min_size=c, max_size=c))
    for row in rows:
        row[c] = sum((w * x for w, x in zip(weights, row)), Fraction(0))
    return rows


@settings(deadline=None)
@given(singular_rational_matrices())
def test_invert_singular_reports_the_independent_leading_columns(entries):
    # the rank named is the smallest c whose first c + 1 columns are
    # dependent: every (c + 1)-row minor of them is zero
    m = from_rows(entries)
    n = len(entries)
    rank = next(
        c for c in range(n)
        if all(det_cofactor(from_rows([m[i][:c + 1] for i in chosen])) == 0
               for chosen in combinations(range(n), c + 1))
    )
    with pytest.raises(ValueError, match=f"stalled at rank {rank} of {n}$"):
        invert_rational(m)


def test_invert_swaps_rows_on_large_entries():
    # R with its rows reversed pivots in place at every column.  The block
    # diagonal pair of R with its rows reversed has zeros down the first n
    # columns of its first n rows, so each of those columns swaps.  Its
    # inverse is the pair's inverse with the columns reversed.
    for n in range(1, 13):
        r, rinv = reciprocal_pascal(n), r_inverse_via_factorization(n)
        pad = (0,) * n
        pair = from_rows([row + pad for row in r] + [pad + row for row in r])
        pair_inv = from_rows([row + pad for row in rinv] + [pad + row for row in rinv])
        assert invert_rational(from_rows(pair[::-1])) == from_rows(
            row[::-1] for row in pair_inv), n


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        invert_rational(from_rows([[1, 2]]))

