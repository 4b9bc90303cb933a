"""Factorization identities, the integer inverse, and determinant reports."""
import inspect
import json
import re
import typing
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from recpascal import (
    GENERATED_IDS,
    CheckReport,
    ExactnessError,
    check_det,
    check_grg,
    check_integrality,
    check_l_inverse_column,
    check_ldl,
    check_von_szily_upto,
    d_matrix,
    det_comparison,
    det_inverse_sequence,
    det_r_inverse_formula,
    from_rows,
    g_matrix,
    generated_sequence,
    identity,
    invert_rational,
    l_inverse_matrix,
    l_matrix,
    matmul,
    r_inverse_00,
    r_inverse_via_factorization,
    reciprocal_pascal,
    super_catalan_matrix,
)
import recpascal
from recpascal import identities, matrices
from recpascal.identities import _first_mismatch

from oracles import (
    det_bareiss,
    det_cofactor,
    r_inverse_by_congruence,
    super_catalan_factorial,
)


def test_check_report_passed_means_no_counterexample():
    assert CheckReport("x", 1, None, 0.0).passed is True
    assert CheckReport("x", 1, (0, 0, 1, 2), 0.0).passed is False


def test_check_report_is_an_immutable_value():
    rep = CheckReport("grg", 3, None, 0.5)
    assert rep == CheckReport("grg", 3, None, 0.5)
    assert hash(rep) == hash(CheckReport("grg", 3, None, 0.5))
    for other in (CheckReport("ldl", 3, None, 0.5), CheckReport("grg", 4, None, 0.5),
                  CheckReport("grg", 3, (0, 0, 1, 2), 0.5),
                  CheckReport("grg", 3, None, 0.25)):
        assert rep != other
    with pytest.raises(AttributeError):
        rep.counterexample = (0, 0, 1, 2)
    with pytest.raises(AttributeError):
        rep.extra = 1


def test_check_report_json_field_order():
    rep = CheckReport("grg", 3, None, 0.0015)
    obj = rep.to_json()
    assert list(obj) == ["name", "n", "passed", "counterexample", "elapsed_ms"]
    assert obj["elapsed_ms"] == 1.5
    assert json.dumps(obj)  # serializable


def test_check_report_json_counterexample():
    rep = CheckReport("ldl", 2, (0, 1, Fraction(1, 2), 3), 0.0)
    obj = rep.to_json()
    assert obj["n"] == 2
    assert obj["counterexample"] == {"i": 0, "j": 1, "expected": "1/2", "actual": "3"}


def test_first_mismatch_locates_first_difference():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[1, 2], [5, 4]])
    assert _first_mismatch(a, a) is None
    assert _first_mismatch(a, b) == (1, 0, 3, 5)
    with pytest.raises(ValueError):
        _first_mismatch(a, from_rows([[1]]))


def test_grg_pinned_sizes():
    for n in (1, 2, 3, 16):
        rep = check_grg(n)
        assert rep.passed and rep.name == "grg" and rep.n == n


def test_grg_product_literally():
    g = g_matrix(3)
    product = [[g[i] * x * g[j] for j, x in enumerate(row)]
               for i, row in enumerate(reciprocal_pascal(3))]
    assert product == [[1, 2, 6], [2, 2, 4], [6, 4, 6]]


def test_ldl_pinned_sizes():
    for n in (1, 2, 3, 24):
        assert check_ldl(n).passed


def test_ldl_product_literally():
    l, d = l_matrix(3), d_matrix(3)
    product = matmul(from_rows([x * d[k] for k, x in enumerate(row)] for row in l), l.T)
    assert product.tolist() == [[1, 2, 6], [2, 2, 4], [6, 4, 6]]


def test_von_szily_base_case():
    rep = check_von_szily_upto(1)
    assert rep.passed and rep.n == 1


def test_von_szily_small_terms():
    # at (1, 1) the two-sided sum is -1 + 4 - 1 = 2
    assert check_von_szily_upto(2).passed
    assert super_catalan_factorial(1, 1) == 2


def test_von_szily_asymmetric_pair():
    # size 13 reaches the pair (12, 7) and its mirror (7, 12)
    assert check_von_szily_upto(13).passed


_SIZED = (check_grg, check_ldl, check_von_szily_upto, check_l_inverse_column,
          check_integrality, check_det, r_inverse_via_factorization, r_inverse_00,
          det_r_inverse_formula, det_comparison, det_inverse_sequence)


@pytest.mark.parametrize(
    "entry",
    [pytest.param(f, id=f.__name__) for f in _SIZED]
    + [pytest.param(partial(generated_sequence, oeis_id), id=f"generated_sequence-{oeis_id}")
       for oeis_id in GENERATED_IDS],
)
@pytest.mark.parametrize("n", (0, -3))
def test_every_sized_entry_point_rejects_sizes_below_one(entry, n):
    with pytest.raises(ValueError):
        entry(n)


def _comb(n, k):
    # C(n, k) with the out-of-range zeros on both sides
    return comb(n, k) if k >= 0 else 0


def test_von_szily_sum_stable_under_widened_range():
    # terms beyond |k| = min(m, n) vanish, so widening must not change the sum
    for m, n in ((0, 0), (1, 1), (3, 5), (12, 7)):
        bound = max(m, n) + 7
        total = sum(
            (-1 if k & 1 else 1) * _comb(2 * m, m + k) * _comb(2 * n, n - k)
            for k in range(-bound, bound + 1)
        )
        assert total == super_catalan_factorial(m, n)


def test_von_szily_upto_aggregates():
    rep = check_von_szily_upto(8)
    assert rep.passed and rep.name == "vonszily" and rep.n == 8


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_von_szily_reports_a_planted_binomial(data):
    # the planted T[m][j] = C(2m, m+j) enters column m of every row r >= |j|
    # (times T[r][-j]) and row m, so the row-major scan meets it first at
    # (|j|, m); there T[|j|][-j] = C(2|j|, |j|-j) = 1, so the entry moves
    n = data.draw(st.integers(1, 24), label="n")
    m = data.draw(st.integers(0, n - 1), label="m")
    j = data.draw(st.integers(-m, m), label="j")
    delta = data.draw(st.integers(-50, 50).filter(bool), label="delta")
    # at m = j = 0 the planted 1 + delta enters (0, 0) squared: -1 squares to 1
    assume(not (m == 0 and delta == -2))

    def planted(a, b):
        return comb(a, b) + (delta if (a, b) == (2 * m, m + j) else 0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "comb", planted)
        rep = check_von_szily_upto(n)
    assert rep.counterexample is not None
    assert rep.counterexample[:3] == (abs(j), m, super_catalan_factorial(abs(j), m))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_von_szily_reports_a_wrong_super_catalan_entry(data):
    # the right side is super_catalan_matrix, so one entry off by one there
    # is the first and only mismatch, reported with the planted value
    n = data.draw(st.integers(1, 24), label="n")
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, n - 1), label="j")
    delta = data.draw(st.sampled_from((-1, 1)), label="delta")
    right = super_catalan_matrix(n)

    def planted(size):
        rows = super_catalan_matrix(size).tolist()
        rows[i][j] += delta
        return from_rows(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "super_catalan_matrix", planted)
        rep = check_von_szily_upto(n)
    assert rep.counterexample == (i, j, right[i][j] + delta, right[i][j])


def test_l_inverse_column_pinned_sizes():
    for n in (1, 3, 8, 64):
        rep = check_l_inverse_column(n)
        assert rep.passed and rep.name == "parity"


def test_l_inverse_column_matches_full_inverse():
    linv = invert_rational(l_matrix(8))
    assert tuple(linv[i][0] for i in range(8)) == d_matrix(8)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_l_inverse_column_catches_an_error_off_column_0(data):
    # column 0 stays right, so only L . X = I sees the wrong entry, and
    # first at the entry's own location: row i of L is 1 at column i
    n = data.draw(st.integers(3, 12), label="n")
    i = data.draw(st.integers(2, n - 1), label="i")
    j = data.draw(st.integers(1, i - 1), label="j")
    linv = l_inverse_matrix(n).tolist()
    linv[i][j] += 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "l_inverse_matrix", lambda n: from_rows(linv))
        rep = check_l_inverse_column(n)
    assert rep.counterexample == (i, j, 0, 2)


def test_l_inverse_column_compares_column_0_with_d(monkeypatch):
    # L . L^-1 = I holds, so only column 0 against D's diagonal sees the 4
    monkeypatch.setattr(identities, "d_matrix", lambda n: (1, -2, 4, -2))
    assert check_l_inverse_column(4).counterexample == (2, 0, 4, 2)


def test_l_inverse_column_reports_an_odd_entry_against_d(monkeypatch):
    # a consistent pair whose column 0 is odd below the 1: equality with
    # D's -2 is the parity claim, so the report names D's entry
    monkeypatch.setattr(identities, "l_matrix", lambda n: from_rows([[1, 0], [1, 1]]))
    monkeypatch.setattr(identities, "l_inverse_matrix",
                        lambda n: from_rows([[1, 0], [-1, 1]]))
    assert check_l_inverse_column(2).counterexample == (1, 0, -2, -1)


@pytest.mark.parametrize("factor", ["l_matrix", "l_inverse_matrix"])
def test_l_inverse_column_catches_an_entry_above_either_diagonal(factor):
    # L . X = I is checked as a dense product, so a 3 planted at (2, 4)
    # shows at the product's first wrong entry: in L it adds 3 X[4][0] = 6
    # at (2, 0); in X it adds L[2][2] * 3 = 3 at (2, 4)
    n, i, j = 6, 2, 4
    entries = getattr(identities, factor)(n).tolist()
    entries[i][j] = 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, factor, lambda n: from_rows(entries))
        rep = check_l_inverse_column(n)
    expected = {"l_matrix": (2, 0, 0, 6), "l_inverse_matrix": (2, 4, 0, 3)}
    assert rep.counterexample == expected[factor]


def test_r_inverse_pinned():
    assert r_inverse_via_factorization(1).tolist() == [[1]]
    assert r_inverse_via_factorization(2).tolist() == [[-1, 2], [2, -2]]


def test_r_inverse_matches_oracle_and_is_integer():
    for n in (*range(1, 13), 64):
        rinv = r_inverse_via_factorization(n)
        assert all(isinstance(x, int) for row in rinv for x in row)
        r = reciprocal_pascal(n)
        assert rinv == invert_rational(r)
        assert matmul(r, rinv) == identity(n)


def test_r_inverse_equals_the_congruence_sandwich_up_to_48():
    for n in range(1, 49):
        assert r_inverse_via_factorization(n).tolist() == r_inverse_by_congruence(n), n


@settings(max_examples=8, deadline=None)
@given(st.integers(49, 96))
def test_r_inverse_equals_the_congruence_sandwich_sampled(n):
    assert r_inverse_via_factorization(n).tolist() == r_inverse_by_congruence(n)


def test_r_inverse_forms_no_square_product(monkeypatch):
    # the factors act on e_0 and k one at a time: every product the route
    # forms is n x 1, one by L^-1 and one by L^-T for each
    shapes = []

    def recording(a, b):
        product = matmul(a, b)
        shapes.append(product.shape)
        return product

    monkeypatch.setattr(identities, "matmul", recording)
    r_inverse_via_factorization(9)
    assert shapes == [(9, 1)] * 4


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 128))
def test_r_inverse_satisfies_the_hankel_displacement_identity(n):
    # (j+1) Y[i][j+1] - (i+1) Y[i+1][j] = v_i c_j - c_i v_j with Y[n][.] = 0,
    # c and v = Y (0, 1, ..., n-1) read off the returned Y itself
    y = r_inverse_via_factorization(n).tolist() + [[0] * n]
    c = [row[0] for row in y]
    v = [sum(k * x for k, x in enumerate(row)) for row in y]
    for i in range(n):
        for j in range(n - 1):
            assert ((j + 1) * y[i][j + 1] - (i + 1) * y[i + 1][j]
                    == v[i] * c[j] - c[i] * v[j]), (i, j)


def test_route_columns_match_their_closed_forms():
    # c = R^-1 e_0 and v = R^-1 k from math.comb alone, outside the route:
    # c_j = (-1)^(n-1+j) C(n-1+j, j) C(n-1, j) and
    # v_j = (-1)^j n(n-1) C(n-1+j, j) C(n-1, j) / (j+1), an exact division
    for n in range(1, 161):
        c, v = [], []
        for j in range(n):
            b = comb(n - 1 + j, j) * comb(n - 1, j)
            c.append((-1) ** (n - 1 + j) * b)
            q, r = divmod((-1) ** j * n * (n - 1) * b, j + 1)
            assert r == 0, (n, j)
            v.append(q)
        assert identities._r_inverse_columns(n) == (tuple(c), tuple(v)), n


def _plant(n, column, m, delta):
    """identities._r_inverse_columns for size n with delta added to entry m
    of its column "c" or "v"."""
    columns = dict(zip("cv", identities._r_inverse_columns(n)))
    x = columns[column]
    columns[column] = x[:m] + (x[m] + delta,) + x[m + 1:]
    return lambda size: (columns["c"], columns["v"])


@pytest.mark.parametrize("n,m,delta,entry", [
    (12, 5, 1, (9, 6, 219509872873720, 6)),
    (8, 4, 1, (7, 5, -166489752, 5)),
    (6, 3, -1, (4, 4, -970830, 4)),
])
def test_a_planted_error_in_v_raises_at_the_entry_it_names(monkeypatch, n, m, delta, entry):
    # the fill goes upward from the last row, so (8, 4) fails there, dividing by 5
    i, j, a, b = entry
    monkeypatch.setattr(identities, "_r_inverse_columns", _plant(n, "v", m, delta))
    with pytest.raises(ExactnessError,
                       match=f"^entry \\({i}, {j}\\) of R\\^-1: {a} is not divisible by {b}$"):
        r_inverse_via_factorization(n)
    assert check_integrality(n).counterexample == (i, j, "an integer entry", Fraction(a, b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_planted_error_in_v_never_passes_the_check(data):
    # most errors in v, or in c, leave a remainder in the fill; v_0 only
    # ever meets divisions by 1, and a few others divide out exactly, so
    # there a row sum of R^-1 is what fails, the entry (0, i) of R . R^-1;
    # either way the route's ExactnessError carries the counterexample and
    # the check reports it
    n = data.draw(st.integers(2, 48), label="n")
    column = data.draw(st.sampled_from("cv"), label="column")
    m = data.draw(st.integers(0, n - 1), label="m")
    delta = data.draw(st.sampled_from((-1, 1)), label="delta")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "_r_inverse_columns", _plant(n, column, m, delta))
        with pytest.raises(ExactnessError) as raised:
            r_inverse_via_factorization(n)
        assert raised.value.counterexample is not None
        assert check_integrality(n).counterexample == raised.value.counterexample


def test_r_inverse_00_pinned():
    assert r_inverse_00(1) == 1
    assert r_inverse_00(2) == -1
    assert r_inverse_00(3) == 1


def test_r_inverse_00_alternates_and_matches_the_matrix():
    for n in range(1, 25):
        closed = r_inverse_00(n)
        assert closed == (-1 if (n - 1) & 1 else 1)
        assert closed == r_inverse_via_factorization(n)[0][0]


def test_det_formula_pinned():
    assert det_r_inverse_formula(1) == -1
    assert det_r_inverse_formula(2) == -2
    assert det_r_inverse_formula(3) == 36


def test_public_type_hints_resolve():
    # every annotation names something its module binds at module level,
    # so the hints evaluate; a name imported only inside a function would not
    functions = [f for f in map(partial(getattr, recpascal), recpascal.__all__)
                 if inspect.isfunction(f)]
    assert det_r_inverse_formula in functions and len(functions) > 20
    for f in functions + [matrices.congruence]:
        typing.get_type_hints(f)


def test_det_comparison_pinned():
    expected = {
        1: (Fraction(-1), Fraction(1), True, False),
        2: (Fraction(-2), Fraction(-2), True, True),
        3: (Fraction(36), Fraction(-36), True, False),
    }
    for n, (formula, oracle, mag, sign) in expected.items():
        cmp = det_comparison(n)
        assert cmp["formula"] == formula
        assert cmp["oracle"] == oracle
        assert cmp["magnitude_match"] is mag
        assert cmp["sign_match"] is sign


def test_det_comparison_sign_pattern_follows_parity_of_n():
    # magnitudes agree everywhere; the closed form's sign is wrong exactly
    # at odd n, where the oracle sign is (-1)^(n(n-1)/2)
    for n in range(1, 17):
        cmp = det_comparison(n)
        assert cmp["magnitude_match"] is True
        assert cmp["sign_match"] is (n % 2 == 0), n
        oracle_negative = (n * (n - 1) // 2) % 2 == 1
        assert (cmp["oracle"] < 0) is oracle_negative


def test_det_oracle_agrees_with_cofactor_expansion():
    for n in range(1, 9):
        inv = invert_rational(reciprocal_pascal(n))
        assert det_bareiss(inv) == det_cofactor(inv)


def test_integrality_pinned_sizes():
    for n in (1, 2, 12):
        rep = check_integrality(n)
        assert rep.passed and rep.name == "integrality"


def test_factorization_inverse_rejects_nothing_silently(monkeypatch):
    # with D = (2) the route's D^-1 divides the 1 of L^-1 G e_0 by 2: that
    # must raise, and the integrality check must report 1/2 rather than
    # round it, as the entry (0, 0) of D^-1 L^-1 G e_0
    monkeypatch.setattr(identities, "d_matrix", lambda n: (2,) * n)
    with pytest.raises(ExactnessError):
        r_inverse_via_factorization(1)
    rep = check_integrality(1)
    assert not rep.passed
    assert rep.counterexample == (0, 0, "an integer entry of D^-1 L^-1 G e_0",
                                  Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_an_inexact_entry_of_a_divided_column_names_its_entry(data):
    # 1 added to entries of one even column, L^-1 G e_0 or L^-1 G k, as it
    # is handed to D^-1, the route's first two divisions.  Entry 0 is left
    # alone: d_0 = 1 divides anything, and a wrong c_0 or v_0 is what
    # test_a_planted_error_in_v_never_passes_the_check plants.  The first
    # odd entry m is named as the entry (m, 0) of the column D^-1 L^-1 G b
    n = data.draw(st.integers(2, 48), label="n")
    column = data.draw(st.sampled_from((0, 1)), label="column")
    odd = data.draw(st.sets(st.integers(1, n - 1), min_size=1), label="odd")
    m = min(odd)
    # y_m = (L^-1 G b)_m, with G's diagonal from math.comb, and d_m = +-2
    b, gb = (("e_0", [1] + [0] * (n - 1)) if column == 0 else
             ("k", [k * comb(2 * k, k) for k in range(n)]))
    x = sum(a * y for a, y in zip(l_inverse_matrix(n)[m], gb)) + 1
    d_m = -2 if m % 2 else 2
    of = f"D^-1 L^-1 G {b}"
    calls, dividing = [], identities._divide_entries

    def planting(of, cells, nums, dens):
        calls.append(None)
        if len(calls) == column + 1:
            nums = [y + (k in odd) for k, y in enumerate(nums)]
        return dividing(of, cells, nums, dens)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "_divide_entries", planting)
        message = f"entry ({m}, 0) of {of}: {x} is not divisible by {d_m}"
        with pytest.raises(ExactnessError, match=f"^{re.escape(message)}$"):
            r_inverse_via_factorization(n)
        calls.clear()
        rep = check_integrality(n)
    assert rep.counterexample == (m, 0, f"an integer entry of {of}", Fraction(x, d_m))


def test_integrality_checks_the_identity_in_integers(monkeypatch):
    # the wrong inverse [[0, 1], [1, -1]] is all-integer, so only R . R^-1 = I
    # can catch it; row 1 of R is scaled by lcm 2
    planted = from_rows([[0, 1], [1, -1]])
    monkeypatch.setattr(identities, "r_inverse_via_factorization", lambda n: planted)
    rep = check_integrality(2)
    assert not rep.passed
    assert rep.counterexample == (1, 0, 0, Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integrality_catches_a_one_entry_error(data):
    # row 0 of R is all ones, so adding 1 to entry (i, j) of the inverse
    # first shows in R . R^-1 at (0, j), wherever i is
    n = data.draw(st.integers(2, 12), label="n")
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, n - 1), label="j")
    planted = r_inverse_via_factorization(n).tolist()
    planted[i][j] += 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "r_inverse_via_factorization", lambda n: from_rows(planted))
        rep = check_integrality(n)
    assert not rep.passed
    assert rep.counterexample[:2] == (0, j)


def test_det_check_reports_magnitudes_only():
    # the closed form's sign is wrong at every odd n; that is no failure
    for n in range(1, 17):
        rep = check_det(n)
        assert rep.passed and rep.name == "det" and rep.n == n


def test_det_check_reports_a_magnitude_mismatch(monkeypatch):
    monkeypatch.setattr(identities, "det_comparison", lambda n: {
        "formula": Fraction(-3, 2), "oracle": Fraction(5), "magnitude_match": False})
    assert check_det(2).counterexample == (0, 0, Fraction(3, 2), Fraction(5))


#: The six checks in report order; each keeps its name and its module.
_CHECK_ORDER = ("grg", "ldl", "vonszily", "parity", "integrality", "det")


def test_every_check_is_listed_in_report_order():
    checks = (check_grg, check_ldl, check_von_szily_upto, check_l_inverse_column,
              check_integrality, check_det)
    assert tuple(identities._CHECKS) == _CHECK_ORDER
    assert tuple(identities._CHECKS.values()) == checks
    for name, check in identities._CHECKS.items():
        assert check.__module__ == "recpascal.identities"
        assert check.__name__.startswith("check_")
        assert check(3).name == name


def _plus_two_at_c_10_5(original):
    # C(10, 5) = 252 raised by 2: G, L and S all read it
    def planted(n):
        return [c + 2 if m == 5 else c for m, c in enumerate(original(n))]
    return planted


def test_an_exactness_error_becomes_the_counterexample(monkeypatch):
    monkeypatch.setattr(matrices, "_central_binomials",
                        _plus_two_at_c_10_5(matrices._central_binomials))
    rep = check_grg(10)
    assert rep == CheckReport("grg", 10, (0, 0, "an exact division",
                                          "13208 is not divisible by 12"), rep.elapsed)
    assert rep.to_json()["counterexample"] == {
        "i": 0, "j": 0, "expected": "an exact division",
        "actual": "13208 is not divisible by 12"}


def test_only_an_exactness_error_becomes_a_report(monkeypatch):
    # D^-1 divides by D's 0: a ZeroDivisionError is no failed claim
    monkeypatch.setattr(identities, "d_matrix", lambda n: (1, 0))
    with pytest.raises(ZeroDivisionError):
        check_integrality(2)


#: Where each planted fault goes, per generator, in the order of _FAULTS:
#: the last entry, an inner one, and one the paper needs even: C(2m, m) for
#: m >= 1 (G's diagonal, P's diagonal, column 0 of L), D's +-2, column 0 of
#: L^-1 below its 1, and S(m, k) off (0, 0).  P alone takes a zero minor:
#: C(2, 1) lowered to 1 makes R's leading 2 x 2 block all ones.
_FAULT_SITES = {
    "_central_binomials": (9, 3, 5),
    "pascal_matrix": ((9, 9), (3, 2), (5, 5), (1, 1)),
    "l_matrix": ((9, 9), (3, 2), (5, 0)),
    "l_inverse_matrix": ((9, 9), (3, 2), (5, 0)),
    "d_matrix": (9, 3, 5),
    "super_catalan_matrix": ((9, 9), (3, 2), (4, 5)),
}
_FAULTS = {"off_by_one": lambda x: x + 1, "scaled": lambda x: 3 * x,
           "odd": lambda x: x - 1, "zero_minor": lambda x: x - 1}
#: (generator, fault) for every site listed.
_PLANTED = [(generator, fault) for generator, sites in _FAULT_SITES.items()
            for fault, _ in zip(_FAULTS, sites)]
#: The checks that read each generator, through the factors they build.
_READERS = {
    "_central_binomials": set(_CHECK_ORDER),
    "pascal_matrix": {"grg", "integrality", "det"},
    "l_matrix": {"ldl", "parity"},
    "l_inverse_matrix": {"parity", "integrality"},
    "d_matrix": {"ldl", "parity", "integrality"},
    "super_catalan_matrix": {"grg", "ldl", "vonszily"},
}


def _faulty(original, site, change):
    """original with change applied to its entry at site: an (i, j) pair
    into a dense matrix, an index into a list or a diagonal's tuple.  A
    Matrix is itself a tuple, so it is told apart first."""
    def planted(n):
        made = original(n)
        if isinstance(made, matrices.Matrix):
            return from_rows([change(x) if (i, j) == site else x for j, x in enumerate(row)]
                             for i, row in enumerate(made))
        return type(made)(change(x) if k == site else x for k, x in enumerate(made))
    return planted


@pytest.mark.parametrize("generator,fault", _PLANTED, ids=["-".join(p) for p in _PLANTED])
def test_a_planted_generator_fault_fails_exactly_its_readers(monkeypatch, generator, fault):
    # every check returns a report, never raises; the checks that read the
    # faulted generator fail and the others pass
    site = _FAULT_SITES[generator][tuple(_FAULTS).index(fault)]
    original = getattr(matrices, generator)
    if fault == "odd":
        made = original(10)
        entry = made[site[0]][site[1]] if isinstance(made, matrices.Matrix) else made[site]
        assert entry % 2 == 0, (generator, site, entry)
    planted = _faulty(original, site, _FAULTS[fault])
    for module in (matrices, identities):
        if hasattr(module, generator):
            monkeypatch.setattr(module, generator, planted)
    reports = [check(10) for check in identities._CHECKS.values()]
    assert [rep.name for rep in reports] == list(_CHECK_ORDER)
    assert {rep.name for rep in reports if not rep.passed} == _READERS[generator]
