"""Independent slow oracles used only by the test suite.

These deliberately avoid the package's fast routes: binomials come from
factorials, determinants from cofactor expansion or a pivoting Bareiss
elimination of their own, det(R^-1) from the Gauss-Jordan inverse of R
rather than from the leading minors of R itself, R·X = I from
row-scaled integer products of their own, matrix products from the full
triple sum, with no zero span skipped and no symmetry used, R^-1 from the
whole O(n^3) congruence of its factors, b-files from a
reader that splits each stripped line into fields instead of matching a
pattern, and matrix text as one whole string per format, its JSON from
json.dumps.
Agreement between a fast route and a slow oracle is the evidence the
tests are after.  A000984_BFILE names a vendored reference b-file, the
same kind of independent evidence for the sequence side.
"""
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from pathlib import Path

from recpascal import (
    SequenceRecord,
    d_matrix,
    g_matrix,
    invert_rational,
    l_inverse_matrix,
    reciprocal_pascal,
)

#: Vendored reference b-file of the central binomials C(2m, m), m = 0..30.
A000984_BFILE = Path(__file__).parent / "data" / "b000984.txt"


def _is_decimal_field(field: str) -> bool:
    digits = field[1:] if field.startswith("-") else field
    return bool(digits) and all(c in "0123456789" for c in digits)


def parse_bfile_by_fields(text: str) -> SequenceRecord:
    """Line-by-line b-file reader: a stripped line that is empty or starts
    with '#' is skipped; any other must split into exactly two fields, each
    an optional '-' and ASCII digits, with consecutive indices.  Raises the
    same ValueError messages as parse_bfile."""
    offset, prev, terms = 0, None, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2 or not all(map(_is_decimal_field, fields)):
            raise ValueError(f"line {lineno}: expected 'index value', got {line!r}")
        idx = int(fields[0])
        if prev is not None and idx != prev + 1:
            raise ValueError(f"line {lineno}: index {idx} does not follow {prev}")
        if prev is None:
            offset = idx
        prev = idx
        terms.append(int(fields[1]))
    if not terms:
        raise ValueError("no terms found")
    return SequenceRecord(offset, terms)


def matrix_csv_text(dense) -> str:
    """The whole CSV text of a matrix: one line per row, commas between."""
    return "".join(",".join(str(x) for x in row) + "\n" for row in dense)


def matrix_pretty_text(dense) -> str:
    """The whole pretty text of a matrix: each column right-aligned to its
    widest entry, two spaces between columns."""
    cells = [[str(x) for x in row] for row in dense]
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return "".join(
        "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in cells
    )


def matrix_json_text(dense) -> str:
    """The matrix JSON as json.dumps writes it, entries as decimal strings."""
    entries = [[str(x.numerator), str(x.denominator)] for row in dense for x in row]
    obj = {"rows": len(dense), "cols": len(dense[0]), "entries": entries}
    return json.dumps(obj) + "\n"


def binomial_factorial(n: int, k: int) -> int:
    """C(n, k) straight from the factorial ratio; zero outside [0, n]."""
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def super_catalan_factorial(m: int, n: int) -> int:
    q, r = divmod(factorial(2 * m) * factorial(2 * n),
                  factorial(m) * factorial(n) * factorial(m + n))
    assert r == 0
    return q


def matmul_triple_sum(a, b) -> list:
    """The product a·b as nested lists, every entry the full sum over the
    inner index."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(row) == inner for row in a)
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def r_inverse_by_congruence(n: int) -> list:
    """R^-1 as nested lists, by the factorization's O(n^3) sandwich:
    2 R^-1 = G L^-T D' L^-1 G with D' = 2 D^-1, the congruence a full
    triple sum, then every entry halved with a remainder check."""
    linv = l_inverse_matrix(n)
    d2 = [Fraction(2, d) for d in d_matrix(n).diag]
    assert all(x.denominator == 1 for x in d2)
    core = matmul_triple_sum([[linv[k][i] * int(d2[k]) for k in range(n)] for i in range(n)],
                             linv)
    g = g_matrix(n).diag
    doubled = [[g[i] * x * g[j] for j, x in enumerate(row)] for i, row in enumerate(core)]
    assert all(x % 2 == 0 for row in doubled for x in row)
    return [[x // 2 for x in row] for row in doubled]


def det_cofactor(m) -> Fraction:
    """Determinant by cofactor expansion, memoized on column subsets.

    Plain cofactor recursion is O(n!); sharing minors across the expansion
    tree brings it to O(2^n * n), which makes n = 12 comfortable while
    keeping the arithmetic nothing but multiply and add.
    """
    n = m.shape[0]
    assert m.shape == (n, n)

    @lru_cache(maxsize=None)
    def minor(row: int, cols: tuple) -> Fraction:
        if row == n:
            return Fraction(1)
        total = Fraction(0)
        for pos, col in enumerate(cols):
            entry = m[row][col]
            if entry == 0:
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = Fraction(entry) * minor(row + 1, rest)
            total += term if pos % 2 == 0 else -term
        return total

    return minor(0, tuple(range(n)))


def det_bareiss(m) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination with row swaps.

    A reference that shares no code with the package's leading-minor
    route: the whole matrix is scaled to integers by one common
    denominator, a zero pivot is swapped for the first nonzero entry below
    it, and a singular matrix has determinant 0.
    """
    n = m.shape[0]
    assert m.shape == (n, n)
    scale = lcm(*(Fraction(x).denominator for row in m for x in row))
    work = [[int(Fraction(x) * scale) for x in row] for row in m]
    sign, prev = 1, 1
    for k in range(n):
        if work[k][k] == 0:
            below = [r for r in range(k + 1, n) if work[r][k] != 0]
            if not below:
                return Fraction(0)
            work[k], work[below[0]] = work[below[0]], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(work[k][k] * work[i][j] - work[i][k] * work[k][j], prev)
                assert r == 0
                work[i][j] = q
        prev = work[k][k]
    return Fraction(sign * work[-1][-1], scale ** n)


def is_right_inverse(m, x) -> bool:
    """m·x == I, checked in integers: row i of m is scaled by the lcm of its
    denominators, so the product must be diag(lcm_i)."""
    n = m.shape[0]
    if m.shape != (n, n) or x.shape != (n, n):
        return False
    cols = list(zip(*x))
    for i, row in enumerate(m):
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        scaled = [v.numerator * (scale // v.denominator) for v in row]
        for j, col in enumerate(cols):
            if sum(a * b for a, b in zip(scaled, col)) != (scale if i == j else 0):
                return False
    return True


def det_r_inverse_gauss_jordan(n: int) -> Fraction:
    """det(R^-1) by Bareiss on the Gauss-Jordan inverse of R: a third route,
    an inversion and then a determinant, beside the factor product of
    det_inverse_sequence and the leading minors that det_comparison reads."""
    return det_bareiss(invert_rational(reciprocal_pascal(n)))


@contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int <-> str digit limit, restoring it on exit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
