"""Output gates: the benchmark's own exact checks of what the CLI prints.

Every expected value here comes from closed forms evaluated with the
standard library (math.comb, math.factorial, math.lcm, Fraction), never from
the package under test.  A gate takes the text a command printed and raises
Mismatch, with a short reason, when it is wrong.
"""
from __future__ import annotations

import contextlib
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul


class Mismatch(Exception):
    """The output disagrees with the benchmark's reference."""


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int<->str digit limit for the benchmark's own
    work, restoring it afterwards so the program never runs without it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def oracle_sign(n: int) -> int:
    """Sign of det(R_n^-1) as the elimination oracle finds it: (-1)^(n(n-1)/2)."""
    return -1 if (n * (n - 1) // 2) % 2 else 1


def formula_sign(n: int) -> int:
    """Sign factor the closed form carries verbatim: (-1)^(n(n+1)/2)."""
    return -1 if (n * (n + 1) // 2) % 2 else 1


@lru_cache(maxsize=None)
def det_magnitude(n: int) -> int:
    """|det(R_n^-1)| = prod_{m<n} C(2m, m)^2 / 2^(n-1), checked to be exact."""
    prod = math.prod(math.comb(2 * m, m) ** 2 for m in range(n))
    q, r = divmod(prod, 2 ** (n - 1))
    _expect(r == 0, f"reference magnitude for n={n} is not an integer")
    return q


@lru_cache(maxsize=None)
def pascal_triangle_terms(n: int) -> list:
    """A007318 read by rows 0..n-1: C(d, i) for i <= d, the complete
    antidiagonals of the symmetric Pascal array."""
    return [math.comb(d, i) for d in range(n) for i in range(d + 1)]


@lru_cache(maxsize=None)
def central_binomial_terms(n: int) -> list:
    """A000984: C(2m, m) for m < n.

    Calling math.comb once per term is quadratic in the digit count, so the
    terms come from the ratio C(2m+2, m+1) / C(2m, m) = 2(2m+1)/(m+1) and
    are pinned to math.comb at the ends and at every 500th index.
    """
    terms = [1]
    for m in range(n - 1):
        q, r = divmod(terms[-1] * 2 * (2 * m + 1), m + 1)
        _expect(r == 0, "central binomial recurrence left a remainder")
        terms.append(q)
    for m in sorted({*range(0, n, 500), *range(min(n, 64)), n - 1}):
        _expect(terms[m] == math.comb(2 * m, m), f"A000984 term {m} disagrees with math.comb")
    return terms


@lru_cache(maxsize=None)
def det_sequence_terms(n: int) -> list:
    """A060739 with the oracle's signs, for sizes 1..n."""
    return [oracle_sign(k) * det_magnitude(k) for k in range(1, n + 1)]


def super_catalan(m: int, k: int) -> int:
    q, r = divmod(
        math.factorial(2 * m) * math.factorial(2 * k),
        math.factorial(m) * math.factorial(k) * math.factorial(m + k),
    )
    _expect(r == 0, "super Catalan quotient left a remainder")
    return q


def _half(x: int) -> int:
    q, r = divmod(x, 2)
    _expect(r == 0, "super Catalan value off the first row and column is odd")
    return q


def bfile_text(offset: int, terms) -> str:
    return "".join(f"{offset + i} {t}\n" for i, t in enumerate(terms))


def parse_terms(text: str) -> tuple[int, list]:
    """(offset, terms) of b-file text; indices must be consecutive."""
    offset = None
    terms = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        _expect(len(fields) == 2, f"b-file line {line[:40]!r} is not 'index value'")
        idx, value = int(fields[0]), int(fields[1])
        if offset is None:
            offset = idx
        _expect(idx == offset + len(terms), f"b-file index {idx} out of sequence")
        terms.append(value)
    _expect(offset is not None, "b-file has no terms")
    return offset, terms


def _expect_terms(text: str, offset: int, expected: list, what: str) -> None:
    got_offset, got = parse_terms(text)
    _expect(got_offset == offset, f"{what}: offset {got_offset}, expected {offset}")
    _expect(len(got) == len(expected), f"{what}: {len(got)} terms, expected {len(expected)}")
    for i, (g, e) in enumerate(zip(got, expected)):
        _expect(g == e, f"{what}: term {offset + i} is wrong")


# --- integer inverse of R -------------------------------------------------

def check_r_inverse(rows: list, n: int) -> None:
    """R . X = I in integers: row i of R is scaled by l_i = lcm_j C(i+j, i),
    so (l_i R) X must equal diag(l_i)."""
    _expect(len(rows) == n and all(len(r) == n for r in rows), f"R^-1 is not {n}x{n}")
    cols = list(zip(*rows))
    for i in range(n):
        binoms = [math.comb(i + j, i) for j in range(n)]
        scale = math.lcm(*binoms)
        scaled_row = [scale // c for c in binoms]
        for k, col in enumerate(cols):
            want = scale if i == k else 0
            _expect(sum(map(mul, scaled_row, col)) == want, f"(R R^-1)[{i}][{k}] is wrong")


def r_inverse_csv(n: int):
    return lambda text: check_r_inverse(
        [[int(x) for x in line.split(",")] for line in text.splitlines()], n)


def r_inverse_pretty(n: int):
    return lambda text: check_r_inverse(
        [[int(x) for x in line.split()] for line in text.splitlines()], n)


def r_inverse_json(n: int):
    def gate(text):
        obj = json.loads(text)
        _expect(obj["rows"] == n and obj["cols"] == n, "wrong matrix shape")
        entries = obj["entries"]
        _expect(all(den == "1" for _, den in entries), "R^-1 has a non-integer entry")
        nums = [int(num) for num, _ in entries]
        check_r_inverse([nums[i * n:(i + 1) * n] for i in range(n)], n)
    return gate


# --- triangles and arrays -------------------------------------------------

def l_inverse_bfile(n: int):
    """Triangle rows of L^-1 (A110162): L X = I with L[m][k] = C(2m, m+k)."""
    def gate(text):
        offset, terms = parse_terms(text)
        _expect(offset == 0 and len(terms) == n * (n + 1) // 2, "wrong triangle size")
        x = [[0] * n for _ in range(n)]
        pos = 0
        for m in range(n):
            for k in range(m + 1):
                x[m][k] = terms[pos]
                pos += 1
        for m in range(n):
            l_row = [math.comb(2 * m, m + k) for k in range(m + 1)]
            for k in range(m + 1):
                got = sum(l_row[j] * x[j][k] for j in range(k, m + 1))
                _expect(got == int(m == k), f"(L L^-1)[{m}][{k}] is wrong")
    return gate


def super_catalan_csv(n: int):
    def gate(text):
        rows = [[int(x) for x in line.split(",")] for line in text.splitlines()]
        _expect(len(rows) == n, "wrong row count")
        for m, row in enumerate(rows):
            _expect(row == [super_catalan(m, k) for k in range(n)], f"super Catalan row {m} is wrong")
    return gate


def super_catalan_candidates(n: int):
    """The three unasserted A068555 readings, each recomputed here."""
    def gate(text):
        s = [[super_catalan(m, k) for k in range(n)] for m in range(n)]
        anti = [s[i][d - i] for d in range(n) for i in range(d + 1)]
        halved = [_half(s[1 + i][1 + d - i]) for d in range(n - 1) for i in range(d + 1)]
        expected = {
            "rows": [x for row in s for x in row],
            "antidiagonals": anti,
            "halved_antidiagonals": halved,
        }
        marker = "# candidate reading: "
        sections = {}
        label = None
        for line in text.splitlines(keepends=True):
            if line.startswith(marker):
                label = line[len(marker):].strip()
                sections[label] = ""
            else:
                _expect(label is not None, "terms before the first candidate label")
                sections[label] += line
        _expect(list(sections) == list(expected), f"candidate labels {list(sections)}")
        for label, terms in expected.items():
            _expect_terms(sections[label], 0, terms, label)
    return gate


# --- oracle reports -------------------------------------------------------

CHECK_ORDER = ("grg", "ldl", "vonszily", "parity", "integrality", "det")


def check_reports(names: tuple, n: int):
    def gate(text):
        reports = json.loads(text)
        _expect([r["name"] for r in reports] == list(names), "wrong set of checks reported")
        for r in reports:
            _expect(r["n"] == n, f"check {r['name']} ran at n={r['n']}")
            _expect(r["passed"] is True and r["counterexample"] is None,
                    f"check {r['name']} did not pass")
    return gate


def det_pretty(n: int):
    """Closed form carries (-1)^(n(n+1)/2), the oracle (-1)^(n(n-1)/2); both
    share the magnitude prod C(2m, m)^2 / 2^(n-1)."""
    def gate(text):
        fields = {}
        for line in text.splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        mag = det_magnitude(n)
        _expect(Fraction(fields["closed form"]) == formula_sign(n) * mag, "closed form is wrong")
        _expect(Fraction(fields["oracle"]) == oracle_sign(n) * mag, "oracle determinant is wrong")
        _expect(fields["magnitude match"] == "True", "magnitudes reported as different")
        same_sign = formula_sign(n) == oracle_sign(n)
        _expect(fields["sign match"] == str(same_sign), "sign agreement misreported")
    return gate


def bench_report(n: int):
    def gate(text):
        obj = json.loads(text)
        _expect(obj["n"] == n and obj["equal"] is True, "bench routes disagree")
    return gate


# --- sequences ------------------------------------------------------------

def sequence_bfile(offset: int, terms_fn, *args):
    return lambda text: _expect_terms(text, offset, terms_fn(*args), "emitted terms")


def crosscheck_report(oeis_id: str, count: int, signs: str | None = None):
    """A passing crosscheck over all `count` indices; for A060739 also the
    reference's all-positive magnitudes and the oracle's sign pattern."""
    def gate(text):
        obj = json.loads(text)
        report = obj["report"]
        _expect(obj["id"] == oeis_id, "wrong sequence id")
        _expect(report["passed"] is True and report["n"] == count,
                f"crosscheck did not pass over {count} indices")
        if signs is not None:
            _expect(obj["reference_signs"] == "+" * count, "reference signs misreported")
            _expect(obj["generated_signs"] == signs, "generated signs break the oracle rule")
    return gate


def det_sign_pattern(n: int) -> str:
    return "".join("+" if oracle_sign(k) > 0 else "-" for k in range(1, n + 1))
