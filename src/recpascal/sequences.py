"""Integer sequence plumbing: b-file emit/parse, triangle and antidiagonal
readings of matrices, and exact cross-checks against reference term files.

A b-file is the OEIS interchange format: one "index value" pair per line,
indices consecutive, '#' starting a comment line.  The format carries no
sequence id, and a record is only an offset and its terms.

Generators build only the terms a reading returns: A007318 takes the
complete antidiagonals of the symmetric Pascal array, which are the rows of
Pascal's triangle, so it applies Pascal's rule row to row and never forms
the square array, whose unread lower-right part holds the largest values.

b-file text moves through fixed-size blocks in both directions: emit yields
a record's text a thousand lines at a time, so a writer never holds the
whole file as one string, and parse reads an open text stream in slices of
about 32 KiB that end just after a "\n", so neither the whole text nor a
list of every line is held.  A slice that is one run of plain records, two
ASCII integer fields to a line padded only with spaces and tabs, is
converted in bulk; any other slice, and a run whose indices break or whose
fields fail int(), is read line by line, the only reading that skips or
raises.  The run is found by a match that must end at the slice's end, as
a fullmatch would backtrack through every line when the last one fails.
"""
from __future__ import annotations

import re
import time
from collections import namedtuple
from itertools import chain, compress
from operator import add, ne

from .combinatorics import exact_div
from .identities import CheckReport
from .matrices import (
    _require_size,
    _require_square,
    d_matrix,
    from_rows,
    g_matrix,
    l_inverse_matrix,
    l_matrix,
    super_catalan_matrix,
)

#: ids of the catalogued sequences this package can generate terms for.
GENERATED_IDS = ("A000984", "A007318", "A094527", "A110162", "A060739")

# Patterns are kept as strings and compiled where they are first used, so a
# command that parses no b-file never compiles them.
# Matched against the raw line: re's \s and str.strip() share one Unicode
# whitespace test, so this equals a fullmatch of the stripped line.
_LINE = r"\s*(-?[0-9]+)\s+(-?[0-9]+)\s*"
# A run of plain records: lines of two fields padded only with ASCII spaces
# and tabs, each ended by "\n" or "\r\n".  Such a line is one splitlines()
# line that _LINE matches, and str.split() yields exactly its two fields.
# A slice is one run when a match of it ends at its end.  Not fullmatch: a
# fullmatch failing on a slice's last line would backtrack through every
# line before it.  A possessive quantifier would not, but needs Python 3.11.
_RUN = r"(?:[ \t]*-?[0-9]+[ \t]+-?[0-9]+[ \t]*\r?\n)+"

# Block sizes are constants, not parameters: a block's memory grows with the
# digits per term, and no caller needs another size.
#: Lines per block of emitted b-file text.
_EMIT_LINES = 1000
#: Characters after which a parse slice ends, just after the next "\n".
_PARSE_CHARS = 1 << 15


class SequenceRecord(namedtuple("SequenceRecord", "offset terms")):
    """A run of consecutive integer sequence terms; offset indexes terms[0]."""

    __slots__ = ()

    def __new__(cls, offset, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a sequence record needs at least one term")
        return super().__new__(cls, offset, terms)


def emit_bfile_blocks(rec: SequenceRecord):
    """Yield a record's b-file text, one "index value" pair per line, in
    blocks of _EMIT_LINES lines (the last block may be shorter)."""
    terms = rec.terms
    for start in range(0, len(terms), _EMIT_LINES):
        block = terms[start : start + _EMIT_LINES]
        yield "".join([f"{i} {t}\n" for i, t in enumerate(block, rec.offset + start)])


def _read_run(run: str, prev):
    """A run of plain records read in bulk: its (indices, values) as ints,
    or None when a field fails int() or the indices do not count up from
    prev + 1 (from any start when prev is None)."""
    try:
        fields = list(map(int, run.split()))
    except ValueError:
        return None
    indices = fields[0::2]
    first = indices[0] if prev is None else prev + 1
    if indices != list(range(first, first + len(indices))):
        return None
    return indices, fields[1::2]


def parse_bfile(stream) -> SequenceRecord:
    """Parse b-file text from an open text stream, a file opened in text
    mode or an io.StringIO; '#' comment lines and blank lines are skipped.

    Both fields are an optional '-' followed by ASCII digits (int() alone
    would take '+5', '1_0' and non-ASCII digits), and indices must be
    consecutive.  The stream is read a slice at a time, _PARSE_CHARS
    characters and the rest of their line, so every slice ends just after
    a "\n" (text mode reads "\r\n" and a lone "\r" as one) and neither the
    text nor a list of every line is held.  Each slice is decided once: if
    a match of _RUN ends at the slice's end, the slice is one run of plain
    records and is read in bulk, with one split, one map(int, ...) and one
    comparison of its indices with the range they must count.  Any other
    slice, one holding a comment, a blank or malformed line, or a last line
    with no "\n", is read line by line, and so is a run whose indices break
    or whose fields fail int().  The test is match plus that end check, not
    fullmatch, which backtracks through every line when the last one fails,
    and not a possessive quantifier, which needs Python 3.11.  Read line
    by line, a line takes one regular-expression match, and only a line
    that fails it is tested for being blank or a comment.  Malformed or
    out-of-order lines raise ValueError naming the offending line number;
    a field past the interpreter's int <-> str digit limit raises the
    interpreter's own ValueError.  The codec counts a UnicodeDecodeError's
    position from the block it was decoding, so one from a slice read is
    raised as ValueError("after line L: <its text>"), L the last line read
    in full; other read errors are raised as the stream raises them.  Only
    the line-by-line reading skips or raises, so the bulk reading changes
    no record and no error.
    """
    line_re, run_re = re.compile(_LINE), re.compile(_RUN)
    prev = None
    terms = []
    lineno = 0
    while True:
        try:
            chunk = stream.read(_PARSE_CHARS) + stream.readline()
        except UnicodeDecodeError as exc:
            raise ValueError(f"after line {lineno}: {exc}") from exc
        if not chunk:
            break
        run = run_re.match(chunk)
        bulk = run and run.end() == len(chunk) and _read_run(chunk, prev)
        if bulk:
            indices, values = bulk
            prev = indices[-1]
            terms += values
            lineno += len(indices)
            continue
        # the loop rebinds lineno, so it ends at the last line number read
        for lineno, line in enumerate(chunk.splitlines(), start=lineno + 1):
            match = line_re.fullmatch(line)
            if match is None:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                raise ValueError(f"line {lineno}: expected 'index value', got {line!r}")
            idx, value = match.groups()
            idx = int(idx)
            if prev is not None and idx != prev + 1:
                raise ValueError(f"line {lineno}: index {idx} does not follow {prev}")
            prev = idx
            terms.append(int(value))
    if not terms:
        raise ValueError("no terms found")
    # the indices are consecutive, so the last one and the count fix the first
    return SequenceRecord(prev - len(terms) + 1, terms)


def _triangle_rows(m) -> list:
    """Flatten a lower triangular matrix by rows: row i gives columns 0..i.
    The entries above the diagonal are not read; in L and L^-1 they are zero."""
    return [x for i, row in enumerate(m) for x in row[: i + 1]]


def antidiagonal_sequence(m) -> list:
    """Flatten a square matrix along its complete antidiagonals:
    (0,0), (0,1), (1,0), ..., n(n+1)/2 terms in all.

    Within an antidiagonal the row index ascends.  Antidiagonals past the
    main one would be cut by the matrix boundary, so they are left out.
    """
    _require_square(m)
    return [m[i][d - i] for d in range(len(m)) for i in range(d + 1)]


def det_inverse_sequence(max_n: int) -> SequenceRecord:
    """Determinants of the integer inverse for sizes 1..max_n, indexed by size.

    R^-1 = G L^-T D^-1 L^-1 G with det L = 1, so det(R_n^-1) is the running
    product of C(2m, m)^2 / d_m over m < n.  Each step is one checked
    division: C(2m, m) is even for m >= 1 and d_m = +-2.  The leading minors
    of R, which det_comparison reads, stay the independent oracle.
    """
    terms = []
    det = 1
    for c, d in zip(g_matrix(max_n), d_matrix(max_n)):
        det = exact_div(det * c * c, d)
        terms.append(det)
    return SequenceRecord(1, terms)


def crosscheck(oeis_id: str, reference: SequenceRecord, generated: SequenceRecord,
               magnitude_only: bool = False) -> CheckReport:
    """Term-by-term comparison over the overlapping index range.

    The report is named "crosscheck:<oeis_id>" and its n is the number of
    indices compared.  magnitude_only compares absolute values, for
    catalogued sequences whose sign convention is not pinned down;
    sign_pattern exists to inspect the signs themselves.
    """
    start = time.perf_counter()
    lo = max(reference.offset, generated.offset)
    hi = min(reference.offset + len(reference.terms), generated.offset + len(generated.terms))
    if lo >= hi:
        raise ValueError("index ranges do not overlap")
    expected = reference.terms[lo - reference.offset : hi - reference.offset]
    actual = generated.terms[lo - generated.offset : hi - generated.offset]
    if magnitude_only:
        expected, actual = tuple(map(abs, expected)), tuple(map(abs, actual))
    first = next(compress(range(hi - lo), map(ne, expected, actual)), None)
    mismatch = None if first is None else (lo + first, 0, expected[first], actual[first])
    return CheckReport(f"crosscheck:{oeis_id}", hi - lo, mismatch, time.perf_counter() - start)


def sign_pattern(terms) -> str:
    """One character per term: '+', '-', or '0'."""
    return "".join("+" if t > 0 else "-" if t < 0 else "0" for t in terms)


def _pascal_triangle_rows(n: int) -> list:
    """Rows 0..n-1 of Pascal's triangle.  Row d is antidiagonal d of the
    symmetric Pascal array, since C(i + (d-i), i) = C(d, i)."""
    rows = [(1,)]
    for _ in range(n - 1):
        prev = rows[-1]
        rows.append((1, *map(add, prev, prev[1:]), 1))
    return rows


def generated_sequence(oeis_id: str, n: int) -> SequenceRecord:
    """Generate this package's terms for one of the catalogued sequence ids.

    n is the generating matrix size (for A000984, the number of terms).
    Square arrays are read by complete antidiagonals only, so flat indices
    line up with the catalogued triangle readings.  For A007318 those are
    triangle rows 0..n-1, n(n+1)/2 terms, built by Pascal's rule.
    """
    # the other readings check n where their matrix is made, but Pascal's
    # rule would return row 0 for n = 0
    _require_size(n)
    if oeis_id == "A000984":
        return SequenceRecord(0, g_matrix(n))
    if oeis_id == "A007318":
        return SequenceRecord(0, chain.from_iterable(_pascal_triangle_rows(n)))
    if oeis_id == "A094527":
        return SequenceRecord(0, _triangle_rows(l_matrix(n)))
    if oeis_id == "A110162":
        return SequenceRecord(0, _triangle_rows(l_inverse_matrix(n)))
    if oeis_id == "A060739":
        return det_inverse_sequence(n)
    if oeis_id == "A068555":
        raise ValueError(
            "A068555 has no asserted reading; use super_catalan_candidates instead"
        )
    raise ValueError(f"no generator mapped to {oeis_id!r}")


def super_catalan_candidates(n: int) -> dict:
    """Candidate readings of the super Catalan array for A068555.

    None of the readings is asserted to match the catalogued sequence; they
    are emitted side by side for inspection.  The halved reading drops row
    and column 0 (every remaining value is even) and halves what is left.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    s = super_catalan_matrix(n)
    flat_rows = [x for row in s for x in row]
    anti = antidiagonal_sequence(s)
    inner = from_rows(row[1:] for row in s[1:])
    halved = [exact_div(x, 2) for x in antidiagonal_sequence(inner)]
    return {
        "rows": SequenceRecord(0, flat_rows),
        "antidiagonals": SequenceRecord(0, anti),
        "halved_antidiagonals": SequenceRecord(0, halved),
    }
