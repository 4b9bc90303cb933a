"""b-file round-trips, matrix readings, and catalogued-sequence crosschecks."""
import io
import random
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from recpascal import sequences
from recpascal import (
    SequenceRecord,
    antidiagonal_sequence,
    crosscheck,
    det_comparison,
    det_inverse_sequence,
    det_r_inverse_formula,
    emit_bfile_blocks,
    from_rows,
    generated_sequence,
    leading_minors,
    parse_bfile,
    pascal_matrix,
    reciprocal_pascal,
    sign_pattern,
    super_catalan_candidates,
)

from oracles import (
    A000984_BFILE,
    det_r_inverse_gauss_jordan,
    parse_bfile_by_fields,
    super_catalan_factorial,
    unlimited_int_digits,
)


def _parse(text: str):
    """parse_bfile on text held in memory, read as an open text stream."""
    return parse_bfile(io.StringIO(text))


def test_record_coerces_terms_to_tuple():
    rec = SequenceRecord(0, [1, 2, 6])
    assert rec.terms == (1, 2, 6)
    assert type(rec.terms) is tuple
    assert SequenceRecord(0, iter([4, 5])).terms == (4, 5)


def test_record_rejects_empty():
    with pytest.raises(ValueError):
        SequenceRecord(0, ())
    with pytest.raises(ValueError):
        SequenceRecord(0, [])


def test_record_is_an_immutable_value():
    assert SequenceRecord._fields == ("offset", "terms")
    rec = SequenceRecord(1, [1, 2])
    assert rec == SequenceRecord(1, (1, 2))
    assert hash(rec) == hash(SequenceRecord(1, (1, 2)))
    for other in (SequenceRecord(0, (1, 2)), SequenceRecord(1, (1, 3))):
        assert rec != other
    with pytest.raises(AttributeError):
        rec.terms = (3,)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_emit_pinned():
    rec = SequenceRecord(5, (10, -20, 30))
    assert "".join(emit_bfile_blocks(rec)) == "5 10\n6 -20\n7 30\n"


def test_parse_round_trip():
    rec = SequenceRecord(1, (1, -2, -36))
    again = _parse("".join(emit_bfile_blocks(rec)))
    assert again == rec


def test_parse_skips_comments_and_blanks():
    text = "# a comment\n\n0 1\n1 2\n# interior comment\n2 6\n"
    rec = _parse(text)
    assert rec.offset == 0 and rec.terms == (1, 2, 6)


def test_parse_negative_offset_and_values():
    rec = _parse("-2 5\n-1 -7\n0 0\n")
    assert rec.offset == -2 and rec.terms == (5, -7, 0)


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        _parse("0 1\n1 two\n")
    with pytest.raises(ValueError, match="line 1"):
        _parse("0 1 extra\n")
    # int() alone takes an underscore, a '+' sign and any Unicode digit
    for text in ("0 1_0\n", "+0 +5\n", "0 \u0663\n"):
        with pytest.raises(ValueError, match="line 1: expected 'index value'"):
            _parse(text)


_PAD = st.text(" \t\r\u00a0", max_size=2)
_FIELD = st.text("0123456789-\u0663_+", min_size=1, max_size=4)
_ANY = st.text("0123456789- \t\r\u00a0\u0663_+#", max_size=10)
#: Every str.splitlines() line boundary, "\r\n" included, and its name.
_LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029")
_LINE_END_NAMES = ("LF", "CRLF", "CR", "VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS")
_TERMINATOR = st.sampled_from(_LINE_ENDS)
_BLOCK_SIZE = st.integers(1, 16)
# a parse slice of 64 KiB takes each drawn text whole
_PARSE_BLOCK = _BLOCK_SIZE | st.just(1 << 16)


@st.composite
def _bfile_texts(draw):
    """Mostly well-formed b-file text: records with padding around and between
    the fields, each field either right (the next index, a plain integer) or
    drawn from the alphabet, plus comment and arbitrary lines, each line
    ended by a drawn terminator (the last one optionally by none)."""
    lines, idx = [], draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("record",) * 4 + ("comment", "any")))
        if kind == "record":
            index = str(idx) if draw(st.integers(0, 3)) else draw(_FIELD)
            value = str(draw(st.integers(-999, 999))) if draw(st.integers(0, 3)) else draw(_FIELD)
            sep = draw(st.text(" \t\u00a0", min_size=1, max_size=2))
            lines.append(draw(_PAD) + index + sep + value + draw(_PAD))
            idx += 1
        elif kind == "comment":
            lines.append(draw(_PAD) + "#" + draw(_ANY))
        else:
            lines.append(draw(_ANY))
    ends = [draw(_TERMINATOR) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(_bfile_texts(), _PARSE_BLOCK)
def test_parse_matches_the_line_by_line_reader(text, block_chars):
    # one pattern match on the raw line must read every line, blank,
    # comment, record or malformed, as stripping and splitting it does; a
    # small block size ends a slice after every "\n", next to every other
    # terminator kind
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_PARSE_CHARS", block_chars)
        outcome = _parse_outcome(_parse, text)
    assert outcome == _parse_outcome(parse_bfile_by_fields, text)


#: A tail ends every line from the drawn one on with its line end.
_TAILS = {"lone \\r tail": "\r", "\\x0c tail": "\x0c", "\\u2028 tail": "\u2028"}
#: One defect per long text: each either breaks the record it replaces or
#: is a line only the line-by-line reading takes.
_DEFECTS = ("index gap", "index repeat", "+5", "1_0", "\u0663", "third field",
            "comment", "blank line", "\u00a0 pad", "lone \\r") + tuple(_TAILS)


@st.composite
def _long_bfile_texts(draw):
    """Up to 60 records of two plain integer fields padded with spaces and
    tabs, every line ended by one drawn "\n" or "\r\n", with one defect
    at a drawn line (for a tail, its line end from that line on)."""
    end = draw(st.sampled_from(("\n", "\r\n")))
    first = draw(st.integers(-3, 3))
    values = draw(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=60))
    pad = st.text(" \t", max_size=2)
    lines = [draw(pad) + str(first + k) + draw(pad) + " " + str(v) + draw(pad)
             for k, v in enumerate(values)]
    ends = [end] * len(lines)
    at = draw(st.integers(0, len(lines) - 1))
    idx, defect = first + at, draw(st.sampled_from(_DEFECTS))
    if defect in ("index gap", "index repeat"):
        lines[at] = f"{idx + 1 if defect == 'index gap' else idx - 1} {values[at]}"
    elif defect in ("+5", "1_0", "\u0663"):
        lines[at] = f"{idx} {defect}"
    elif defect == "third field":
        lines[at] += " 7"
    elif defect in ("comment", "blank line"):
        lines.insert(at, "# comment" if defect == "comment" else "")
        ends.insert(at, end)
    elif defect == "\u00a0 pad":
        lines[at] += "\u00a0"
    elif defect == "lone \\r":
        ends[at] = "\r"
    else:
        # no "\n" after the drawn line: the rest of the text is one slice,
        # and no run of plain records starts there
        ends[at:] = [_TAILS[defect]] * (len(ends) - at)
    return "".join(map(str.__add__, lines, ends))


class _SliceRecorder:
    """An open text stream whose reads are kept: parse_bfile takes each
    slice as one read and the readline after it."""

    def __init__(self, stream):
        self.stream, self.reads = stream, []

    def read(self, size):
        self.reads.append(self.stream.read(size))
        return self.reads[-1]

    def readline(self):
        line = self.stream.readline()
        self.reads[-1] += line
        return line

    def slices(self):
        return [piece for piece in self.reads if piece]


@pytest.mark.parametrize("end", _LINE_ENDS, ids=_LINE_END_NAMES)
def test_one_line_end_text_is_sliced_and_read_as_the_line_by_line_reader(end, tmp_path):
    # a slice ends just after a "\n", so a text whose line end holds one is
    # read in many slices, not held as one; a text whose lines end only in
    # another str.splitlines() boundary is one slice, read line for line
    text = "".join(f"{k} {k * k}{end}" for k in range(1, 5000))
    assert len(text) > sequences._PARSE_CHARS
    expected = parse_bfile_by_fields(text)
    stream = _SliceRecorder(io.StringIO(text))
    assert parse_bfile(stream) == expected
    slices = stream.slices()
    assert "".join(slices) == text
    if "\n" in end:
        assert len(slices) > 1 and all(piece.endswith(end) for piece in slices)
    else:
        assert len(slices) == 1
    if end in ("\n", "\r\n", "\r"):
        # open() reads each of these as "\n", so such a file is sliced too
        path = tmp_path / "b.txt"
        path.write_bytes(text.encode())
        with open(path) as bfile:
            stream = _SliceRecorder(bfile)
            assert parse_bfile(stream) == expected
        slices = stream.slices()
        assert len(slices) > 1 and "".join(slices) == text.replace(end, "\n")
        assert all(piece.endswith("\n") for piece in slices)


@settings(max_examples=300, deadline=None)
@given(_long_bfile_texts(), st.data())
def test_bulk_runs_read_as_the_line_by_line_reader(text, data):
    # runs of plain records are read in bulk up to the defect, which only
    # the line-by-line reading may skip or report; slices from one
    # character up to past the whole text put the defect at every place in
    # a run, and start runs at every line
    block_chars = data.draw(st.integers(1, len(text) + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_PARSE_CHARS", block_chars)
        outcome = _parse_outcome(_parse, text)
    assert outcome == _parse_outcome(parse_bfile_by_fields, text)


#: Lines that only the line-by-line reading takes, each skipped.
_SKIPPED_LINES = ("# note", "#", "# 1 2", "", " \t", "\u00a0")


@st.composite
def _commented_bfile_texts(draw):
    """Plain records with comment and blank lines drawn before any of them,
    every line ended by one drawn "\n" or "\r\n"; returns the text and
    its number of records."""
    end = draw(st.sampled_from(("\n", "\r\n")))
    first = draw(st.integers(-3, 3))
    values = draw(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=80))
    lines = []
    for k, v in enumerate(values):
        lines += draw(st.lists(st.sampled_from(_SKIPPED_LINES), max_size=2))
        lines.append(f"{first + k} {v}")
    lines += draw(st.lists(st.sampled_from(_SKIPPED_LINES), max_size=2))
    return "".join(line + end for line in lines), len(values)


@settings(max_examples=300, deadline=None)
@given(_commented_bfile_texts(), st.data())
def test_records_after_comments_and_blank_lines_are_read_in_bulk(drawn, data):
    # each slice is read in bulk when it holds only plain records, and line
    # by line otherwise: records after a comment or blank line in a later
    # slice are read in bulk, and the outcome is the line-by-line reader's
    # at every slice size
    text, count = drawn
    block_chars = data.draw(st.integers(1, len(text) + 1))
    read_run, in_bulk = sequences._read_run, []

    def counted_read_run(run, prev):
        bulk = read_run(run, prev)
        if bulk:
            in_bulk.extend(bulk[0])
        return bulk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_PARSE_CHARS", block_chars)
        mp.setattr(sequences, "_read_run", counted_read_run)
        outcome = _parse_outcome(_parse, text)
    assert outcome == _parse_outcome(parse_bfile_by_fields, text)
    # the slices parse_bfile reads, cut as it cuts them
    stream, plain = io.StringIO(text), []
    while piece := stream.read(block_chars) + stream.readline():
        lines = piece.splitlines()
        if not any(line in _SKIPPED_LINES for line in lines):
            plain += [int(line.split()[0]) for line in lines]
    assert in_bulk == plain
    if len(text.splitlines()) == count:
        assert len(in_bulk) == count


def test_a_digit_limit_error_precedes_a_later_index_gap():
    # one clean run: line 3's value is past the default 4300-digit int <->
    # str limit and line 4's index breaks the count; converting the run in
    # bulk must not report the later error first
    text = "0 1\n1 2\n2 " + "9" * 5000 + "\n4 5\n5 6\n"
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        outcome = _parse_outcome(_parse, text)
        assert outcome == _parse_outcome(parse_bfile_by_fields, text)
    finally:
        sys.set_int_max_str_digits(before)
    assert outcome.startswith("Exceeds the limit") and "5000 digits" in outcome


@given(st.data(), _BLOCK_SIZE)
def test_emit_blocks_join_to_one_line_per_term(data, block_lines):
    # records of one term up to three blocks plus one
    terms = data.draw(st.lists(st.integers(-10**30, 10**30), min_size=1,
                               max_size=3 * block_lines + 1))
    rec = SequenceRecord(data.draw(st.integers(-50, 50)), terms)
    expected = "".join(str(rec.offset + k) + " " + str(t) + "\n"
                       for k, t in enumerate(terms))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_EMIT_LINES", block_lines)
        blocks = list(emit_bfile_blocks(rec))
    assert "".join(blocks) == expected
    assert [block.count("\n") for block in blocks[:-1]] == [block_lines] * (len(blocks) - 1)
    assert 1 <= blocks[-1].count("\n") <= block_lines


def test_parse_rejects_index_gap():
    with pytest.raises(ValueError, match="line 3"):
        _parse("0 1\n1 2\n3 20\n")
    with pytest.raises(ValueError, match="does not follow"):
        _parse("0 1\n0 1\n")


def test_parse_rejects_empty_input():
    with pytest.raises(ValueError, match="no terms"):
        _parse("# nothing here\n")


def test_round_trip_100_randomized_records():
    rng = random.Random(20260823)
    for _ in range(100):
        offset = rng.randint(-10, 90)
        terms = tuple(
            rng.randint(-10**30, 10**30) for _ in range(rng.randint(1, 40))
        )
        rec = SequenceRecord(offset, terms)
        assert _parse("".join(emit_bfile_blocks(rec))) == rec


@given(
    st.integers(-50, 50),
    st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=30),
)
def test_round_trip_property(offset, terms):
    rec = SequenceRecord(offset, tuple(terms))
    assert _parse("".join(emit_bfile_blocks(rec))) == rec


_huge_terms = st.builds(
    lambda sign, digits, tail: sign * (10**digits + tail),
    st.sampled_from((1, -1)),
    st.integers(4300, 9000),
    st.integers(0, 10**40),
)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(-50, 50),
    st.lists(st.integers(-10**40, 10**40), max_size=5),
    st.lists(_huge_terms, min_size=1, max_size=4),
)
def test_round_trip_property_past_the_digit_limit(offset, small, huge):
    # terms longer than the interpreter's default 4300-digit int <-> str limit
    before = sys.get_int_max_str_digits()
    rec = SequenceRecord(offset, tuple(small) + tuple(huge))
    with unlimited_int_digits():
        assert _parse("".join(emit_bfile_blocks(rec))) == rec
    assert sys.get_int_max_str_digits() == before


def test_antidiagonal_reading_pinned():
    assert antidiagonal_sequence(from_rows([[1, 1], [1, 2]])) == [1, 1, 1]
    assert antidiagonal_sequence(pascal_matrix(3)) == [1, 1, 1, 1, 2, 1]
    assert antidiagonal_sequence(from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == [
        1, 2, 4, 3, 5, 7,
    ]


def test_readings_reject_non_square():
    with pytest.raises(ValueError):
        antidiagonal_sequence(from_rows([[1, 2, 3]]))


def test_det_inverse_sequence_pinned():
    rec = det_inverse_sequence(3)
    assert rec.offset == 1
    assert rec.terms == (1, -2, -36)


def test_det_inverse_sequence_matches_formula_magnitudes():
    terms = det_inverse_sequence(96).terms
    assert len(terms) == 96
    for n in range(1, 97):
        assert abs(terms[n - 1]) == abs(det_r_inverse_formula(n)), n
    assert sign_pattern(terms) == "+--+" * 24


def test_det_inverse_sequence_matches_gauss_jordan_composition():
    rec = det_inverse_sequence(16)
    assert rec.terms == tuple(det_r_inverse_gauss_jordan(n) for n in range(1, 17))


def test_det_inverse_sequence_matches_the_leading_minor_oracle_to_96():
    # the factor product against the elimination of R that det_comparison
    # reads, signs included, at every size
    terms = det_inverse_sequence(96).terms
    minors = leading_minors(reciprocal_pascal(96))
    for n in range(1, 97):
        assert terms[n - 1] == 1 / minors[n - 1], n


def test_sign_ledger_to_16_is_unchanged():
    assert sign_pattern(det_inverse_sequence(16).terms) == "+--++--++--++--+"
    flagged = [n for n in range(1, 17) if not det_comparison(n)["sign_match"]]
    assert flagged == list(range(1, 17, 2))


def test_crosscheck_passes_on_identical_records():
    rec = SequenceRecord(0, tuple(comb(2 * m, m) for m in range(10)))
    rep = crosscheck("A000984", rec, rec)
    assert rep.passed and rep.n == 10 and rep.name == "crosscheck:A000984"


def test_crosscheck_reports_first_bad_index():
    ref = SequenceRecord(0, (1, 2, 6, 20, 70))
    bad = SequenceRecord(0, (1, 2, 6, 21, 70))
    rep = crosscheck("A000984", ref, bad)
    assert not rep.passed
    assert rep.counterexample == (3, 0, 20, 21)


def test_crosscheck_uses_the_overlap_only():
    ref = SequenceRecord(0, (1, 2, 6, 20))
    gen = SequenceRecord(2, (6, 20, 70))
    rep = crosscheck("A000984", ref, gen)
    assert rep.passed and rep.n == 2


def test_crosscheck_mismatch_at_the_last_overlapping_index():
    ref = SequenceRecord(0, (1, 2, 6, 20))
    gen = SequenceRecord(1, (2, 6, 21, 70, 252))
    rep = crosscheck("A000984", ref, gen)
    assert rep.n == 3 and rep.counterexample == (3, 0, 20, 21)


def test_crosscheck_mismatch_inside_a_shifted_overlap():
    ref = SequenceRecord(3, (20, 70, 252, 924))
    gen = SequenceRecord(1, (2, 6, 20, 71, 252, 925, 3432))
    rep = crosscheck("A000984", ref, gen)
    assert rep.n == 4 and rep.counterexample == (4, 0, 70, 71)


def test_crosscheck_rejects_disjoint_ranges():
    with pytest.raises(ValueError, match="overlap"):
        crosscheck("A000984", SequenceRecord(0, (1,)), SequenceRecord(5, (1,)))


def test_crosscheck_magnitude_only_mode():
    ref = SequenceRecord(1, (1, 2, 36))
    gen = det_inverse_sequence(3)
    assert not crosscheck("A060739", ref, gen).passed
    assert crosscheck("A060739", ref, gen, magnitude_only=True).passed


def test_crosscheck_sign_only_mismatch_and_magnitude_counterexample():
    ref = SequenceRecord(0, (1, -2, 36, 7200))
    gen = SequenceRecord(0, (1, -2, -36, -7201))
    assert crosscheck("A060739", ref, gen).counterexample == (2, 0, 36, -36)
    # magnitude_only skips the sign at index 2 and reports absolute values
    assert crosscheck("A060739", ref, gen,
                      magnitude_only=True).counterexample == (3, 0, 7200, 7201)


def test_sign_pattern():
    assert sign_pattern((1, -2, -36, 0)) == "+--0"
    assert sign_pattern(det_inverse_sequence(8).terms) == "+--++--+"


def test_generated_central_binomials():
    rec = generated_sequence("A000984", 6)
    assert rec.offset == 0 and rec.terms == (1, 2, 6, 20, 70, 252)


def test_generated_pascal_antidiagonals_match_triangle_rows():
    # complete antidiagonals of the square array are exactly the triangle rows
    for n in (*range(1, 65), 400):
        expected = tuple(comb(d, i) for d in range(n) for i in range(d + 1))
        assert generated_sequence("A007318", n).terms == expected, n


def test_generated_triangle_sequences():
    rec = generated_sequence("A094527", 3)
    assert rec.terms == (1, 2, 1, 6, 4, 1)
    rec = generated_sequence("A110162", 3)
    assert rec.terms == (1, -2, 1, 2, -4, 1)


def test_generated_det_sequence():
    assert generated_sequence("A060739", 3).terms == (1, -2, -36)


def test_generated_rejects_unknown_and_unasserted_ids():
    with pytest.raises(ValueError):
        generated_sequence("A000001", 5)
    with pytest.raises(ValueError, match="A068555"):
        generated_sequence("A068555", 5)


def test_vendored_reference_crosscheck():
    with open(A000984_BFILE) as bfile:
        reference = parse_bfile(bfile)
    assert reference.offset == 0
    assert len(reference.terms) >= 21
    generated = generated_sequence("A000984", 21)
    rep = crosscheck("A000984", reference, generated)
    assert rep.passed and rep.n == 21


def test_vendored_reference_pinned_tail():
    with open(A000984_BFILE) as bfile:
        reference = parse_bfile(bfile)
    assert reference.terms[20] == 137846528820


def test_super_catalan_candidates_structure():
    cands = super_catalan_candidates(4)
    assert set(cands) == {"rows", "antidiagonals", "halved_antidiagonals"}
    assert cands["rows"].terms[:4] == (1, 2, 6, 20)
    assert cands["antidiagonals"].terms == (1, 2, 2, 6, 2, 6, 20, 4, 4, 20)
    # halved reading drops row/column 0; every remaining value is even
    assert cands["halved_antidiagonals"].terms == (1, 2, 2, 5, 3, 5)
    for m in range(1, 6):
        for n in range(1, 6):
            assert super_catalan_factorial(m, n) % 2 == 0


def test_super_catalan_candidates_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        super_catalan_candidates(1)


def test_triangle_prefix_nesting():
    prev = ()
    for n in range(1, 21):
        cur = generated_sequence("A094527", n).terms
        assert cur[: len(prev)] == prev
        prev = cur
