"""End-to-end CLI tests, through a real subprocess unless noted."""
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from recpascal import (GENERATED_IDS, Diagonal, cli, generated_sequence, identities, matrices,
                       sequences)

from oracles import (
    A000984_BFILE,
    matrix_csv_text,
    matrix_json_text,
    matrix_pretty_text,
    unlimited_int_digits,
)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "recpascal", *args],
        capture_output=True, text=True, **kwargs,
    )


#: Modules a recpascal process loads only when its command uses them: the
#: package runs on the standard library alone, json and fractions (with
#: the decimal and numbers it pulls in) are imported where they are used,
#: and pathlib nowhere: --output and --bfile stay str paths.
_UNUSED_MODULES = ("numpy", "dataclasses", "inspect", "json", "fractions", "decimal",
                   "numbers", "pathlib")
_SRC = Path(__file__).resolve().parent.parent / "src"


def _bare_python(*args):
    # -S keeps the host's site hooks from loading any module first
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(_SRC)})


def _loaded_by_import(*names):
    # every command is its own process and pays for what the import loads;
    # none of the modules is loaded at the bare start, so the diff sees each
    code = ("import sys; before = set(sys.modules); import recpascal.cli; "
            f"watched = set({names!r}); "
            "print(sorted(watched & before), sorted(watched & (set(sys.modules) - before)))")
    res = _bare_python("-c", code)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_cli_import_leaves_numpy_unloaded():
    # the package runs on the standard library alone
    assert _loaded_by_import("numpy") == "[] []\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    assert _loaded_by_import("dataclasses", "inspect") == "[] []\n"


def test_cli_import_leaves_json_and_fractions_unloaded():
    # json and fractions, with the decimal and numbers it pulls in, are
    # imported inside the functions that use them
    assert _loaded_by_import("json", "fractions", "decimal", "numbers") == "[] []\n"


def test_cli_import_leaves_pathlib_unloaded():
    assert _loaded_by_import("pathlib") == "[] []\n"


@pytest.mark.parametrize("argv", [("invert", "--format", "json"),
                                  ("gen", "--matrix", "Linv", "--format", "bfile"),
                                  ("oeis", "--id", "A110162")], ids=" ".join)
def test_commands_that_need_no_json_or_fraction_finish_without_them(argv):
    # -X importtime lists every module the process imports, on stderr
    res = _bare_python("-X", "importtime", "-m", "recpascal", *argv)
    assert res.returncode == 0 and res.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
                if line.startswith("import time:")}
    assert "recpascal.cli" in imported
    assert not imported & set(_UNUSED_MODULES)


def test_gen_reciprocal_csv_pinned_bytes():
    res = run_cli("gen", "--matrix", "reciprocal", "--n", "2", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout == "1,1\n1,1/2\n"


def test_gen_output_is_byte_stable():
    for args in (
        ("gen", "--matrix", "supercatalan", "--n", "7", "--format", "csv"),
        ("gen", "--matrix", "Rinv", "--n", "7", "--format", "json"),
        ("gen", "--matrix", "L", "--n", "7", "--format", "bfile"),
        ("gen", "--matrix", "reciprocal", "--n", "7", "--format", "pretty"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty


def test_gen_json_schema():
    res = run_cli("gen", "--matrix", "reciprocal", "--n", "2", "--format", "json")
    obj = json.loads(res.stdout)
    assert list(obj) == ["rows", "cols", "entries"]
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["entries"] == [["1", "1"], ["1", "1"], ["1", "1"], ["1", "2"]]


#: Small rectangular matrices of ints and Fractions of either sign.
_SMALL_MATRICES = st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-10**40, 10**40) | st.fractions(max_denominator=10**20),
             min_size=cols, max_size=cols),
    min_size=1, max_size=5))


@given(_SMALL_MATRICES)
@example([[0]])
@example([[Fraction(-1, 2)]])
def test_matrix_text_is_the_whole_text_a_row_at_a_time(dense):
    # one piece per row, and json's header and closing besides
    pieces = [list(render(dense))
              for render in (cli._render_csv, cli._render_pretty, cli._render_json)]
    assert [len(p) for p in pieces] == [len(dense), len(dense), len(dense) + 2]
    assert "".join(pieces[0]) == matrix_csv_text(dense)
    assert "".join(pieces[1]) == matrix_pretty_text(dense)
    assert "".join(pieces[2]) == matrix_json_text(dense)


def test_gen_triangle_bfile():
    res = run_cli("gen", "--matrix", "L", "--n", "3", "--format", "bfile")
    assert res.stdout == "0 1\n1 2\n2 1\n3 6\n4 4\n5 1\n"


def test_gen_diagonal_matrices_render_dense():
    res = run_cli("gen", "--matrix", "D", "--n", "3", "--format", "csv")
    assert res.stdout == "1,0,0\n0,-2,0\n0,0,2\n"


def test_gen_d_bfile_is_its_diagonal():
    # D has no catalogued reading, so its b-file is its own diagonal
    res = run_cli("gen", "--matrix", "D", "--n", "4", "--format", "bfile")
    assert (res.returncode, res.stdout, res.stderr) == (0, "0 1\n1 -2\n2 2\n3 -2\n", "")
    for n in range(1, 65):
        code, out, err = _main_in_process(["gen", "--matrix", "D", "--n", str(n),
                                           "--format", "bfile"])
        assert (code, err) == (0, "")
        assert out == "".join(f"{k} {d}\n" for k, d in enumerate(matrices.d_matrix(n).diag))


def test_gen_default_size_is_8():
    res = run_cli("gen", "--matrix", "pascal", "--format", "csv")
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 8


def test_invert_pinned():
    res = run_cli("invert", "--n", "2", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout == "-1,2\n2,-2\n"


def test_invert_rejects_size_zero():
    res = run_cli("invert", "--n", "0")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "at least 1" in res.stderr


def test_unknown_matrix_name_is_a_usage_error():
    res = run_cli("gen", "--matrix", "hilbert", "--n", "3")
    assert res.returncode == 2
    assert res.stderr


def test_unknown_subcommand_is_a_usage_error():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_det_json_pinned():
    res = run_cli("det", "--n", "3", "--format", "json")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj == {
        "formula": "36",
        "oracle": "-36",
        "magnitude_match": True,
        "sign_match": False,
    }


def test_det_pretty_mentions_both_values():
    res = run_cli("det", "--n", "2")
    assert res.returncode == 0
    assert "-2" in res.stdout and "magnitude match: True" in res.stdout


def test_det_past_the_digit_limit():
    # det(R_90^-1) has more digits than the interpreter's default 4300-digit
    # int <-> str limit; the CLI must still print it
    res = run_cli("det", "--n", "90")
    assert res.returncode == 0, res.stderr
    assert "magnitude match: True\n" in res.stdout
    oracle = next(line for line in res.stdout.splitlines() if line.startswith("oracle:"))
    digits = oracle.split()[1].lstrip("-")
    assert digits.isdigit() and len(digits) > 4300


def test_check_all_passes():
    res = run_cli("check", "--checks", "all", "--n", "8")
    assert res.returncode == 0
    reports = json.loads(res.stdout)
    assert [rep["name"] for rep in reports] == [
        "grg", "ldl", "vonszily", "parity", "integrality", "det",
    ]
    for rep in reports:
        assert rep["passed"] is True
        assert rep["counterexample"] is None
        assert list(rep) == ["name", "n", "passed", "counterexample", "elapsed_ms"]


def test_check_subset():
    res = run_cli("check", "--checks", "grg", "ldl", "--n", "5")
    assert res.returncode == 0
    assert [rep["name"] for rep in json.loads(res.stdout)] == ["grg", "ldl"]


def test_check_rejects_unknown_name():
    res = run_cli("check", "--checks", "everything")
    assert res.returncode == 2


def test_check_under_a_planted_generator_fault_reports_every_check(monkeypatch):
    # C(10, 5) raised by 2 breaks the generators' own checked divisions; each
    # check reports that as its counterexample instead of raising
    central = matrices._central_binomials
    monkeypatch.setattr(matrices, "_central_binomials",
                        lambda n: [c + 2 if m == 5 else c for m, c in enumerate(central(n))])
    code, out, err = _main_in_process(["check", "--n", "10"])
    assert (code, err) == (1, "")
    reports = json.loads(out)
    assert [rep["name"] for rep in reports] == list(cli._CHECKS)
    assert len(reports) == 6 and not any(rep["passed"] for rep in reports)
    assert reports[0]["counterexample"] == {"i": 0, "j": 0, "expected": "an exact division",
                                            "actual": "13208 is not divisible by 12"}


def test_a_zero_leading_minor_fails_check_and_det_without_traceback(monkeypatch):
    # C(2, 1) lowered to 1 makes R's leading 2 x 2 block all ones, so the
    # elimination oracle meets a zero pivot at size 2
    pascal = matrices.pascal_matrix
    monkeypatch.setattr(matrices, "pascal_matrix", lambda n: matrices.from_rows(
        [x - ((i, j) == (1, 1)) for j, x in enumerate(row)] for i, row in enumerate(pascal(n))))
    message = "1 / det(R_4): leading principal minor of size 2 is zero"
    code, out, err = _main_in_process(["check", "--n", "4"])
    assert (code, err) == (1, "")
    reports = {rep["name"]: rep for rep in json.loads(out)}
    assert {name for name, rep in reports.items() if not rep["passed"]} == {
        "grg", "integrality", "det"}
    assert reports["det"]["counterexample"] == {
        "i": 0, "j": 0, "expected": "a nonzero leading minor", "actual": message}
    for fmt in ("pretty", "json"):
        assert _main_in_process(["det", "--n", "4", "--format", fmt]) == (
            1, "", f"recpascal: an exactness claim failed: {message}\n")


@pytest.mark.parametrize("argv", [
    ["invert"], ["gen", "--matrix", "Rinv"], ["oeis", "--id", "A060739"], ["bench"],
], ids=lambda argv: argv[0])
def test_a_route_exactness_error_exits_1_without_traceback(monkeypatch, tmp_path, argv):
    # with D = (2) the doubled inverse and the determinant step are the odd
    # 1: the route's checked halving fails, a failed integrality claim; the
    # inverse route names the entry, c_0 = R^-1[0][0]
    monkeypatch.setattr(identities, "d_matrix", lambda n: Diagonal((2,) * n))
    monkeypatch.setattr(sequences, "d_matrix", lambda n: Diagonal((2,) * n))
    entry = "" if argv[0] == "oeis" else "entry (0, 0) of R^-1: "
    message = f"recpascal: an exactness claim failed: {entry}1 is not divisible by 2\n"
    assert _main_in_process([*argv, "--n", "1"]) == (1, "", message)
    out = tmp_path / "out.txt"
    assert _main_in_process([*argv, "--n", "1", "--output", str(out)]) == (1, "", message)
    assert not out.exists()


def test_a_failed_fill_division_names_its_entry(monkeypatch):
    # one off in v = R^-1 (0, 1, ..., 7) leaves a remainder in the last
    # row's division by 5: invert prints one line naming the entry, and the
    # integrality check reports the same entry as the non-integer it found
    c, v = identities._r_inverse_columns(8)
    planted = v[:4] + (v[4] + 1,) + v[5:]
    monkeypatch.setattr(identities, "_r_inverse_columns", lambda n: (c, planted))
    assert _main_in_process(["invert", "--n", "8"]) == (
        1, "", "recpascal: an exactness claim failed: "
               "entry (7, 5) of R^-1: -166489752 is not divisible by 5\n")
    code, out, err = _main_in_process(["check", "--checks", "integrality", "--n", "8"])
    assert (code, err) == (1, "")
    assert json.loads(out)[0]["counterexample"] == {
        "i": 7, "j": 5, "expected": "an integer entry", "actual": "-166489752/5"}


def test_a_wrong_v0_fails_a_row_sum_not_silently(monkeypatch):
    # v_0 only ever meets divisions by 1, so one off in it fills an
    # all-integer R^-1 that is wrong; row 1 then sums to -2, not 0, which
    # invert reports in one line and the check as the entry (0, 1) of R . R^-1
    c, v = identities._r_inverse_columns(8)
    monkeypatch.setattr(identities, "_r_inverse_columns", lambda n: (c, (v[0] + 1,) + v[1:]))
    assert _main_in_process(["invert", "--n", "8"]) == (
        1, "", "recpascal: an exactness claim failed: row 1 of R^-1 sums to -2, not 0\n")
    code, out, err = _main_in_process(["check", "--checks", "integrality", "--n", "8"])
    assert (code, err) == (1, "")
    assert json.loads(out)[0]["counterexample"] == {
        "i": 0, "j": 1, "expected": "0", "actual": "-2"}


def test_oeis_emit_without_reference():
    res = run_cli("oeis", "--id", "A094527", "--n", "3")
    assert res.returncode == 0
    assert res.stdout == "0 1\n1 2\n2 1\n3 6\n4 4\n5 1\n"


def test_oeis_crosscheck_vendored_reference():
    res = run_cli("oeis", "--id", "A000984", "--n", "21", "--bfile", str(A000984_BFILE))
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["report"]["passed"] is True
    assert obj["report"]["n"] == 21


def test_oeis_crosscheck_failure_exits_1(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 2\n2 6\n3 21\n")
    res = run_cli("oeis", "--id", "A000984", "--n", "10", "--bfile", str(bad))
    assert res.returncode == 1
    obj = json.loads(res.stdout)
    assert obj["report"]["passed"] is False
    assert obj["report"]["counterexample"]["i"] == 3


def test_oeis_malformed_reference_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    for text in ("0 1\n5 2\n", "0 1_0\n"):
        bad.write_text(text)
        res = run_cli("oeis", "--id", "A000984", "--n", "5", "--bfile", str(bad))
        assert res.returncode == 2
        assert "recpascal: cannot read b-file" in res.stderr


def test_malformed_reference_leaves_the_output_file_unchanged(tmp_path):
    # the reference is parsed before --output is opened, which truncates it
    bad, out = tmp_path / "bad.txt", tmp_path / "out.txt"
    bad.write_text("0 1\n1 2\n3 20\n")
    out.write_bytes(b"kept\r\nas it was\n")
    res = run_cli("oeis", "--id", "A000984", "--n", "5", "--bfile", str(bad),
                  "--output", str(out))
    assert res.returncode == 2
    assert res.stderr == "recpascal: cannot read b-file: line 3: index 3 does not follow 1\n"
    assert out.read_bytes() == b"kept\r\nas it was\n"


def test_undecodable_reference_exits_2(tmp_path):
    # open() decodes in the locale's encoding; UTF-8 mode fixes it here
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n1 2\n2 \xff\n")
    res = run_cli("oeis", "--id", "A000984", "--n", "5", "--bfile", str(bad),
                  env={**os.environ, "PYTHONUTF8": "1"})
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("recpascal: cannot read b-file: ")
    assert "can't decode byte 0xff" in res.stderr and "Traceback" not in res.stderr


def test_undecodable_byte_is_located_by_the_last_line_read(tmp_path):
    # the codec counts its position from the block it was decoding, so the
    # message names the last line read in full: the bad byte, at the start of
    # line 6804, lies in the slice after it
    _, text, _ = _main_in_process(["oeis", "--id", "A007318", "--n", "300"])
    lines = text.encode().splitlines(keepends=True)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"".join(lines[:6803]) + b"\xff" + b"".join(lines[6803:]))
    res = run_cli("oeis", "--id", "A007318", "--n", "300", "--bfile", str(bad),
                  env={**os.environ, "PYTHONUTF8": "1"})
    assert (res.returncode, res.stdout) == (2, "")
    prefix = "recpascal: cannot read b-file: after line "
    assert res.stderr.startswith(prefix) and "can't decode byte 0xff" in res.stderr
    named = int(res.stderr[len(prefix):].split(":", 1)[0])
    assert named < 6804
    assert len(b"".join(lines[named:6803])) < sequences._PARSE_CHARS


def test_oeis_missing_reference_file_exits_2(tmp_path):
    res = run_cli("oeis", "--id", "A000984", "--bfile", str(tmp_path / "nope.txt"))
    assert res.returncode == 2


@pytest.mark.parametrize("oeis_id", ["A000984", "A060739"])
def test_oeis_non_overlapping_reference_exits_2(tmp_path, oeis_id):
    far = tmp_path / "far.txt"
    far.write_text("100 1\n101 2\n")
    res = run_cli("oeis", "--id", oeis_id, "--n", "5", "--bfile", str(far))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "recpascal: cannot cross-check: index ranges do not overlap\n"


def test_oeis_det_sequence_magnitude_default(tmp_path):
    # reference with all-positive magnitudes: passes unsigned, fails signed
    ref = tmp_path / "a060739.txt"
    ref.write_text("1 1\n2 2\n3 36\n4 7200\n")
    res = run_cli("oeis", "--id", "A060739", "--n", "4", "--bfile", str(ref))
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["signed"] is False and obj["report"]["passed"] is True
    assert obj["generated_signs"] == "+--+"

    res = run_cli("oeis", "--id", "A060739", "--n", "4", "--bfile", str(ref), "--signed")
    assert res.returncode == 1
    assert json.loads(res.stdout)["report"]["passed"] is False


def test_oeis_candidates_assert_nothing(tmp_path):
    res = run_cli("oeis", "--id", "A068555", "--n", "4")
    assert res.returncode == 0
    assert "# candidate reading: rows" in res.stdout

    ref = tmp_path / "ref.txt"
    ref.write_text("0 1\n1 999\n")
    res = run_cli("oeis", "--id", "A068555", "--n", "4", "--bfile", str(ref))
    assert res.returncode == 0  # report only, never a failure exit
    obj = json.loads(res.stdout)
    assert obj["asserted"] is False
    assert set(obj["candidates"]) == {"rows", "antidiagonals", "halved_antidiagonals"}
    assert {rep["name"] for rep in obj["candidates"].values()} == {"crosscheck:A068555"}


def test_oeis_candidates_emit_does_not_read_back(tmp_path):
    # the three candidate readings are three b-files, each restarting at
    # index 0, so the emit is no reference for --bfile
    ref = tmp_path / "ref.txt"
    ref.write_text(run_cli("oeis", "--id", "A068555", "--n", "4").stdout)
    res = run_cli("oeis", "--id", "A068555", "--n", "4", "--bfile", str(ref))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "recpascal: cannot read b-file: line 19: index 0 does not follow 15\n"


@pytest.mark.parametrize("oeis_id", GENERATED_IDS)
def test_crosscheck_report_is_named_by_the_id_in_process(tmp_path, oeis_id):
    _, emitted, _ = _main_in_process(["oeis", "--id", oeis_id, "--n", "6"])
    ref = tmp_path / "ref.txt"
    ref.write_text(emitted)
    code, out, err = _main_in_process(["oeis", "--id", oeis_id, "--n", "6", "--bfile", str(ref)])
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]["name"] == f"crosscheck:{oeis_id}"


def test_bench_reports_equality_and_bits():
    for n, bits in ((1, 1), (6, 18), (24, 106)):
        res = run_cli("bench", "--n", str(n))
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["equal"] is True
        assert obj["factorization"]["max_numerator_bits"] == bits
        assert obj["gauss_jordan"]["max_numerator_bits"] == bits
        assert obj["factorization"]["seconds"] >= 0


def test_oeis_terms_past_the_digit_limit_round_trip(tmp_path):
    # C(2m, m) passes the interpreter's default 4300-digit int <-> str limit
    # near m = 7150; emitting and re-reading such terms must still work
    ref = tmp_path / "b000984.txt"
    res = run_cli("oeis", "--id", "A000984", "--n", "8000", "--output", str(ref))
    assert res.returncode == 0 and res.stderr == ""
    last_index, last_term = ref.read_text().splitlines()[-1].split()
    with unlimited_int_digits():
        assert (int(last_index), int(last_term)) == (7999, comb(15998, 7999))
    res = run_cli("oeis", "--id", "A000984", "--n", "8000", "--bfile", str(ref))
    assert res.returncode == 0 and res.stderr == ""
    report = json.loads(res.stdout)["report"]
    assert report["passed"] is True and report["n"] == 8000


def test_oeis_pascal_triangle_at_benchmark_scale_in_process(tmp_path, capsys):
    # the sequence benchmark's A007318 ops: emit 400 antidiagonals, then
    # cross-check the written file against a fresh generation
    ref = tmp_path / "b007318.txt"
    for argv in (["--output", str(ref)], ["--bfile", str(ref)]):
        with unlimited_int_digits(), pytest.raises(SystemExit) as exit_info:
            cli.main(["oeis", "--id", "A007318", "--n", "400", *argv])
        assert exit_info.value.code == 0
    assert ref.read_text().endswith("80198 399\n80199 1\n")
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["passed"] is True and report["n"] == 80200


def _traced_peak_mb(argv) -> float:
    """Peak traced allocation of one in-process run of main, in MB."""
    tracemalloc.start()
    try:
        with unlimited_int_digits(), pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_info.value.code == 0
    return peak / 2**20


def test_pascal_triangle_ops_hold_no_whole_file_copy(tmp_path, capsys):
    # the sequence benchmark's A007318 ops: joining every line of the 5.1 MB
    # b-file into one string peaks near 19 MB, and so does holding a list of
    # every line of the reference beside its text; in blocks, the emit holds
    # the terms and the cross-check a slice of the reference and both records
    ref = tmp_path / "b007318.txt"
    emit = ["oeis", "--id", "A007318", "--n", "400"]
    assert _traced_peak_mb([*emit, "--output", str(ref)]) < 10
    assert _traced_peak_mb([*emit, "--bfile", str(ref)]) < 14
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


def test_central_binomial_crosscheck_holds_no_whole_file_copy(tmp_path, capsys):
    # A000984 to n = 4000 writes 4.8 MB of text, which outweighs its terms:
    # holding the reference's bytes and decoded text peaks at 9.3 MB traced,
    # and reading the open file a slice at a time at 4.5 MB, the terms
    ref = tmp_path / "b000984.txt"
    emit = ["oeis", "--id", "A000984", "--n", "4000"]
    assert _main_in_process([*emit, "--output", str(ref)]) == (0, "", "")
    assert _traced_peak_mb([*emit, "--bfile", str(ref)]) < 6
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


@pytest.mark.parametrize("fmt,bound", [("csv", 5), ("pretty", 6), ("json", 5)],
                         ids=["csv", "pretty", "json"])
def test_matrix_output_holds_no_whole_text_copy(tmp_path, fmt, bound):
    # invert --n 128 writes 2.3-2.7 MB; its whole text as one string peaked
    # at 6.4 / 10.2 / 13.9 MB traced (csv / pretty / json), a row at a time
    # at 3.5 / 4.8 / 3.4 MB: the inverse, and pretty's cell strings
    argv = ["invert", "--n", "128", "--format", fmt, "--output", str(tmp_path / "rinv")]
    assert _traced_peak_mb(argv) < bound


class _PipeClosedAfterOneWrite(io.StringIO):
    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_broken_pipe_mid_stream_exits_2_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _PipeClosedAfterOneWrite())
    with unlimited_int_digits(), pytest.raises(SystemExit) as exit_info:
        cli.main(["oeis", "--id", "A007318", "--n", "400"])
    assert exit_info.value.code == 2
    assert sys.stdout.getvalue().startswith("0 1\n1 1\n2 1\n3 1\n4 2\n")
    assert capsys.readouterr().err == "recpascal: cannot write output: [Errno 32] Broken pipe\n"


def _unbuffered_env(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


@pytest.mark.parametrize("argv", [
    # 160 matrix rows, one piece each: 4.8 MB and 1.4 MB of text in all
    ["invert", "--n", "160", "--format", "csv"],
    ["gen", "--matrix", "Rinv", "--n", "160", "--format", "json"],
    # 81 blocks of b-file text
    ["oeis", "--id", "A007318", "--n", "400"],
], ids=["invert", "gen", "oeis"])
def test_pipe_closed_by_its_reader_exits_2_unbuffered(argv):
    # unbuffered, stdout's binary layer is a raw file: the write cut short by
    # the closed pipe returns a short count, which must not pass for success
    proc = subprocess.Popen([sys.executable, "-m", "recpascal", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_unbuffered_env(True))
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == "recpascal: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["invert", "--n", "12", "--format", "pretty"],
    ["gen", "--matrix", "Rinv", "--n", "40", "--format", "json"],
    ["oeis", "--id", "A007318", "--n", "64"],
    ["invert", "--n", "40", "--format", "csv"],
], ids=["invert", "gen", "oeis", "invert-csv"])
def test_stdout_bytes_do_not_depend_on_buffering(argv):
    outputs = [subprocess.run([sys.executable, "-m", "recpascal", *argv],
                              capture_output=True, env=_unbuffered_env(unbuffered))
               for unbuffered in (False, True)]
    assert [res.returncode for res in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout != b""


@pytest.mark.parametrize("argv", [
    ["gen", "--matrix", "pascal", "--n", "5"],
    ["oeis", "--id", "A007318", "--n", "5"],
])
def test_memory_error_exits_2_in_process(monkeypatch, capsys, argv):
    # stands in for a size too large to hold; never allocate one for real
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setitem(cli._GENERATORS, "pascal", exhausted)
    monkeypatch.setattr(cli, "generated_sequence", exhausted)
    with unlimited_int_digits(), pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "recpascal: out of memory (--n 5)\n"


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "m.csv"
    res = run_cli("gen", "--matrix", "pascal", "--n", "2", "--format", "csv",
                  "--output", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    assert out.read_text() == "1,1\n1,2\n"


def test_output_to_unwritable_path_exits_2(tmp_path):
    res = run_cli("gen", "--n", "2", "--output", str(tmp_path / "missing" / "x"))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("recpascal: cannot write")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("name,errno", [("missing/x", "[Errno 2] No such file or directory"),
                                        ("out/", "[Errno 21] Is a directory")])
def test_output_path_is_opened_as_given(tmp_path, name, errno):
    # a trailing slash names a directory, so nothing is written
    path = f"{tmp_path}/{name}"
    code, out, err = _main_in_process(["gen", "--n", "2", "--format", "csv", "--output", path])
    assert (code, out) == (2, "")
    assert err == f"recpascal: cannot write output: {errno}: '{path}'\n"
    assert list(tmp_path.iterdir()) == []


def test_empty_output_path_names_no_file():
    code, out, err = _main_in_process(["gen", "--n", "2", "--output", ""])
    assert (code, out) == (2, "")
    assert err == "recpascal: cannot write output: [Errno 2] No such file or directory: ''\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--n", "3"], id="gen"),
    pytest.param(["check", "--n", "3"], id="check"),
    # 81 blocks of b-file text: the device fills in the middle of the stream
    pytest.param(["oeis", "--id", "A007318", "--n", "400"], id="oeis"),
])
def test_output_to_a_full_device_exits_2(argv):
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "recpascal", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert res.returncode == 2
    assert res.stderr.startswith("recpascal: cannot write")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
def test_a_closed_stdout_is_an_output_error_not_a_crash(tmp_path, output):
    # with fd 1 closed at start Python's sys.stdout is None: writing to it
    # exits 2, and an --output run never touches it
    path = tmp_path / "m.csv"
    argv = ["gen", "--n", "2", "--format", "csv"] + (["--output", str(path)] if output else [])
    res = subprocess.run([sys.executable, "-m", "recpascal", *argv], stdout=None,
                         stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    if output:
        assert (res.returncode, res.stderr) == (0, "")
        assert path.read_text() == "1,1\n1,1/2\n"
    else:
        assert (res.returncode, res.stderr) == (
            2, "recpascal: cannot write output: stdout is closed\n")


#: The --format choices each command renders; any other format is a usage
#: error, and check, bench and oeis take no --format at all.
_ALL_FORMATS = ("pretty", "csv", "json", "bfile")
_FORMAT_CHOICES = {"gen": _ALL_FORMATS, "invert": _ALL_FORMATS, "det": ("pretty", "json"),
                   "check": (), "oeis": (), "bench": ()}
_HONOURED_PAIRS = [(command, fmt) for command, formats in _FORMAT_CHOICES.items()
                   for fmt in formats]
_REMOVED_PAIRS = [(command, fmt) for command, formats in _FORMAT_CHOICES.items()
                  for fmt in _ALL_FORMATS if fmt not in formats]


def _main_in_process(argv):
    """(exit code, stdout, stderr) of one in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    # main lifts the int <-> str digit limit; the context restores it
    with unlimited_int_digits(), redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    return exit_info.value.code, out.getvalue(), err.getvalue()


def _assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("usage: recpascal") and "error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,fmt", _HONOURED_PAIRS)
def test_each_command_renders_its_own_formats(command, fmt):
    # gen's default matrix, reciprocal, has no b-file reading
    matrix = ["--matrix", "Rinv"] if (command, fmt) == ("gen", "bfile") else []
    code, out, err = _main_in_process([command, "--n", "2", "--format", fmt, *matrix])
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv", [
    *(pytest.param([command, "--n", "2", "--format", fmt]
                   + (["--id", "A000984"] if command == "oeis" else []),
                   id=f"{command}-{fmt}")
      for command, fmt in _REMOVED_PAIRS),
    pytest.param(["oeis", "--id", "A000984", "--n", "2", "--bfile", str(A000984_BFILE),
                  "--signed"], id="signed-other-id"),
    pytest.param(["oeis", "--id", "A060739", "--n", "2", "--signed"],
                 id="signed-without-bfile"),
])
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    _assert_usage_error(*_main_in_process(argv))


@pytest.mark.parametrize("argv", [
    pytest.param(["oeis", "--id", "A068555", "--n", "1"], id="a068555-emit"),
    pytest.param(["oeis", "--id", "A068555", "--n", "1", "--bfile", str(A000984_BFILE)],
                 id="a068555-crosscheck"),
    # past sys.maxsize, (1,) * n and [0] * n raise OverflowError, not MemoryError
    pytest.param(["gen", "--matrix", "pascal", "--n", str(10**20)], id="gen-oversized"),
    pytest.param(["invert", "--n", str(10**20)], id="invert-oversized"),
    pytest.param(["invert", "--n", str(sys.maxsize + 1)], id="invert-maxsize-plus-1"),
])
def test_sizes_a_command_cannot_take_are_usage_errors(argv):
    _assert_usage_error(*_main_in_process(argv))


@pytest.mark.parametrize("argv,message", [
    pytest.param(["oeis", "--id", "A060739", "--n", "2", "--signed"],
                 "--signed applies only to oeis --id A060739 --bfile FILE",
                 id="signed-without-bfile"),
    pytest.param(["oeis", "--id", "A068555", "--n", "1"],
                 "oeis --id A068555 needs --n 2 or more", id="a068555-emit"),
])
def test_oeis_cross_flag_errors_show_the_oeis_usage(argv, message):
    code, out, err = _main_in_process(argv)
    _assert_usage_error(code, out, err)
    assert err.startswith("usage: recpascal oeis ")
    assert err.endswith(f"recpascal oeis: error: {message}\n")


def test_gen_reciprocal_bfile_is_a_usage_error():
    # its entries are fractions, which no b-file reader takes
    code, out, err = _main_in_process(["gen", "--matrix", "reciprocal", "--n", "3",
                                       "--format", "bfile"])
    _assert_usage_error(code, out, err)
    assert err.startswith("usage: recpascal gen ")
    assert err.endswith("recpascal gen: error: gen --matrix reciprocal has no --format "
                        "bfile: its entries are not integers\n")


def _crosscheck_exit(reference: dict, generated: dict, magnitude_only: bool) -> int:
    """Exit code of a cross-check of {index: term} maps: 2 if no index is
    shared, else 0 if every shared term agrees, else 1."""
    shared = reference.keys() & generated.keys()
    if not shared:
        return 2
    if magnitude_only:
        reference = {i: abs(term) for i, term in reference.items()}
        generated = {i: abs(term) for i, term in generated.items()}
    return 0 if all(reference[i] == generated[i] for i in shared) else 1


def _draw_reference(data, generated: dict) -> dict:
    """{index: term} for a well-formed b-file: consecutive indices from a
    negative, shifted or huge offset, overlapping the generated terms in
    part, in full or not at all; each term the generated one or a value of
    up to hundreds of digits."""
    count = data.draw(st.integers(1, 40))
    lo, hi = (min(generated), max(generated) + 1) if generated else (0, 1)
    start = data.draw(st.integers(lo - count, hi))
    if data.draw(st.integers(0, 3)) == 0:
        start += data.draw(st.sampled_from((-1, 1))) * 10 ** data.draw(st.integers(6, 40))
    copy = data.draw(st.booleans())
    values = st.integers(-10**9, 10**9) | st.integers(10**199, 10**400) \
        | st.integers(-10**400, -10**199)
    return {i: generated[i] if copy and i in generated else data.draw(values)
            for i in range(start, start + count)}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_contract_in_process(tmp_path, data):
    # 0 ok, 1 a check failed, 2 usage or input error; any other exception
    # escaping main is the in-process form of a traceback.  About one draw in
    # four passes a --format its command does not render.
    if data.draw(st.integers(0, 3)) == 0:
        command, fmt = data.draw(st.sampled_from(_REMOVED_PAIRS))
    else:
        command = data.draw(st.sampled_from(tuple(_FORMAT_CHOICES)))
        fmt = data.draw(st.sampled_from((None, *_FORMAT_CHOICES[command])))
    n = data.draw(st.integers(1, 4) | st.integers(1, 24))
    argv = [command, "--n", str(n)] + (["--format", fmt] if fmt else [])
    expected = (0, 1, 2)
    usage_error = (command, fmt) in _REMOVED_PAIRS
    if command == "gen":
        matrix = data.draw(st.sampled_from(tuple(cli._GENERATORS)))
        argv += ["--matrix", matrix]
        usage_error = usage_error or (matrix, fmt) == ("reciprocal", "bfile")
    elif command == "check":
        argv += ["--checks", data.draw(st.sampled_from(tuple(cli._CHECKS) + ("all",)))]
    elif command == "oeis":
        oeis_id = data.draw(st.sampled_from(GENERATED_IDS + ("A068555",)))
        argv += ["--id", oeis_id]
        kind = data.draw(st.sampled_from(
            ("none", "missing", "directory", "garbage", "wellformed")))
        signed = data.draw(st.integers(0, 3)) == 0
        bfile = tmp_path / f"{kind}.txt"
        if kind == "directory":
            bfile = tmp_path
        elif kind == "garbage":
            bfile.write_bytes(data.draw(st.binary(max_size=64)))
        elif kind == "wellformed":
            generated = {}
            if oeis_id != "A068555":
                rec = generated_sequence(oeis_id, n)
                generated = dict(enumerate(rec.terms, rec.offset))
            reference = _draw_reference(data, generated)
            lines = [f"{i} {term}\n" for i, term in reference.items()]
            for _ in range(data.draw(st.integers(0, 3))):
                lines.insert(data.draw(st.integers(0, len(lines))), "# a comment line\n")
            bfile.write_text("".join(lines))
            # the candidate readings of A068555 assert nothing
            expected = (0,) if oeis_id == "A068555" else (_crosscheck_exit(
                reference, generated, magnitude_only=oeis_id == "A060739" and not signed),)
        if kind != "none":
            argv += ["--bfile", str(bfile)]
        if signed:
            argv.append("--signed")
            usage_error = usage_error or oeis_id != "A060739" or kind == "none"
        # the candidate readings start at size 2
        usage_error = usage_error or (oeis_id == "A068555" and n == 1)
    code, out, err = _main_in_process(argv)
    if usage_error:
        _assert_usage_error(code, out, err)
    else:
        assert code in expected, (argv, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("matrix,oeis_id", [("pascal", "A007318"), ("L", "A094527"),
                                             ("Linv", "A110162"), ("G", "A000984")])
def test_gen_bfile_prints_the_oeis_bytes_in_process(matrix, oeis_id):
    # README: these gen readings print the same bytes as oeis --id
    for n in range(1, 25):
        gen = _main_in_process(["gen", "--matrix", matrix, "--n", str(n), "--format", "bfile"])
        oeis = _main_in_process(["oeis", "--id", oeis_id, "--n", str(n)])
        code, out, err = gen
        assert code == 0 and out and err == "", (matrix, n, err)
        assert gen == oeis, (matrix, n)


_README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples_run_in_process(tmp_path, monkeypatch):
    # every `recpascal ...` line of the README's CLI block, from a directory
    # holding the ref.txt it names; a rejected flag would exit 2
    block = _README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("recpascal ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref.txt").write_text(A000984_BFILE.read_text())
    for line in lines:
        code, out, err = _main_in_process(shlex.split(line, comments=True)[1:])
        assert code in (0, 1), (line, err)
        assert out


def test_console_script_entry_point():
    try:
        res = subprocess.run(
            ["recpascal", "det", "--n", "2", "--format", "json"],
            capture_output=True, text=True,
        )
    except FileNotFoundError:
        pytest.skip("console script not on PATH")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["magnitude_match"] is True and obj["sign_match"] is True
