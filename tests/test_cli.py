"""End-to-end CLI tests, through a real subprocess unless noted."""
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from recpascal import GENERATED_IDS, cli

from oracles import A000984_BFILE, unlimited_int_digits


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "recpascal", *args],
        capture_output=True, text=True, **kwargs,
    )


def test_cli_import_leaves_numpy_unloaded():
    # the package runs on the standard library alone
    code = "import sys, recpascal.cli; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every command is its own process and pays for what the import loads;
    # -S keeps the host's site hooks from loading either module first
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; before = set(sys.modules); import recpascal.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


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


def test_gen_triangle_bfile():
    res = run_cli("gen", "--matrix", "L", "--n", "3", "--format", "bfile")
    assert res.stdout == "0 1\n1 2\n2 1\n3 6\n4 4\n5 1\n"


def test_gen_diagonal_matrices_render_dense():
    res = run_cli("gen", "--matrix", "D", "--n", "3", "--format", "csv")
    assert res.stdout == "1,0,0\n0,-2,0\n0,0,2\n"


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
    # the terms and the cross-check the reference's text and two term tuples
    ref = tmp_path / "b007318.txt"
    emit = ["oeis", "--id", "A007318", "--n", "400"]
    assert _traced_peak_mb([*emit, "--output", str(ref)]) < 10
    assert _traced_peak_mb([*emit, "--bfile", str(ref)]) < 14
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_contract_in_process(tmp_path, data):
    # 0 ok, 1 a check failed, 2 usage or input error; any other exception
    # escaping main is the in-process form of a traceback
    command = data.draw(st.sampled_from(("gen", "invert", "det", "check", "oeis", "bench")))
    argv = [command, "--n", str(data.draw(st.integers(1, 4))),
            "--format", data.draw(st.sampled_from(cli._FORMATS))]
    if command == "gen":
        argv += ["--matrix", data.draw(st.sampled_from(tuple(cli._GENERATORS)))]
    elif command == "check":
        argv += ["--checks", data.draw(st.sampled_from(tuple(cli._CHECKS) + ("all",)))]
    elif command == "oeis":
        argv += ["--id", data.draw(st.sampled_from(GENERATED_IDS + ("A068555",)))]
        kind = data.draw(st.sampled_from(("missing", "directory", "garbage")))
        if kind == "missing":
            bfile = tmp_path / "missing.txt"
        elif kind == "directory":
            bfile = tmp_path
        else:
            bfile = tmp_path / "garbage.txt"
            bfile.write_bytes(data.draw(st.binary(max_size=64)))
        argv += ["--bfile", str(bfile)] + ["--signed"] * data.draw(st.booleans())
    out, err = io.StringIO(), io.StringIO()
    # main lifts the int <-> str digit limit; the context restores it
    with unlimited_int_digits(), redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


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
