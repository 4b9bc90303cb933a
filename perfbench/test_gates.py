"""Each output gate accepts the program's real output and rejects a corrupted
copy; the tracer passes calls through unchanged.

    python3 -m pytest perfbench
"""
import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import recpascal.cli  # noqa: E402
import recpascal.matrices  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402


def cli_output(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_info:
        recpascal.cli.main(list(argv))
    assert exit_info.value.code == 0
    return buf.getvalue()


def test_r_inverse_gate_rejects_one_flipped_entry():
    text = cli_output("invert", "--n", "8", "--format", "csv")
    gates.r_inverse_csv(8)(text)
    rows = [line.split(",") for line in text.splitlines()]
    rows[5][3] = str(int(rows[5][3]) + 1)
    with pytest.raises(gates.Mismatch):
        gates.r_inverse_csv(8)("".join(",".join(r) + "\n" for r in rows))


def test_r_inverse_json_gate_rejects_a_non_integer_entry():
    text = cli_output("gen", "--matrix", "Rinv", "--n", "5", "--format", "json")
    gates.r_inverse_json(5)(text)
    with pytest.raises(gates.Mismatch):
        gates.r_inverse_json(5)(text.replace('"1"]', '"2"]', 1))


def test_bfile_gate_rejects_one_wrong_term():
    text = cli_output("oeis", "--id", "A007318", "--n", "12")
    gate = gates.sequence_bfile(0, gates.pascal_triangle_terms, 12)
    gate(text)
    lines = text.splitlines()
    idx, value = lines[40].split()
    lines[40] = f"{idx} {int(value) + 1}"
    with pytest.raises(gates.Mismatch):
        gate("\n".join(lines) + "\n")


def test_l_inverse_gate_rejects_one_wrong_term():
    text = cli_output("oeis", "--id", "A110162", "--n", "10")
    gates.l_inverse_bfile(10)(text)
    lines = text.splitlines()
    idx, value = lines[-3].split()
    lines[-3] = f"{idx} {-int(value)}"
    with pytest.raises(gates.Mismatch):
        gates.l_inverse_bfile(10)("\n".join(lines) + "\n")


@pytest.mark.parametrize("n", [3, 5])
def test_det_gate_rejects_the_closed_form_sign_rule_for_the_oracle(n):
    text = cli_output("det", "--n", str(n))
    gates.det_pretty(n)(text)
    # An oracle that followed (-1)^(n(n+1)/2) would agree in sign with the
    # closed form at every n.
    wrong = gates.formula_sign(n) * gates.det_magnitude(n)
    lines = [f"oracle: {wrong}" if line.startswith("oracle:") else line
             for line in text.splitlines()]
    lines = ["sign match: True" if line.startswith("sign match:") else line for line in lines]
    with pytest.raises(gates.Mismatch):
        gates.det_pretty(n)("\n".join(lines) + "\n")


def test_references_follow_the_closed_forms():
    assert gates.central_binomial_terms(40) == [math.comb(2 * m, m) for m in range(40)]
    assert gates.det_sequence_terms(4) == [1, -2, -36, 7200]
    assert gates.pascal_triangle_terms(3) == [1, 1, 1, 1, 2, 1]


def test_check_and_crosscheck_gates_reject_failures():
    text = cli_output("check", "--checks", "grg", "ldl", "--n", "4")
    gates.check_reports(("grg", "ldl"), 4)(text)
    with pytest.raises(gates.Mismatch):
        gates.check_reports(("grg", "ldl"), 4)(text.replace("true", "false", 1))
    with pytest.raises(gates.Mismatch):
        gates.check_reports(("grg", "ldl", "det"), 4)(text)


def test_tracer_passes_calls_through_and_restores_bindings():
    original = recpascal.matrices.matmul
    tracer = tracing.Tracer()
    with tracer.install():
        assert recpascal.matrices.matmul is not original
        rinv = recpascal.cli._GENERATORS["Rinv"](4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            recpascal.matrices.matmul(rinv, recpascal.matrices.identity(3))
    assert recpascal.matrices.matmul is original
    assert recpascal.cli._GENERATORS["Rinv"] is recpascal.identities.r_inverse_via_factorization
    spans, counts = tracer.take()
    metrics = tracing.layer_metrics(spans, counts)
    assert metrics["identities.r_inverse_via_factorization.calls"] == 1
    assert metrics["matrices.matmul.calls"] == 5
    assert counts["combinatorics.exact_div"] > 0
    total = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(total)
    assert recpascal.identities.r_inverse_via_factorization(4).tolist() == rinv.tolist()
