"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s pytest shows them for failing tests.  Every comparison
is exact equality; there are no tolerances anywhere.
"""
import io
import json
import random
import subprocess
import sys

from recpascal import (
    check_grg,
    check_l_inverse_column,
    check_ldl,
    check_von_szily_upto,
    crosscheck,
    det_comparison,
    emit_bfile_blocks,
    from_rows,
    generated_sequence,
    invert_rational,
    leading_minors,
    parse_bfile,
    r_inverse_00,
    r_inverse_via_factorization,
    reciprocal_pascal,
    SequenceRecord,
)

from oracles import A000984_BFILE, det_cofactor, is_right_inverse

_RINV_CACHE = {}


def rinv(n):
    if n not in _RINV_CACHE:
        _RINV_CACHE[n] = r_inverse_via_factorization(n)
    return _RINV_CACHE[n]


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_factorization_inverse_all_sizes_to_48():
    ok = True
    detail = ""
    for n in range(1, 49):
        inv = rinv(n)
        r = reciprocal_pascal(n)
        if not all(isinstance(x, int) for row in inv for x in row):
            ok, detail = False, f"non-integer entry at n={n}"
            break
        if inv != invert_rational(r):
            ok, detail = False, f"oracle disagreement at n={n}"
            break
        if not is_right_inverse(r, inv):
            ok, detail = False, f"R * Rinv != I at n={n}"
            break
    report("criterion 1: integer inverse equals oracle and R*Rinv=I for n=1..48",
           ok, detail)


def test_criterion_2_both_factorizations_to_48():
    failures = [
        (name, n)
        for n in range(1, 49)
        for name, check in (("grg", check_grg), ("ldl", check_ldl))
        if not check(n).passed
    ]
    report("criterion 2: grg and ldl factorization checks pass for n=1..48",
           not failures, str(failures[:3]) if failures else "")


def test_criterion_3_von_szily_all_pairs_to_40():
    rep = check_von_szily_upto(41)
    report("criterion 3: von Szily sums match for 0<=m,n<=40",
           rep.passed, str(rep.counterexample) if not rep.passed else "")


def test_criterion_4_determinant_magnitudes_and_sign_ledger():
    ok = True
    detail = ""
    sign_mismatches = []
    for n in range(1, 17):
        cmp = det_comparison(n)
        if not cmp["magnitude_match"]:
            ok, detail = False, f"magnitude mismatch at n={n}"
            break
        if not cmp["sign_match"]:
            sign_mismatches.append(n)
        print(f"    n={n:2d}  formula={cmp['formula']}  oracle={cmp['oracle']}  "
              f"sign_match={cmp['sign_match']}")
    if ok and not {1, 3}.issubset(sign_mismatches):
        ok, detail = False, f"expected sign flags at n=1 and n=3, got {sign_mismatches}"
    if ok and sign_mismatches != [n for n in range(1, 17) if n % 2 == 1]:
        ok, detail = False, f"unexpected sign pattern: {sign_mismatches}"
    report("criterion 4: determinant magnitudes match for n=1..16; "
           "closed-form sign disagrees exactly at odd n (flagged, not fixed)",
           ok, detail or f"sign mismatches at n={sign_mismatches}")


def test_criterion_5_l_inverse_column_to_64():
    failures = [n for n in range(1, 65) if not check_l_inverse_column(n).passed]
    report("criterion 5: L-inverse column 0 parity and diagonal identity for n=1..64",
           not failures, str(failures[:3]) if failures else "")


def test_criterion_6_top_left_entry_to_48():
    ok = True
    detail = ""
    for n in range(1, 49):
        closed = r_inverse_00(n)
        expected = -1 if (n - 1) % 2 else 1
        if closed != expected or rinv(n)[0][0] != closed:
            ok, detail = False, f"disagreement at n={n}"
            break
    report("criterion 6: closed expression for entry (0,0) equals the matrix "
           "entry and alternates as (-1)^(n-1) for n=1..48", ok, detail)


def test_criterion_7_bareiss_equals_cofactor_to_12():
    ok = True
    detail = ""
    r = reciprocal_pascal(12)
    for n, minor in enumerate(leading_minors(r), start=1):
        if minor != det_cofactor(from_rows(row[:n] for row in r[:n])):
            ok, detail = False, f"disagreement at n={n}"
            break
    report("criterion 7: primitive-row leading minors of R_12 equal the cofactor "
           "determinants of R_n for n=1..12", ok, detail)


def test_criterion_8_bfile_round_trip_and_vendored_reference():
    rng = random.Random(984)
    ok = True
    detail = ""
    for i in range(100):
        rec = SequenceRecord(
            rng.randint(-10, 90),
            tuple(rng.randint(-10**30, 10**30)
                  for _ in range(rng.randint(1, 40))),
        )
        if parse_bfile(io.StringIO("".join(emit_bfile_blocks(rec)))) != rec:
            ok, detail = False, f"round-trip failure on record {i}"
            break
    if ok:
        with open(A000984_BFILE) as bfile:
            reference = parse_bfile(bfile)
        rep = crosscheck("A000984", reference, generated_sequence("A000984", 21))
        if not (rep.passed and rep.n >= 21):
            ok, detail = False, "vendored A000984 crosscheck failed"
    report("criterion 8: b-file round-trip on 100 random records and vendored "
           "A000984 reference match on indices 0..20", ok, detail)


def test_criterion_9_cli_exit_codes_and_stability(tmp_path):
    def cli(*args):
        return subprocess.run([sys.executable, "-m", "recpascal", *args],
                              capture_output=True, text=True)

    ok = True
    detail = ""

    res = cli("gen", "--matrix", "reciprocal", "--n", "2", "--format", "csv")
    if res.returncode != 0 or res.stdout != "1,1\n1,1/2\n":
        ok, detail = False, f"gen: rc={res.returncode} out={res.stdout!r}"

    if ok:
        second = cli("gen", "--matrix", "reciprocal", "--n", "2", "--format", "csv")
        if second.stdout != res.stdout:
            ok, detail = False, "gen output not byte-stable"

    if ok:
        res = cli("check", "--checks", "all", "--n", "8")
        if res.returncode != 0 or not all(r["passed"] for r in json.loads(res.stdout)):
            ok, detail = False, f"check: rc={res.returncode}"

    if ok:
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 2\n2 7\n")
        res = cli("oeis", "--id", "A000984", "--n", "5", "--bfile", str(bad))
        if res.returncode != 1:
            ok, detail = False, f"failing crosscheck: rc={res.returncode}, want 1"

    if ok:
        res = cli("invert", "--n", "0")
        if res.returncode != 2:
            ok, detail = False, f"usage error: rc={res.returncode}, want 2"

    report("criterion 9: CLI exit codes 0/1/2 and byte-stable gen output", ok, detail)
