"""Sequence side of the package: b-files out, b-files in, exact crosschecks.

Five catalogued sequences have asserted generators here (central binomials,
Pascal's triangle by antidiagonals, the binomial triangle L, its inverse
triangle, and the determinant-by-size sequence).  A068555 is related to the
super Catalan array but its exact reading is not pinned down, so the package
emits candidate readings without asserting any of them.
"""
import io
from pathlib import Path

from recpascal import (
    GENERATED_IDS,
    crosscheck,
    emit_bfile_blocks,
    generated_sequence,
    parse_bfile,
    sign_pattern,
    super_catalan_candidates,
)

print("Generated openers for the five asserted sequences:")
for oeis_id in GENERATED_IDS:
    rec = generated_sequence(oeis_id, 6)
    opener = ", ".join(str(t) for t in rec.terms[:8])
    print(f"    {oeis_id} (offset {rec.offset}): {opener}, ...")

print("\nA b-file is just 'index value' lines.  Emit and re-parse one:")
rec = generated_sequence("A110162", 3)
text = "".join(emit_bfile_blocks(rec))
print("    " + "    ".join(text.splitlines(True)), end="")
assert parse_bfile(io.StringIO(text)) == rec
print("    -> read back as a text stream, it parses to an identical record.")

print("\nCross-check against the vendored reference for the central binomials,")
print("parsed from the open file a slice at a time:")
bfile = Path(__file__).resolve().parent.parent / "tests" / "data" / "b000984.txt"
with open(bfile) as stream:
    reference = parse_bfile(stream)
report = crosscheck("A000984", reference, generated_sequence("A000984", 21))
print(f"    compared {report.n} overlapping terms: "
      f"{'match' if report.passed else report.counterexample}")
assert report.passed

print("\nDeterminant sequence signs (catalogued magnitudes are unsigned,")
print("so crosschecks default to magnitude comparison):")
rec = generated_sequence("A060739", 10)
print(f"    terms 1..10 signs: {sign_pattern(rec.terms)}")

print("\nCandidate readings for the unpinned super Catalan sequence:")
for label, cand in super_catalan_candidates(4).items():
    print(f"    {label}: {', '.join(str(t) for t in cand.terms[:8])}, ...")
print("None of these is asserted; they exist for side-by-side inspection.")
print("\nSequence demo passed.")
