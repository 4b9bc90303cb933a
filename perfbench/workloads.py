"""The three workloads: fixed CLI invocations, each with its output gate.

inverse  -- the production route with the oracles idle: about 80% of its
            time is r_inverse_via_factorization and its Fraction matmul;
            Gauss-Jordan and Bareiss are never called.
verify   -- the oracles: Gauss-Jordan, Bareiss, the Fraction R.R^-1 product
            and the von Szily binomial loops dominate; the factorization
            route is a minor share.
sequence -- the sequences layer in both directions (b-file emit and parse)
            plus det_inverse_sequence's O(N^4) redo.  Its two large-value
            probes pass the 4300-digit int<->str limit; they are run and
            gated every pass but timed apart from the pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gates as g

#: Reference b-files, written at set-up from closed forms:
#: id -> (offset, terms).  A060739 holds magnitudes only.
REFERENCES = {
    "A060739": lambda: (1, [abs(t) for t in g.det_sequence_terms(24)]),
    "A007318": lambda: (0, g.pascal_triangle_terms(400)),
    "A000984": lambda: (0, g.central_binomial_terms(8000)),
}

REF_DIR = "perfbench/.work/ref"


def reference_path(oeis_id: str) -> str:
    """Where the reference for oeis_id lives, relative to the checkout root."""
    return f"{REF_DIR}/b{oeis_id[1:]}.txt"


@dataclass(frozen=True)
class Op:
    """One CLI invocation; kind names the per-command metric it feeds."""

    kind: str
    argv: tuple
    gate: Callable[[str], None]
    probe: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def reference(self) -> str | None:
        if "--bfile" in self.argv:
            return self.argv[self.argv.index("--id") + 1]
        return None


def _crosscheck(oeis_id: str, n: int) -> tuple:
    return ("oeis", "--id", oeis_id, "--n", str(n), "--bfile", reference_path(oeis_id))


WORKLOADS = {
    "inverse": (
        Op("invert", ("invert", "--n", "96", "--format", "csv"), g.r_inverse_csv(96)),
        Op("invert", ("invert", "--n", "64"), g.r_inverse_pretty(64)),
        Op("gen", ("gen", "--matrix", "Rinv", "--n", "48", "--format", "json"),
           g.r_inverse_json(48)),
        Op("gen", ("gen", "--matrix", "Linv", "--n", "96", "--format", "bfile"),
           g.l_inverse_bfile(96)),
        Op("gen", ("gen", "--matrix", "supercatalan", "--n", "96", "--format", "csv"),
           g.super_catalan_csv(96)),
        Op("oeis", ("oeis", "--id", "A110162", "--n", "96"), g.l_inverse_bfile(96)),
    ),
    "verify": (
        Op("check", ("check", "--checks", "all", "--n", "32"),
           g.check_reports(g.CHECK_ORDER, 32)),
        Op("check", ("check", "--checks", "integrality", "--n", "48"),
           g.check_reports(("integrality",), 48)),
        Op("det", ("det", "--n", "48"), g.det_pretty(48)),
        Op("bench", ("bench", "--n", "48"), g.bench_report(48)),
    ),
    "sequence": (
        Op("oeis", ("oeis", "--id", "A060739", "--n", "24"),
           g.sequence_bfile(1, g.det_sequence_terms, 24)),
        Op("crosscheck", _crosscheck("A060739", 24),
           g.crosscheck_report("A060739", 24, g.det_sign_pattern(24))),
        Op("oeis", ("oeis", "--id", "A007318", "--n", "400"),
           g.sequence_bfile(0, g.pascal_triangle_terms, 400)),
        Op("crosscheck", _crosscheck("A007318", 400), g.crosscheck_report("A007318", 80200)),
        Op("oeis", ("oeis", "--id", "A068555", "--n", "96"), g.super_catalan_candidates(96)),
        Op("bigterm", ("oeis", "--id", "A000984", "--n", "8000"),
           g.sequence_bfile(0, g.central_binomial_terms, 8000), probe=True),
        Op("bigterm", _crosscheck("A000984", 8000), g.crosscheck_report("A000984", 8000),
           probe=True),
    ),
}


def write_references(root: Path, workload: str) -> None:
    """Write every reference b-file the workload's ops read, under root."""
    for oeis_id in sorted({op.reference for op in WORKLOADS[workload] if op.reference}):
        path = root / reference_path(oeis_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        offset, terms = REFERENCES[oeis_id]()
        with g.unlimited_int_digits():
            path.write_text(g.bfile_text(offset, terms))


if __name__ == "__main__":
    # Run as its own process by run.py, so the harness's peak RSS -- which
    # every child it spawns inherits as its starting ru_maxrss -- stays small.
    import sys

    write_references(Path(__file__).resolve().parent.parent, sys.argv[1])
