"""Command-line interface.

Subcommands: gen (print a matrix), invert (integer inverse via the
factorization), det (closed-form determinant next to the oracle), check
(identity checks as a JSON report array), oeis (emit or cross-check
sequence b-files), bench (race the two inversion routes).  Each takes --n
and --output, and only the flags it reads besides: gen and invert render
--format pretty, csv, json or bfile, det pretty or json, and check, bench
and oeis print JSON or a b-file and take no --format; oeis --signed applies
only with --id A060739 --bfile.  Any other flag is a usage error, and so
are --n above sys.maxsize, oeis --id A068555 with --n 1, and gen --matrix
reciprocal --format bfile, whose entries are not integers.

gen --format bfile takes the oeis generators where the matrix's reading is
a catalogued sequence.  Every command computes its result before writing
any of it, so a failing input leaves an --output file untouched.  Matrix
text, like b-file text, is rendered as it is written: a row at a time.
oeis --bfile parses its reference from the open file a slice at a time,
so a malformed line may be reported before an undecodable byte further on.
oeis --id A068555 prints its three candidate readings as three b-files,
each under a "# candidate reading:" comment and each restarting at index 0,
so that output is no reference for --bfile: reading it back is an input
error, index 0 does not follow.

Exit codes: 0 success / all checks passed, 1 a check failed, or outside
check an exactness claim failed: a checked division, a row sum of R^-1
or a nonzero leading minor of R (one "recpascal:" line, no traceback), 2
usage or input error: an unreadable, malformed or non-overlapping reference
b-file, output that cannot be written, or a size too large to hold in
memory.  gen output
is deterministic byte for byte.
"""
from __future__ import annotations

import argparse
import io
import sys
import time
from itertools import chain

from .combinatorics import ExactnessError
from .identities import _CHECKS, det_comparison, r_inverse_via_factorization
from .linalg import invert_rational
from .matrices import (
    Diagonal,
    d_matrix,
    g_matrix,
    l_inverse_matrix,
    l_matrix,
    pascal_matrix,
    reciprocal_pascal,
    super_catalan_matrix,
)
from .sequences import (
    GENERATED_IDS,
    SequenceRecord,
    antidiagonal_sequence,
    crosscheck,
    emit_bfile_blocks,
    generated_sequence,
    parse_bfile,
    sign_pattern,
    super_catalan_candidates,
)

_GENERATORS = {
    "pascal": pascal_matrix,
    "reciprocal": reciprocal_pascal,
    "supercatalan": super_catalan_matrix,
    "L": l_matrix,
    "Linv": l_inverse_matrix,
    "G": g_matrix,
    "D": d_matrix,
    "Rinv": r_inverse_via_factorization,
}

_FORMATS = ("pretty", "csv", "json", "bfile")

#: Matrices whose --format bfile reading is a catalogued sequence, which is
#: generated without building the matrix: Pascal's complete antidiagonals,
#: the triangle rows of L and L^-1, and G's diagonal.
_CATALOGUED_READINGS = {"pascal": "A007318", "L": "A094527", "Linv": "A110162",
                        "G": "A000984"}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be at most {sys.maxsize}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recpascal",
        description="Exact matrices, factorization checks, and sequence tools "
        "for the reciprocal Pascal matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=_positive_int, default=8, help="matrix size (default 8)")
        p.add_argument("--output", dest="output_path",
                       help="write to this file instead of stdout")

    p = sub.add_parser("gen", help="print one of the named matrices")
    p.add_argument("--matrix", choices=tuple(_GENERATORS), default="reciprocal")
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default="pretty")
    add_common(p)
    # main reports gen's and oeis's cross-flag errors under their own usage line
    p.set_defaults(subparser=p)

    p = sub.add_parser("invert", help="integer inverse via the factorization")
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default="pretty")
    add_common(p)

    p = sub.add_parser("det", help="closed-form determinant next to the exact oracle")
    p.add_argument("--format", dest="fmt", choices=("pretty", "json"), default="pretty")
    add_common(p)

    p = sub.add_parser("check", help="run identity checks, print a JSON report array")
    p.add_argument("--checks", nargs="+", choices=tuple(_CHECKS) + ("all",),
                   default=["all"])
    add_common(p)

    p = sub.add_parser("oeis", help="emit our terms as a b-file, or cross-check one")
    p.add_argument("--id", dest="oeis_id", required=True,
                   choices=GENERATED_IDS + ("A068555",))
    p.add_argument("--bfile", dest="bfile_path", help="reference b-file to cross-check against")
    p.add_argument("--signed", action="store_true",
                   help="compare signs too, for --id A060739 --bfile only")
    add_common(p)
    p.set_defaults(subparser=p)

    p = sub.add_parser("bench", help="race the factorization inverse against Gauss-Jordan")
    add_common(p)

    return parser


def _render_pretty(dense):
    cells = [[str(x) for x in row] for row in dense]
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return ("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in cells)


def _render_csv(dense):
    return (",".join(map(str, row)) + "\n" for row in dense)


def _render_json(dense):
    # json.dumps's bytes: each entry is an optional '-' and digits, unescaped
    yield f'{{"rows": {len(dense)}, "cols": {len(dense[0])}, "entries": ['
    sep = ""
    for row in dense:
        yield sep + ", ".join(f'["{x.numerator}", "{x.denominator}"]' for x in row)
        sep = ", "
    yield "]}\n"


def _json_text(obj, **kw) -> str:
    """obj as JSON text ending in a newline.  json is imported here, not at
    the top: every command is its own process, and gen, invert and a
    plain oeis emit never load it."""
    import json

    return json.dumps(obj, **kw) + "\n"


def _matrix_reading(kind: str, n: int) -> SequenceRecord:
    """Sequence reading used for --format bfile: the catalogued sequence
    where there is one, else D's diagonal or the complete antidiagonals."""
    if kind in _CATALOGUED_READINGS:
        return generated_sequence(_CATALOGUED_READINGS[kind], n)
    mat = _GENERATORS[kind](n)
    if isinstance(mat, Diagonal):
        return SequenceRecord(0, mat.diag)
    return SequenceRecord(0, antidiagonal_sequence(mat))


def _render_matrix(kind: str, n: int, fmt: str):
    """The named matrix in one format, as pieces of text to write: a block
    of b-file lines or a matrix row each.  The matrix is computed before
    this returns; its text is rendered as it is written."""
    if fmt == "bfile":
        return emit_bfile_blocks(_matrix_reading(kind, n))
    mat = _GENERATORS[kind](n)
    dense = mat.to_dense() if isinstance(mat, Diagonal) else mat
    return {"pretty": _render_pretty, "csv": _render_csv, "json": _render_json}[fmt](dense)


def _det_output(args: argparse.Namespace) -> tuple[list, int]:
    cmp = det_comparison(args.n)
    code = 0 if cmp["magnitude_match"] else 1
    if args.fmt == "json":
        obj = {
            "formula": str(cmp["formula"]),
            "oracle": str(cmp["oracle"]),
            "magnitude_match": cmp["magnitude_match"],
            "sign_match": cmp["sign_match"],
        }
        return [_json_text(obj)], code
    lines = [
        f"n = {args.n}",
        f"closed form: {cmp['formula']}",
        f"oracle:      {cmp['oracle']}",
        f"magnitude match: {cmp['magnitude_match']}",
        f"sign match:      {cmp['sign_match']}",
    ]
    return [line + "\n" for line in lines], code


def _oeis_output(args: argparse.Namespace) -> tuple:
    """(pieces of text to write, exit code); every record is generated and
    every check run before this returns, only the b-file text is lazy."""
    oeis_id = args.oeis_id
    if args.bfile_path is None:
        if oeis_id == "A068555":
            candidates = super_catalan_candidates(args.n).items()
            return chain.from_iterable(
                chain((f"# candidate reading: {label}\n",), emit_bfile_blocks(rec))
                for label, rec in candidates
            ), 0
        return emit_bfile_blocks(generated_sequence(oeis_id, args.n)), 0

    try:
        with open(args.bfile_path) as bfile:
            reference = parse_bfile(bfile)
    except (OSError, ValueError) as exc:
        print(f"recpascal: cannot read b-file: {exc}", file=sys.stderr)
        raise SystemExit(2) from None

    if oeis_id == "A068555":
        # Nothing asserted: describe how each candidate reading fares.
        results = {}
        for label, rec in super_catalan_candidates(args.n).items():
            try:
                results[label] = crosscheck(oeis_id, reference, rec).to_json()
            except ValueError:
                results[label] = {"note": "no overlapping indices"}
        obj = {"id": oeis_id, "asserted": False, "candidates": results}
        return [_json_text(obj, indent=2)], 0

    generated = generated_sequence(oeis_id, args.n)
    signs = oeis_id == "A060739"
    try:
        report = crosscheck(oeis_id, reference, generated,
                            magnitude_only=signs and not args.signed)
    except ValueError as exc:
        print(f"recpascal: cannot cross-check: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if signs:
        obj = {
            "id": oeis_id,
            "signed": args.signed,
            "report": report.to_json(),
            "reference_signs": sign_pattern(reference.terms),
            "generated_signs": sign_pattern(generated.terms),
        }
    else:
        obj = {"id": oeis_id, "report": report.to_json()}
    return [_json_text(obj, indent=2)], 0 if report.passed else 1


def _max_numerator_bits(m) -> int:
    """Largest numerator bit length among the entries of m."""
    return max(x.numerator.bit_length() for row in m for x in row)


def bench(n: int) -> dict:
    """Time both inversion routes and record peak numerator bit growth.

    Each route's bits are read off the inverse it returns, and the seconds
    time each route alone.
    Equality of the two results is asserted (the CLI exits 1 if it ever
    fails); timings and bit growth are measured, not asserted.
    """
    r = reciprocal_pascal(n)
    t0 = time.perf_counter()
    fact = r_inverse_via_factorization(n)
    t_fact = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = invert_rational(r)
    t_oracle = time.perf_counter() - t0
    return {
        "n": n,
        "equal": fact == oracle,
        "factorization": {
            "seconds": round(t_fact, 6),
            "max_numerator_bits": _max_numerator_bits(fact),
        },
        "gauss_jordan": {
            "seconds": round(t_oracle, 6),
            "max_numerator_bits": _max_numerator_bits(oracle),
        },
    }


def _write_stdout(pieces) -> None:
    """Write every piece to stdout and flush it; a closed stdout (None)
    raises OSError like a failed write.  When stdout is unbuffered (python
    -u, PYTHONUNBUFFERED), its binary layer is a raw file: one write may
    take only part of a piece, as when a pipe's reader closes it, and the
    text layer drops the count.  There each piece's bytes are written until
    all are taken, so a closed pipe raises OSError on the next write."""
    out = sys.stdout
    if out is None:
        raise OSError("stdout is closed")
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.writelines(pieces)
        out.flush()
        return
    out.flush()
    for piece in pieces:
        data = memoryview(piece.encode(out.encoding, out.errors))
        while data:
            data = data[raw.write(data):]


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code.

    The result is computed before anything is written; its text is then
    written piece by piece, a matrix a row at a time, a b-file a block of
    lines at a time and any other output as one string.  A failed write
    raises OSError, which main turns into exit 2.
    """
    if args.command == "gen":
        pieces, code = _render_matrix(args.matrix, args.n, args.fmt), 0
    elif args.command == "invert":
        pieces, code = _render_matrix("Rinv", args.n, args.fmt), 0
    elif args.command == "det":
        pieces, code = _det_output(args)
    elif args.command == "check":
        reports = [check(args.n) for name, check in _CHECKS.items()
                   if "all" in args.checks or name in args.checks]
        pieces = [_json_text([rep.to_json() for rep in reports], indent=2)]
        code = 0 if all(rep.passed for rep in reports) else 1
    elif args.command == "oeis":
        pieces, code = _oeis_output(args)
    elif args.command == "bench":
        result = bench(args.n)
        pieces = [_json_text(result, indent=2)]
        code = 0 if result["equal"] else 1

    if args.output_path is not None:
        # open's defaults, locale encoding and strict errors; "out/" stays a directory
        with open(args.output_path, "w") as out:
            out.writelines(pieces)
    else:
        _write_stdout(pieces)
    return code


def main(argv=None) -> None:
    # Exact results routinely pass the interpreter's 4300-digit int <-> str
    # limit (det(R^-1) near n = 87, C(2m, m) near m = 7150); lift it for the
    # command-line process.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    if args.command == "gen" and args.matrix == "reciprocal" and args.fmt == "bfile":
        args.subparser.error("gen --matrix reciprocal has no --format bfile: "
                             "its entries are not integers")
    if args.command == "oeis":
        if args.signed and (args.oeis_id != "A060739" or args.bfile_path is None):
            args.subparser.error("--signed applies only to oeis --id A060739 --bfile FILE")
        if args.oeis_id == "A068555" and args.n < 2:
            args.subparser.error("oeis --id A068555 needs --n 2 or more")
    # b-file read errors are reported where the file is read, so an OSError
    # reaching here is a failed write: a full device, a closed pipe, --output.
    # An --n up to sys.maxsize may still be too large to hold: an input error.
    try:
        code = run(args)
    except OSError as exc:
        print(f"recpascal: cannot write output: {exc}", file=sys.stderr)
        code = 2
    except ExactnessError as exc:
        print(f"recpascal: an exactness claim failed: {exc}", file=sys.stderr)
        code = 1
    except MemoryError:
        print(f"recpascal: out of memory (--n {args.n})", file=sys.stderr)
        code = 2
    sys.exit(code)
