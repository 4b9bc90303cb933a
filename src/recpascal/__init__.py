"""Exact arithmetic for the reciprocal Pascal matrix.

Generators for the symmetric Pascal, reciprocal Pascal, and super Catalan
arrays; two checked factorizations of the super Catalan array; an
all-integer inverse of the reciprocal Pascal matrix built from triangular
and diagonal factors and verified by checking R . R^-1 = I exactly in
integers; exact determinant comparisons; and b-file tooling for the related
catalogued integer sequences.
"""
from .combinatorics import ExactnessError, exact_div
from .matrices import (
    d_matrix,
    from_rows,
    g_matrix,
    identity,
    l_inverse_matrix,
    l_matrix,
    matmul,
    pascal_matrix,
    reciprocal_pascal,
    super_catalan_matrix,
)
from .linalg import (
    invert_rational,
    leading_minors,
)
from .identities import (
    CheckReport,
    check_det,
    check_grg,
    check_integrality,
    check_l_inverse_column,
    check_ldl,
    check_von_szily_upto,
    det_comparison,
    det_r_inverse_formula,
    r_inverse_00,
    r_inverse_via_factorization,
)
from .sequences import (
    GENERATED_IDS,
    SequenceRecord,
    antidiagonal_sequence,
    crosscheck,
    det_inverse_sequence,
    emit_bfile_blocks,
    generated_sequence,
    parse_bfile,
    sign_pattern,
    super_catalan_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ExactnessError",
    "GENERATED_IDS",
    "SequenceRecord",
    "antidiagonal_sequence",
    "check_det",
    "check_grg",
    "check_integrality",
    "check_l_inverse_column",
    "check_ldl",
    "check_von_szily_upto",
    "crosscheck",
    "d_matrix",
    "det_comparison",
    "det_inverse_sequence",
    "det_r_inverse_formula",
    "emit_bfile_blocks",
    "exact_div",
    "from_rows",
    "g_matrix",
    "generated_sequence",
    "identity",
    "invert_rational",
    "l_inverse_matrix",
    "l_matrix",
    "leading_minors",
    "matmul",
    "parse_bfile",
    "pascal_matrix",
    "r_inverse_00",
    "r_inverse_via_factorization",
    "reciprocal_pascal",
    "sign_pattern",
    "super_catalan_candidates",
    "super_catalan_matrix",
]
