"""Exact verification and search for qubit codes under exchange errors.

The package revolves around four layers:

- ``qstate`` / ``errorops``: sparse exact (surd-valued) or dense float
  state vectors, and error operators in one canonical form
  ``i**p * X(x) * Z(z) * P(perm)`` that covers Pauli strings, qubit
  exchanges, permutations and their products, compared by value.
- ``_gram``: the Gram engines (orbit, sparse exact, dense float) and the
  comparison that every correctability check reads, ``Code.check``
  included.
- ``codes`` / ``klverify`` / ``stabcheck``: code constructors and the
  file format, the Knill-Laflamme verdict with D-matrix analysis and
  recovery construction, and exhaustive additivity scans.
- ``codesearch``: closed-form orbit combinatorics and the coefficient
  feasibility solver for permutation-invariant patterns.
"""

from .qstate import (
    Amplitude,
    BasisState,
    InnerProductValue,
    QubitPermutation,
    StateVector,
    inner_product,
    orbit_sum,
    parse_ket,
)
from .errorops import (
    Composition,
    ErrorOperator,
    ErrorSet,
    ExchangeOp,
    IdentityOp,
    PauliString,
    PermutationOp,
    apply,
    basic_error_set,
    parse_error_ops,
)
from .codes import (
    BUILTIN_CODES,
    Code,
    PermInvariantSpec,
    builtin_code,
    five_qubit_code,
    parse_code,
    perm_invariant_code,
    repetition3,
    ruskai9_code,
    serialize_code,
    shor_code,
)
from .klverify import (
    DMatrix,
    GramTensor,
    KLReport,
    RecoveryOperation,
    Violation,
    build_recovery,
    d_blocks,
    dimension_bound,
    gram_tensor,
    shor_exchange_demo,
    verify_kl,
    verify_kl_extended,
)
from .stabcheck import (
    AdditivityReport,
    StabilizerFinding,
    eigenvector_witness,
    span_check,
    stabilizer_scan,
)
from .codesearch import (
    SolverResult,
    SupportPattern,
    bitflip_cross_count,
    phase_offdiag_term,
    realize_code,
    solve_coefficients,
    survey_7bit,
    survey_patterns,
    zk_diag,
)
from .errors import (
    CapabilityError,
    CodeParseError,
    DimensionMismatch,
    ExactArithmeticError,
    InvalidCodeError,
    ScanTooLarge,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "BasisState",
    "InnerProductValue",
    "QubitPermutation",
    "StateVector",
    "inner_product",
    "orbit_sum",
    "parse_ket",
    "Composition",
    "ErrorOperator",
    "ErrorSet",
    "ExchangeOp",
    "IdentityOp",
    "PauliString",
    "PermutationOp",
    "apply",
    "basic_error_set",
    "parse_error_ops",
    "BUILTIN_CODES",
    "Code",
    "PermInvariantSpec",
    "builtin_code",
    "five_qubit_code",
    "parse_code",
    "perm_invariant_code",
    "repetition3",
    "ruskai9_code",
    "serialize_code",
    "shor_code",
    "DMatrix",
    "GramTensor",
    "KLReport",
    "RecoveryOperation",
    "Violation",
    "build_recovery",
    "d_blocks",
    "dimension_bound",
    "gram_tensor",
    "shor_exchange_demo",
    "verify_kl",
    "verify_kl_extended",
    "AdditivityReport",
    "StabilizerFinding",
    "eigenvector_witness",
    "span_check",
    "stabilizer_scan",
    "SolverResult",
    "SupportPattern",
    "bitflip_cross_count",
    "phase_offdiag_term",
    "realize_code",
    "solve_coefficients",
    "survey_7bit",
    "survey_patterns",
    "zk_diag",
    "CapabilityError",
    "CodeParseError",
    "DimensionMismatch",
    "ExactArithmeticError",
    "InvalidCodeError",
    "ScanTooLarge",
    "__version__",
]
