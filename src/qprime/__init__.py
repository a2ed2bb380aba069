"""Exact arithmetic for level-one quasimodular forms and prime-detecting
coefficient combinations."""

from .decompose import DecompositionResult, split_eis_cusp
from .formspec import FormSpecError, parse_form_spec
from .forms import (
    QuasiForm,
    cusp_basis,
    cusp_dim,
    delta,
    eisenstein_g,
    from_monomials,
    hk,
    hk_quasiform,
    quasiform_expand,
)
from .macmahon import MacMahonTable, macmahon_table, prime_identity, relation_value
from .primedetect import (
    FiniteCheckResult,
    OmegaReport,
    OmegaTildeResult,
    PrimePolynomial,
    finite_check,
    omega_scan,
    omega_tilde_decide,
    prime_polynomial,
)
from .qseries import QExpansion
from .signstats import (
    DeligneReport,
    ExponentProfile,
    SignStatsReport,
    count_sign_changes,
    deligne_check,
    exponent_profile,
    partial_sum_report,
    prime_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionResult",
    "DeligneReport",
    "ExponentProfile",
    "FiniteCheckResult",
    "FormSpecError",
    "MacMahonTable",
    "OmegaReport",
    "OmegaTildeResult",
    "PrimePolynomial",
    "QExpansion",
    "QuasiForm",
    "SignStatsReport",
    "count_sign_changes",
    "cusp_basis",
    "cusp_dim",
    "deligne_check",
    "delta",
    "eisenstein_g",
    "exponent_profile",
    "finite_check",
    "from_monomials",
    "hk",
    "hk_quasiform",
    "macmahon_table",
    "omega_scan",
    "omega_tilde_decide",
    "parse_form_spec",
    "partial_sum_report",
    "prime_coefficients",
    "prime_identity",
    "prime_polynomial",
    "quasiform_expand",
    "relation_value",
    "split_eis_cusp",
    "__version__",
]
