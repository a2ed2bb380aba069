"""Exact arithmetic for level-one quasimodular forms and prime-detecting
coefficient combinations.

The public names are loaded on first use (PEP 562), so that a process
pays only for the modules it runs: ``from qprime import QuasiForm``
imports forms and what forms needs, nothing else.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule defining it
_EXPORTS = {
    "DecompositionResult": "decompose",
    "split_eis_cusp": "decompose",
    "FormSpecError": "formspec",
    "parse_form_spec": "formspec",
    "QuasiForm": "forms",
    "cusp_basis": "forms",
    "cusp_dim": "forms",
    "delta": "forms",
    "eisenstein_g": "forms",
    "from_monomials": "forms",
    "hk": "forms",
    "hk_quasiform": "forms",
    "MacMahonTable": "macmahon",
    "macmahon_table": "macmahon",
    "prime_identity": "macmahon",
    "relation_value": "macmahon",
    "FiniteCheckResult": "primedetect",
    "OmegaReport": "primedetect",
    "OmegaTildeResult": "primedetect",
    "PrimePolynomial": "primedetect",
    "finite_check": "primedetect",
    "omega_scan": "primedetect",
    "omega_tilde_decide": "primedetect",
    "prime_polynomial": "primedetect",
    "QExpansion": "qseries",
    "DeligneReport": "signstats",
    "ExponentProfile": "signstats",
    "SignStatsReport": "signstats",
    "count_sign_changes": "signstats",
    "deligne_check": "signstats",
    "exponent_profile": "signstats",
    "partial_sum_report": "signstats",
    "prime_coefficients": "signstats",
}

_SUBMODULES = frozenset(
    ("cli", "decompose", "exactnum", "formspec", "forms", "macmahon",
     "primedetect", "qseries", "signstats")
)

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
