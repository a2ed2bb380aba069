"""The report records: immutable named tuples with the JSON they always had.

Every expected dictionary below was printed by the records' earlier
implementation (frozen dataclasses) for the same inputs.
"""

from fractions import Fraction

import pytest

from qprime.decompose import DecompositionResult, split_eis_cusp
from qprime.forms import QuasiForm, hk_quasiform
from qprime.macmahon import MacMahonTable, macmahon_table
from qprime.primedetect import (
    FiniteCheckResult,
    OmegaReport,
    OmegaTildeResult,
    PrimePolynomial,
    finite_check,
    omega_scan,
    omega_tilde_decide,
    prime_polynomial,
)
from qprime.signstats import (
    DeligneReport,
    ExponentProfile,
    SignStatsReport,
    deligne_check,
    deligne_scan,
    exponent_profile,
    partial_sum_report,
)

MIXED = QuasiForm(eis={(4, 0): 1}, cusp={(12, 0, 0): 2})


def _records():
    return {
        "exponent_profile": exponent_profile(
            QuasiForm(cusp={(12, 0, 1): 2, (24, 1, 0): Fraction(-1, 3)})
        ),
        "partial_sum_report": partial_sum_report(QuasiForm(cusp={(12, 0, 0): 1}), 12, [5, 12]),
        "deligne_scan": deligne_scan([0, 1, 100, 100, 0, 5000], 12, 5),
        "deligne_check": deligne_check(12, 5),
        "prime_polynomial": prime_polynomial(QuasiForm(eis={(4, 1): Fraction(1, 2), (2, 0): -1})),
        "finite_check": finite_check(QuasiForm(eis={(4, 0): 1}), [2, 3]),
        "finite_check_short": finite_check(hk_quasiform(8), [2]),
        "omega_scan": omega_scan(QuasiForm(eis={(4, 0): 1}), 6, max_violations=2),
        "omega_tilde_decide": omega_tilde_decide(MIXED),
        "split_eis_cusp": split_eis_cusp(MIXED, 5),
    }


EXPECTED = {
    "exponent_profile": {
        "terms": [
            {"weight": 12, "index": 0, "derivative": 1, "coefficient": "2",
             "alpha": "15/2", "beta": "14"},
            {"weight": 24, "index": 1, "derivative": 0, "coefficient": "-1/3",
             "alpha": "25/2", "beta": "24"},
        ],
        "alpha0": "25/2",
        "beta0": "24",
        "m_set": [1],
        "eigenbasis": False,
    },
    "partial_sum_report": {
        "x_max": 12,
        "sign_changes": 3,
        "partial_sum": [[5, "5058"], [12, "522926"]],
        "partial_sum_sq": [[5, "23392980"], [12, "286113745060"]],
        "normalized_sq": [[5, 0.15421255228134467], [12, 0.07973956235928326]],
    },
    "deligne_scan": {"weight": 12, "x_max": 5, "passed": False, "worst_prime": 2,
                     "worst_ratio": 1.1048543456039805, "failures": [[2, "100"]]},
    "deligne_check": {"weight": 12, "x_max": 5, "passed": True, "worst_prime": 5,
                      "worst_ratio": 0.3456066666023675, "failures": []},
    "prime_polynomial": {"degree_bound": 4, "betas": ["-1", "-1/2", "0", "0", "1/2"]},
    "finite_check": {"verdict": "NotAllPrimes", "degree_bound": 3,
                     "witness": {"p": 2, "value": "9"}},
    "finite_check_short": {"verdict": "InsufficientPrimes", "degree_bound": 5, "needed": 6},
    "omega_scan": {
        "range_checked": 6,
        "include_small": False,
        "nonneg_ok": True,
        "zero_set_equals_primes": False,
        "violations": [[2, "9", "nonzero at prime"], [3, "28", "nonzero at prime"]],
        "total_violations": 3,
    },
    "omega_tilde_decide": {"verdict": "Not",
                           "witness": {"type": "cusp", "key": [12, 0, 0], "value": "2"}},
    "split_eis_cusp": {
        "eis_part": {"eis": [[4, 0, "1"]], "cusp": []},
        "cusp_part": {"eis": [], "cusp": [[12, 0, 0, "2"]]},
        "certificate_precision": 5,
    },
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_to_dict_is_unchanged(name):
    assert _records()[name].to_dict() == EXPECTED[name]


def test_macmahon_table_is_unchanged():
    table = macmahon_table(2, 4)
    assert (table.a_max, table.n_max) == (2, 4)
    assert table.values == ((0, 1, 3, 4, 7), (0, 0, 0, 1, 3))
    assert table.m(2, 4) == 3
    assert table.to_csv() == "n,M_1,M_2,identity_holds\r\n1,1,0,1\r\n2,3,0,1\r\n3,4,1,1\r\n4,7,3,0\r\n"


def test_records_are_immutable():
    records = list(_records().values()) + [macmahon_table(2, 4)]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.unknown_field = 1


def test_defaults_hold():
    assert DeligneReport(12, 5, True, 5, 0.5).failures == ()
    check = FiniteCheckResult("VanishesAtAllPrimes", 0)
    assert (check.needed, check.witness) == (None, None)
    scan = OmegaReport(10, True, True)
    assert (scan.violations, scan.total_violations, scan.include_small) == ((), 0, False)
    assert scan.passed
    assert not OmegaReport(10, True, False).passed
    assert OmegaTildeResult("InOmegaTilde").witness is None


def test_fields_by_keyword_and_from_dict():
    profile = ExponentProfile(terms=(), alpha0=Fraction(1), beta0=Fraction(1), m_set=(),
                              eigenbasis=True)
    assert profile.alpha0 == 1
    report = SignStatsReport(x_max=2, sign_changes=0, partial_sum=(), partial_sum_sq=(),
                             normalized_sq=())
    assert report.to_dict()["x_max"] == 2
    poly = PrimePolynomial(betas=(1, 0, -1), degree_bound=2)
    assert poly.evaluate(3) == -8 and not poly.is_zero()
    assert MacMahonTable(a_max=1, n_max=1, values=((0, 1),)).m(1, 1) == 1
    split = split_eis_cusp(MIXED, 5)
    assert DecompositionResult.from_dict(split.to_dict()) == split
