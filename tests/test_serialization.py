"""Property tests for the JSON boundary.

int and Fraction are the only coefficient types, and for both str(v)
equals str(Fraction(v)): every emitter prints str(v) and relies on that.
The readers accept the emitted layout bit for bit and raise ValueError,
never another exception, on anything else.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprime.forms import QuasiForm, cusp_dim
from qprime.primedetect import finite_check, omega_scan, omega_tilde_decide, prime_polynomial
from qprime.qseries import QExpansion
from qprime.signstats import exponent_profile, partial_sum_report

_coefficient = st.one_of(
    st.integers(-(10**40), 10**40),
    st.fractions(max_denominator=10**9),
)
_nonzero = _coefficient.filter(lambda v: v != 0)

_EIS_KEYS = [(0, 0)] + [(k, l) for k in range(2, 41, 2) for l in range(4)]
_CUSP_KEYS = [(m, i, l) for m in range(12, 41, 2) for i in range(cusp_dim(m)) for l in range(3)]

_eis = st.dictionaries(st.sampled_from(_EIS_KEYS), _nonzero, max_size=6)
_cusp = st.dictionaries(st.sampled_from(_CUSP_KEYS), _nonzero, max_size=4)
_forms = st.builds(lambda eis, cusp: QuasiForm(eis=eis, cusp=cusp), _eis, _cusp)
_series = st.lists(_coefficient, min_size=1, max_size=40).map(QExpansion)


def _as_emitted(value) -> str:
    return str(Fraction(value))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.fractions()))
def test_str_of_a_coefficient_is_str_of_its_fraction(value):
    assert str(value) == str(Fraction(value))


@settings(max_examples=150, deadline=None)
@given(_series)
def test_qexpansion_json_round_trip(series):
    text = series.to_json(indent=2)
    assert json.loads(text)["coeffs"] == [_as_emitted(c) for c in series.coeffs]
    back = QExpansion.from_json(text)
    assert back.precision == series.precision
    assert back.coeffs == series.coeffs
    # an int wherever the value is integral, so the text comes back bit for bit
    assert all(type(c) is int or c.denominator != 1 for c in back.coeffs)
    assert back.to_json(indent=2) == text


@settings(max_examples=150, deadline=None)
@given(_forms)
def test_quasiform_json_round_trip(form):
    data = form.to_dict()
    assert [e[-1] for e in data["eis"]] == [_as_emitted(v) for _, v in sorted(form.eis.items())]
    assert [e[-1] for e in data["cusp"]] == [_as_emitted(v) for _, v in sorted(form.cusp.items())]
    back = QuasiForm.from_json(form.to_json())
    assert back == form
    assert back.to_json() == form.to_json()


@settings(max_examples=60, deadline=None)
@given(_eis)
def test_prime_reports_emit_str_of_fraction(eis):
    form = QuasiForm(eis=eis)
    poly = prime_polynomial(form)
    assert poly.to_dict()["betas"] == [_as_emitted(b) for b in poly.betas]
    check = finite_check(form, [2, 3, 5])
    if check.witness is not None:
        assert check.to_dict()["witness"]["value"] == _as_emitted(check.witness[1])
    verdict = omega_tilde_decide(form)
    if verdict.witness is not None:
        assert verdict.to_dict()["witness"]["value"] == _as_emitted(verdict.witness[2])
    scan = omega_scan(form, 12, include_small=True)
    assert [v[1] for v in scan.to_dict()["violations"]] == [
        _as_emitted(v) for _, v, _ in scan.violations
    ]


@settings(max_examples=20, deadline=None)
@given(_cusp.filter(bool))
def test_sign_reports_emit_str_of_fraction(cusp):
    form = QuasiForm(cusp=cusp)
    terms = exponent_profile(form).to_dict()["terms"]
    assert [t["coefficient"] for t in terms] == [_as_emitted(v) for _, v in sorted(cusp.items())]
    report = partial_sum_report(form, 40, [10, 40])
    data = report.to_dict()
    assert [s for _, s in data["partial_sum"]] == [_as_emitted(s) for _, s in report.partial_sum]
    assert [s for _, s in data["partial_sum_sq"]] == [
        _as_emitted(s) for _, s in report.partial_sum_sq
    ]


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.sampled_from(["1", "-7/3", "1/0", "0.5", "1e999999999", "12"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(
        st.one_of(st.sampled_from(["precision", "coeffs", "eis", "cusp"]), st.text(max_size=5)),
        inner,
        max_size=4,
    ),
    max_leaves=30,
)
_small_ints = st.integers(-3, 40)
# inputs shaped like the real layouts, so that most of them reach the
# deeper checks rather than failing at the top level
_near_qexpansion = st.fixed_dictionaries(
    {"precision": st.one_of(st.integers(-2, 6), _json_scalars),
     "coeffs": st.lists(_json_scalars, max_size=7)}
)
_entry = st.lists(st.one_of(_small_ints, _json_scalars), min_size=2, max_size=5)
_near_quasiform = st.fixed_dictionaries(
    {}, optional={"eis": st.lists(_entry, max_size=4), "cusp": st.lists(_entry, max_size=4)}
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_json_values, _near_qexpansion, _near_quasiform))
def test_readers_raise_only_value_error(data):
    for reader in (QExpansion.from_dict, QuasiForm.from_dict):
        try:
            reader(data)
        except ValueError:
            pass


# the json parser itself runs out of stack at this depth
_DEEP = "[" * 1000 + "]" * 1000


@pytest.mark.parametrize("reader", [QExpansion.from_json, QuasiForm.from_json])
@pytest.mark.parametrize("text", [_DEEP, '{"eis": ' + _DEEP + "}"], ids=["top", "eis"])
def test_readers_refuse_deep_nesting_with_value_error(reader, text):
    with pytest.raises(ValueError, match="nested too deeply"):
        reader(text)
