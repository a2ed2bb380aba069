from fractions import Fraction

import pytest

from qprime.formspec import FormSpecError, parse_form_spec
from qprime.forms import QuasiForm, hk_quasiform


def test_single_eisenstein():
    assert parse_form_spec("G4").eis == {(4, 0): 1}
    assert parse_form_spec("G2").eis == {(2, 0): 1}


def test_derivative_prefix():
    assert parse_form_spec("D^2 G2").eis == {(2, 2): 1}
    assert parse_form_spec("D G6").eis == {(6, 1): 1}
    # bare D means one derivative
    assert parse_form_spec("DG2").eis == {(2, 1): 1}


def test_rational_coefficients():
    form = parse_form_spec("3/2 D^2 G4")
    assert form.eis == {(4, 2): Fraction(3, 2)}
    form = parse_form_spec("2 * G4")
    assert form.eis == {(4, 0): 2}


def test_sums_and_signs():
    form = parse_form_spec("G4 - 1/2 G6 + 3 D G2")
    assert form.eis == {(4, 0): 1, (6, 0): Fraction(-1, 2), (2, 1): 3}
    form = parse_form_spec("-G2 + 1/24")
    assert form.eis == {(2, 0): -1, (0, 0): Fraction(1, 24)}


def test_cusp_atoms():
    assert parse_form_spec("DELTA").cusp == {(12, 0, 0): 1}
    assert parse_form_spec("S24.1").cusp == {(24, 1, 0): 1}
    assert parse_form_spec("D^3 S16.0").cusp == {(16, 0, 3): 1}


def test_h_atom_matches_builder():
    for k in (6, 8, 10, 14):
        assert parse_form_spec(f"H{k}") == hk_quasiform(k)


def test_like_terms_merge():
    form = parse_form_spec("DELTA - S12.0")
    assert form.is_zero()
    form = parse_form_spec("G4 - G4")
    assert form.is_zero()


def test_whitespace_insensitive():
    a = parse_form_spec("3/2D^2G4-S12.0")
    b = parse_form_spec("  3/2  D^2  G4  -  S12.0  ")
    assert a == b


def test_constant_only():
    form = parse_form_spec("5")
    assert form == QuasiForm.constant(5)
    form = parse_form_spec("-1/240")
    assert form == QuasiForm.constant(Fraction(-1, 240))


@pytest.mark.parametrize(
    "text",
    ["", "   ", "G3", "G0", "H4", "H7", "S10.0", "S12.5", "S13.0",
     "G4 +", "+ + G4", "Q7", "1/0 G4", "D^2", "G4 G6", "G4 & G6"],
)
def test_rejects_bad_input(text):
    with pytest.raises(FormSpecError):
        parse_form_spec(text)


@pytest.mark.parametrize(
    "text, position, message",
    [("G602", 0, "G602: weight exceeds the maximum 600"),
     ("H602", 0, "H602: weight exceeds the maximum 600"),
     ("S602.0", 0, "S602.0: weight exceeds the maximum 600"),
     ("G4 + D^301 G4", 5, "D^301: derivative order exceeds the maximum 300"),
     # H_k carries D^2 itself
     ("D^299 H8", 0, "derivative order 301 exceeds the maximum 300"),
     # numerals past the interpreter's int/str digit limit
     ("G" + "9" * 5000, 0, "weight exceeds the maximum 600"),
     ("S24." + "9" * 5000, 0, "basis index out of range (dimension 2)")],
    ids=["G602", "H602", "S602.0", "D^301", "D^299 H8", "long weight", "long index"],
)
def test_weight_and_order_bounds(text, position, message):
    with pytest.raises(FormSpecError) as info:
        parse_form_spec(text)
    assert message in str(info.value)
    assert info.value.position == position


def test_largest_weight_and_order_accepted():
    assert parse_form_spec("G600") == QuasiForm(eis={(600, 0): 1})
    assert parse_form_spec("S600.0") == QuasiForm(cusp={(600, 0, 0): 1})
    assert parse_form_spec("D^300 G4") == QuasiForm(eis={(4, 300): 1})
    assert parse_form_spec("D^298 H8") == parse_form_spec("H8").derivative(298)
    assert parse_form_spec("H600") == hk_quasiform(600)
    assert parse_form_spec("G0004") == QuasiForm(eis={(4, 0): 1})


def test_error_carries_position():
    with pytest.raises(FormSpecError) as info:
        parse_form_spec("G4 & G6")
    assert info.value.position == 3
    assert "position 3" in str(info.value)


def test_expansion_of_parsed_combo():
    # (D^2 G2)(q) has coefficient n^2 sigma_1(n)
    series = parse_form_spec("D^2 G2").expand(3)
    assert series.coeffs == [0, 1, 12, 36]
