"""Tests for the Eisenstein/cuspidal split."""

import random
from fractions import Fraction

import pytest

from qprime.decompose import DecompositionResult, split_eis_cusp
from qprime.forms import QuasiForm, delta, eisenstein_g, hk_quasiform


def _random_form(rng):
    eis = {}
    for _ in range(rng.randint(0, 4)):
        k = rng.choice([2, 4, 6, 8, 10, 12])
        eis[(k, rng.randint(0, 3))] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    cusp = {}
    for _ in range(rng.randint(0, 3)):
        m = rng.choice([12, 16, 18, 24])
        i = rng.randint(0, 1) if m == 24 else 0
        cusp[(m, i, rng.randint(0, 2))] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return QuasiForm(eis=eis, cusp=cusp)


def test_split_pure_eisenstein():
    f = QuasiForm(eis={(12, 0): 1})
    result = split_eis_cusp(f)
    assert result.eis_part == f
    assert result.cusp_part.is_zero()
    assert result.certificate_precision == 60
    with pytest.raises(ValueError, match="certificate precision"):
        split_eis_cusp(f, certificate_precision=-1)


def test_split_pure_cusp():
    f = QuasiForm(cusp={(12, 0, 0): 1})
    result = split_eis_cusp(f)
    assert result.eis_part.is_zero()
    assert result.cusp_part == f
    assert result.cusp_part.expand(20).coeffs == delta(20).coeffs


def test_split_monomial_input_with_genuine_cusp_component():
    result = split_eis_cusp({(0, 3, 0): 1})
    assert not result.eis_part.is_zero()
    assert result.cusp_part.eis == {}
    assert result.cusp_part.cusp == {(12, 0, 0): Fraction(1, 22112)}
    n = result.certificate_precision
    from qprime.forms import expand_monomials

    lhs = result.eis_part.expand(n) + result.cusp_part.expand(n)
    assert lhs.coeffs == expand_monomials({(0, 3, 0): 1}, n).coeffs


def test_split_idempotent():
    rng = random.Random(3)
    for _ in range(5):
        f = _random_form(rng)
        result = split_eis_cusp(f, certificate_precision=25)
        again_e = split_eis_cusp(result.eis_part, certificate_precision=25)
        again_s = split_eis_cusp(result.cusp_part, certificate_precision=25)
        assert again_e.eis_part == result.eis_part
        assert again_e.cusp_part.is_zero()
        assert again_s.eis_part.is_zero()
        assert again_s.cusp_part == result.cusp_part


def test_split_linear():
    rng = random.Random(17)
    for _ in range(5):
        f, g = _random_form(rng), _random_form(rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combo = split_eis_cusp(a * f + b * g, certificate_precision=25)
        sf = split_eis_cusp(f, certificate_precision=25)
        sg = split_eis_cusp(g, certificate_precision=25)
        assert combo.eis_part == a * sf.eis_part + b * sg.eis_part
        assert combo.cusp_part == a * sf.cusp_part + b * sg.cusp_part


def test_split_reconstruction_hk():
    for k in (6, 8, 12):
        f = hk_quasiform(k)
        result = split_eis_cusp(f)
        assert result.cusp_part.is_zero()
        lhs = result.eis_part.expand(60) + result.cusp_part.expand(60)
        assert lhs.coeffs == f.expand(60).coeffs
    rng = random.Random(5)
    for _ in range(5):
        f = _random_form(rng)
        result = split_eis_cusp(f)
        lhs = result.eis_part.expand(60) + result.cusp_part.expand(60)
        assert lhs.coeffs == f.expand(60).coeffs


def test_result_json_round_trip():
    result = split_eis_cusp(
        QuasiForm(eis={(4, 0): Fraction(1, 3)}, cusp={(12, 0, 1): -2})
    )
    data = result.to_dict()
    assert set(data) == {"eis_part", "cusp_part", "certificate_precision"}
    back = DecompositionResult.from_dict(data)
    assert back == result


_GOOD = {
    "eis_part": {"eis": [[4, 0, "1/3"]], "cusp": []},
    "cusp_part": {"eis": [], "cusp": [[12, 0, 1, "-2"]]},
    "certificate_precision": 60,
}


@pytest.mark.parametrize(
    "data",
    [
        [],
        "{}",
        {k: v for k, v in _GOOD.items() if k != "cusp_part"},
        {k: v for k, v in _GOOD.items() if k != "certificate_precision"},
        {**_GOOD, "extra": 1},
        {**_GOOD, "certificate_precision": 2.9},
        {**_GOOD, "certificate_precision": 60.0},
        {**_GOOD, "certificate_precision": True},
        {**_GOOD, "certificate_precision": -5},
        {**_GOOD, "certificate_precision": "60"},
        {**_GOOD, "eis_part": []},
        {**_GOOD, "eis_part": {"eis": [], "cusp": [[12, 0, 0, 1]]}},
        {**_GOOD, "cusp_part": {"eis": [[4, 0, 1]], "cusp": []}},
    ],
)
def test_result_from_dict_rejects_malformed(data):
    with pytest.raises(ValueError):
        DecompositionResult.from_dict(data)


def test_result_from_dict_reads_the_good_layout():
    result = DecompositionResult.from_dict(_GOOD)
    assert result.to_dict() == _GOOD
