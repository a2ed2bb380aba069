"""Tests for the weighted-partition table.

The table gets a genuinely independent oracle: direct enumeration over
(s_1 < ... < s_a, m_1, ..., m_a) with sum m_i s_i = n, summing the
products of multiplicities.
"""

from fractions import Fraction as F

import pytest

from qprime.exactnum import sigma_array
from qprime.forms import QuasiForm
from qprime.macmahon import (
    MacMahonTable,
    macmahon_table,
    prime_identity,
    relation_value,
)


def _brute_force_m(a, n):
    # sum of prod(m_i) over all ways to write n with a distinct part sizes
    def count(remaining, smallest, parts_left):
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        total = 0
        s = smallest
        # smallest possible completion: s < s+1 < ... each used once
        while s * parts_left + parts_left * (parts_left - 1) // 2 <= remaining:
            for mult in range(1, remaining // s + 1):
                total += mult * count(remaining - mult * s, s + 1, parts_left - 1)
            s += 1
        return total

    return count(n, 1, a)


def test_small_values():
    table = macmahon_table(2, 10)
    assert table.m(1, 5) == 6
    assert table.m(2, 5) == 9
    assert table.m(2, 2) == 0
    assert table.m(2, 3) == 1
    assert table.m(2, 4) == 3


def test_against_brute_force():
    table = macmahon_table(4, 35)
    for a in range(1, 5):
        for n in range(1, 36):
            assert table.m(a, n) == _brute_force_m(a, n), (a, n)


def test_m1_is_divisor_sum():
    n = 10**4
    table = macmahon_table(1, n)
    sig = sigma_array(1, n)
    assert [table.m(1, i) for i in range(1, n + 1)] == sig[1:]


def test_structural_zeros_and_nonnegativity():
    table = macmahon_table(5, 40)
    for a in range(1, 6):
        least = a * (a + 1) // 2
        for n in range(1, 41):
            if n < least:
                assert table.m(a, n) == 0, (a, n)
            assert table.m(a, n) >= 0


def test_table_bounds_checked():
    table = macmahon_table(2, 10)
    with pytest.raises(ValueError):
        table.m(3, 5)
    with pytest.raises(ValueError):
        table.m(1, 11)
    with pytest.raises(ValueError):
        table.m(1, 0)
    with pytest.raises(ValueError):
        macmahon_table(0, 10)
    with pytest.raises(ValueError):
        macmahon_table(1, 0)


def test_prime_identity_examples():
    table = macmahon_table(2, 10)
    assert prime_identity(5, table) == (True, True)  # 72 = 72
    assert prime_identity(4, table) == (False, False)  # 42 vs 24
    assert prime_identity(2, table) == (True, True)  # 0 = 0
    assert prime_identity(1, table) == (True, False)  # degenerate pass


def test_prime_identity_matches_primality():
    table = macmahon_table(2, 300)
    for n in range(2, 301):
        holds, prime = prime_identity(n, table)
        assert holds == prime, n


def test_prime_identity_requires_m2():
    table = macmahon_table(1, 10)
    with pytest.raises(ValueError):
        prime_identity(5, table)


def test_relation_value_generic():
    table = macmahon_table(3, 20)
    # the shipped relation, spelled out by hand
    for n in range(1, 21):
        direct = (n * n - 3 * n + 2) * table.m(1, n) - 8 * table.m(2, n)
        assert relation_value(([2, -3, 1], [-8]), n, table) == direct
    assert relation_value((), 7, table) == 0
    assert relation_value(([0],), 7, table) == 0
    with pytest.raises(ValueError):
        relation_value(([1], [1], [1], [1]), 5, table)


def test_csv_export():
    table = macmahon_table(2, 6)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "n,M_1,M_2,identity_holds"
    assert lines[5] == "5,6,9,1"
    assert lines[4] == "4,7,3,0"
    assert len(lines) == 7

    solo = macmahon_table(1, 3).to_csv().strip().splitlines()
    assert solo[0] == "n,M_1"
    assert solo[1] == "1,1"


# U_a = sum_n M_a(n) q^n as quasimodular forms of mixed weight <= 2a
# (Andrews-Rose), {(k, l): coefficient of D^l G_k} in the paper's
# convention, (0, 0) the constant
MACMAHON_FORMS = {
    1: {(2, 0): 1, (0, 0): F(-1, 24)},
    2: {(2, 0): F(1, 8), (2, 1): F(-1, 4), (4, 0): F(1, 8), (0, 0): F(-3, 640)},
    3: {(2, 0): F(37, 1920), (2, 1): F(-5, 96), (2, 2): F(1, 48), (4, 0): F(5, 192),
        (4, 1): F(-1, 64), (6, 0): F(1, 640), (0, 0): F(-5, 7168)},
    4: {(2, 0): F(3229, 967680), (2, 1): F(-47, 4608), (2, 2): F(7, 1152),
        (2, 3): F(-1, 1152), (4, 0): F(47, 9216), (4, 1): F(-7, 1536), (4, 2): F(1, 1280),
        (6, 0): F(7, 15360), (6, 1): F(-1, 7680), (8, 0): F(1, 193536),
        (0, 0): F(-35, 294912)},
}


def test_table_rows_are_quasimodular_forms():
    # an oracle through the sigma tables, sharing nothing with the DP
    n = 600
    table = macmahon_table(4, n)
    for a, eis in MACMAHON_FORMS.items():
        series = QuasiForm(eis=eis).expand(n)
        assert series[0] == 0, a
        assert series.coeffs == list(table.values[a - 1]), a
