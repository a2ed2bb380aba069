"""Oracle tests for the exact arithmetic helpers.

Each nontrivial value is checked against an independent computation:
Bernoulli numbers against their defining recurrence, sigma_array against
the factorization oracle (itself checked against brute divisor
enumeration), the prime sieve against trial division.
"""

from fractions import Fraction
from math import comb

import pytest

from oracles import factorize, sigma
from qprime.exactnum import (
    apply_factor,
    bernoulli,
    factor_exact,
    integer_numerators,
    is_exact,
    is_prime,
    prime_mask,
    primes_up_to,
    sigma_array,
    solve_exact,
    solves,
)


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_defining_recurrence():
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, with B_1 = -1/2
    def b(j):
        if j == 1:
            return Fraction(-1, 2)
        if j % 2 == 1:
            return Fraction(0)
        return bernoulli(j)

    for m in range(1, 41):
        total = sum(comb(m + 1, j) * b(j) for j in range(m + 1))
        assert total == 0, f"recurrence fails at m={m}"


def test_bernoulli_rejects_odd():
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_factorize():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    for n in range(1, 500):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_sigma_small_values():
    assert sigma(1, 6) == 12
    assert sigma(3, 6) == 252
    assert sigma(0, 12) == 6
    assert sigma(11, 1) == 1


def test_sigma_against_divisor_enumeration():
    for r in range(12):
        for n in range(1, 300):
            expected = sum(d**r for d in range(1, n + 1) if n % d == 0)
            assert sigma(r, n) == expected, (r, n)


def test_sigma_array_matches_sigma():
    for r in (0, 1, 3, 5, 11):
        arr = sigma_array(r, 1000)
        assert len(arr) == 1001
        for n in (1, 2, 6, 97, 360, 1000):
            assert arr[n] == sigma(r, n)


@pytest.mark.parametrize("r", [0, 1, 3, 5, 11, 27])
def test_sigma_array_matches_sigma_everywhere(r):
    # the table splits its divisor pairs at isqrt(n_max), so every n_max
    # through 40 and the squares of 44 and 45 with their neighbours move
    # that split across small and large divisors
    full = [0] + [sigma(r, n) for n in range(1, 2001)]
    assert sigma_array(r, 2000) == full
    for n_max in [*range(41), 1935, 1936, 1937, 2024, 2025]:
        expected = full[: n_max + 1] if n_max <= 2000 else [0] + [
            sigma(r, n) for n in range(1, n_max + 1)
        ]
        assert sigma_array(r, n_max) == expected, n_max
    assert sigma_array(r, 0) == [0]
    assert sigma_array(r, 1) == [0, 1]


def test_sigma_array_spot_check_large():
    arr = sigma_array(1, 10**4)
    n = 9973  # prime
    assert arr[n] == n + 1
    assert arr[9996] == sum(d for d in range(1, 9997) if 9996 % d == 0)


def test_primes_against_trial_division():
    def is_prime(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    plist = primes_up_to(10**4)
    expected = [n for n in range(2, 10**4 + 1) if is_prime(n)]
    assert list(plist) == expected


# the bound below which is_prime is proven exact (Sorenson-Webster)
_MR_BOUND = 3317044064679887385961981


def test_is_prime_agrees_with_the_sieve():
    n_max = 2 * 10**5
    mask = prime_mask(n_max)
    assert not any(is_prime(n) for n in range(-3, 0))
    assert all(is_prime(n) == bool(mask[n]) for n in range(n_max + 1))


# composites that pass Miller-Rabin for every prime base up to 31, and up
# to 37: only the later bases catch them
_STRONG_PSEUDOPRIMES = (3825123056546413051, 318665857834031151167461)


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(7)
    cases = [rng.randrange(10 ** rng.randrange(4, 25)) for _ in range(3000)]
    cases += [n + d for n in _STRONG_PSEUDOPRIMES + (10**18, _MR_BOUND - 100) for d in range(100)]
    cases += [561, 1105, 1729, 3215031751, 41 * 41, 43 * 43, 41 * 43]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_never_trusts_a_strong_pseudoprime():
    for n in _STRONG_PSEUDOPRIMES:
        assert not is_prime(n)


def test_is_prime_refuses_past_its_proven_range():
    assert is_prime(10**18 + 3)
    assert not is_prime(_MR_BOUND - 1)  # even
    # the bound is itself a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError, match="Miller-Rabin"):
        is_prime(_MR_BOUND)
    with pytest.raises(ValueError, match="Miller-Rabin"):
        is_prime(2**89 - 1)  # a Mersenne prime


def test_is_exact():
    for x in (0, -3, 10**50, Fraction(1, 3), Fraction(4, 2)):
        assert is_exact(x)
    for x in (True, False, 0.5, 2.0, None, "1", 1j):
        assert not is_exact(x)


def test_primes_up_to_counts():
    assert len(primes_up_to(100)) == 25
    assert len(primes_up_to(1000)) == 168
    assert len(primes_up_to(10**4)) == 1229
    assert list(primes_up_to(1)) == []
    assert list(primes_up_to(2)) == [2]


def test_prime_list_membership():
    plist = primes_up_to(1000)
    assert 997 in plist
    assert 999 not in plist
    assert 1 not in plist
    assert type(plist) is tuple


def test_prime_mask_agrees_with_list():
    mask = prime_mask(500)
    plist = primes_up_to(500)
    for n in range(501):
        assert bool(mask[n]) == (n in plist)


def test_solve_exact_round_trip():
    import random

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n + 2)]
            try:
                rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
                assert solve_exact(rows, rhs) == x
                break
            except ValueError:
                continue  # the random matrix was rank-deficient; redraw


def test_solve_exact_inconsistent():
    # x = 1 and x = 2 simultaneously
    assert solve_exact([[1], [1]], [1, 2]) is None
    # x/2 + y = 1, x/3 = 1/3 and x + y/5 = 2 have no common solution
    rows = [[Fraction(1, 2), 1], [Fraction(1, 3), 0], [1, Fraction(1, 5)]]
    assert solve_exact(rows, [1, Fraction(1, 3), 2]) is None
    assert solve_exact(rows, [Fraction(3, 2), Fraction(1, 3), Fraction(6, 5)]) == [1, 1]


def test_solves_rejects_a_perturbed_right_hand_side():
    rows = [[1, 2], [3, 4], [5, 6]]
    x = apply_factor(factor_exact(rows), [5, 11, 17])
    assert x == [1, 2]
    assert solves(rows, x, [5, 11, 17])
    assert not solves(rows, x, [5, 11, 18])
    assert not solves(rows, apply_factor(factor_exact(rows), [5, 11, 18]), [5, 11, 18])


def test_wrong_number_of_right_hand_sides_raises():
    rows = [[1, 2], [3, 4], [5, 6]]
    factor = factor_exact(rows)
    for rhs in ([5, 11], [5, 11, 17, 23]):
        with pytest.raises(ValueError, match="apply_factor"):
            apply_factor(factor, rhs)
        with pytest.raises(ValueError, match="solves"):
            solves(rows, [1, 2], rhs)


def test_solve_exact_underdetermined_raises():
    with pytest.raises(ValueError):
        solve_exact([[1, 1]], [2])
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [2, 4], [3, 6]], [1, 2, 3])


def test_solve_exact_overdetermined_consistent():
    rows = [[1, 0], [0, 1], [1, 1], [2, 3]]
    rhs = [Fraction(1, 2), 3, Fraction(7, 2), 10]
    assert solve_exact(rows, rhs) == [Fraction(1, 2), Fraction(3)]


def test_integer_numerators():
    assert integer_numerators([1, -2, 0]) == ([1, -2, 0], 1)
    assert integer_numerators([Fraction(1, 6), 2, Fraction(-3, 4)]) == ([2, 24, -9], 12)
    assert integer_numerators([]) == ([], 1)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None, 1j])
def test_integer_numerators_rejects_other_types(bad):
    # int and Fraction are the only coefficient types; the check lives here
    # and every product, sum and solve goes through it
    with pytest.raises(TypeError):
        integer_numerators([1, Fraction(1, 2), bad])
    with pytest.raises(TypeError):
        solve_exact([[1, 0], [0, bad]], [1, 2])
    with pytest.raises(TypeError):
        solve_exact([[1, 0], [0, 1]], [bad, 2])
