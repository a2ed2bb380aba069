"""Independent slow paths that the tests compare the library against.

None of this is used by qprime itself: divisor sums from a prime
factorization (smallest-prime-factor sieve) check sigma_array, the
coefficients of prod (1 - q^n)^24 from a sparse linear recurrence check
the squaring path behind delta, and cusp bases from the monomials
E4^a E6^b reduced over Fraction check the integer echelon of Miller's
basis behind cusp_basis.  The term-by-term Eisenstein expansion and the
Fraction rewrite of paper monomials in classical G_k check the one-pass
sum behind QuasiForm.expand and the hoisted factors of _classicalize.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from qprime.exactnum import bernoulli
from qprime.forms import eisenstein_g
from qprime.qseries import QExpansion, linear_combination

# smallest-prime-factor sieve, grown on demand
_SPF: list[int] = [0, 1]


def _grow_spf(limit: int) -> None:
    global _SPF
    if len(_SPF) > limit:
        return
    size = max(limit + 1, 2 * len(_SPF), 1 << 10)
    spf = list(range(size))
    for p in range(2, isqrt(size - 1) + 1):
        if spf[p] == p:  # p prime
            for m in range(p * p, size, p):
                if spf[m] == m:
                    spf[m] = p
    _SPF = spf


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, exponent), ...], ascending."""
    if n < 1:
        raise ValueError(f"factorize: n must be >= 1, got {n}")
    _grow_spf(n)
    out = []
    while n > 1:
        p = _SPF[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def sigma(r: int, n: int) -> int:
    """Divisor-power sum sigma_r(n) = sum of d^r over divisors d of n.

    Multiplicative over prime powers: sigma_r(p^e) = 1 + p^r + ... + p^{er}.
    """
    if n < 1:
        raise ValueError(f"sigma: n must be >= 1, got {n}")
    if r < 0:
        raise ValueError(f"sigma: r must be >= 0, got {r}")
    total = 1
    for p, e in factorize(n):
        if r == 0:
            total *= e + 1
        else:
            pr = p**r
            total *= (pr ** (e + 1) - 1) // (pr - 1)
    return total


def eta24_by_recurrence(n_max: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n)^24 through q^n_max.

    With h = prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^{k(k+1)/2} (sparse)
    and g = h^8, comparing q^n in D(g) h = 8 D(h) g gives
        n g_n = sum_{j>=1} h_j (9j - n) g_{n-j}.
    """
    support = []
    j, k = 1, 1
    while j <= n_max:
        support.append((j, (-(2 * k + 1)) if k & 1 else (2 * k + 1)))
        k += 1
        j = k * (k + 1) // 2
    g = [1]
    for n in range(1, n_max + 1):
        s = 0
        for j, hj in support:
            if j > n:
                break
            s += hj * (9 * j - n) * g[n - j]
        g.append(s // n)
    return g


@lru_cache(maxsize=None)
def _e4_e6_power(k: int, e: int, precision: int) -> QExpansion:
    # E_k^e for k in (4, 6), E_4 = 1 + 240 sum sigma_3(n) q^n and
    # E_6 = 1 - 504 sum sigma_5(n) q^n, by successive products
    if e == 0:
        return QExpansion.one(precision)
    factor = 240 if k == 4 else -504
    e_k = QExpansion(
        [1] + [factor * sigma(k - 1, n) for n in range(1, precision + 1)], precision
    )
    return _e4_e6_power(k, e - 1, precision) * e_k


def cusp_basis_by_gauss_jordan(m: int, precision: int) -> list[list]:
    """Echelon basis of the weight-m cusp space, as coefficient lists.

    The rows are Delta E4^a E6^b over the monomials of weight m - 12,
    reduced by Gauss-Jordan elimination over Fraction on the columns
    q^1, q^2, ...; an entry whose denominator is 1 comes back as an int.
    """
    dlt = QExpansion([0] + eta24_by_recurrence(precision - 1), precision)
    rows = []
    r = m - 12
    for b in range(r // 6 + 1):
        if (r - 6 * b) % 4 == 0:
            a = (r - 6 * b) // 4
            form = dlt * _e4_e6_power(4, a, precision) * _e4_e6_power(6, b, precision)
            rows.append(form.coeffs[1:])
    d = len(rows)
    for i in range(d):
        piv = next(rr for rr in range(i, d) if rows[rr][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        pv = rows[i][i]
        if pv != 1:
            rows[i] = [_intify(Fraction(x, 1) / pv) for x in rows[i]]
        for rr in range(d):
            if rr != i and rows[rr][i] != 0:
                f = rows[rr][i]
                rows[rr] = [_intify(x - f * y) for x, y in zip(rows[rr], rows[i])]
    return [[0] + row for row in rows]


def _intify(x):
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


def eisenstein_part_termwise(eis: dict, precision: int, constant_sign: str = "paper"):
    """sum c D^l G_k over {(k, l): c}, one series per term; (0, 0) is a constant.

    Each term is eisenstein_g(k) differentiated l times, and the terms add
    up through linear_combination.
    """
    terms = []
    for (k, l), c in sorted(eis.items()):
        base = QExpansion.one(precision) if k == 0 else eisenstein_g(k, precision, constant_sign)
        terms.append((c, base.derivative(l)))
    return linear_combination(terms, precision)


def classicalize_by_fractions(monomials: dict) -> dict:
    """Paper monomials in classical G_k, every term in Fraction arithmetic.

    G_k(paper) = G_k(classical) + B_k/k, expanded binomially, with comb and
    the powers of the shift recomputed for every exponent triple.
    """
    shift = {k: bernoulli(k) / k for k in (2, 4, 6)}
    out: dict = defaultdict(lambda: Fraction(0))
    for (a, b, c), coeff in monomials.items():
        for aa in range(a + 1):
            for bb in range(b + 1):
                for cc in range(c + 1):
                    out[(aa, bb, cc)] += (
                        Fraction(coeff)
                        * comb(a, aa)
                        * comb(b, bb)
                        * comb(c, cc)
                        * shift[2] ** (a - aa)
                        * shift[4] ** (b - bb)
                        * shift[6] ** (c - cc)
                    )
    return {key: value for key, value in out.items() if value != 0}
