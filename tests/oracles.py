"""Independent slow paths that the tests compare the library against.

None of this is used by qprime itself: divisor sums from a prime
factorization (smallest-prime-factor sieve) check sigma_array, and the
coefficients of prod (1 - q^n)^24 from a sparse linear recurrence check
the squaring path behind delta.
"""

from math import isqrt

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
