"""Weighted-partition counting series and the prime-detecting relation.

M_a(n) counts partitions of n into exactly a distinct part sizes, each
occurrence weighted by the product of the multiplicities:

    U_a(q) = sum_{0<s_1<...<s_a} q^{s_1+...+s_a} / prod (1-q^{s_i})^2
           = sum_n M_a(n) q^n.

Since q^s/(1-q^s)^2 = sum_{m>=1} m q^{ms}, the table builds by a knapsack
over part sizes: processing sizes ascending and part counts descending
uses each size at most once.  The classical relation

    (n^2 - 3n + 2) M_1(n) = 8 M_2(n)

holds exactly when n is prime (degenerating to 0 = 0 at n in {1, 2}).
"""

from __future__ import annotations

from collections import namedtuple

from .exactnum import is_prime

__all__ = [
    "MacMahonTable",
    "macmahon_table",
    "prime_identity",
    "relation_value",
    "PRIME_RELATION",
]

# coefficient lists of the polynomials P_a(n), low power first, so that
# sum_a P_a(n) M_a(n) = (n^2 - 3n + 2) M_1(n) - 8 M_2(n)
PRIME_RELATION = ([2, -3, 1], [-8])


class MacMahonTable(namedtuple("MacMahonTable", "a_max n_max values")):
    """Exact values M_a(n) for 1 <= a <= a_max, 1 <= n <= n_max.

    values[a-1][n] = M_a(n); index 0 of each row is unused.
    """

    __slots__ = ()

    def m(self, a: int, n: int) -> int:
        if not 1 <= a <= self.a_max:
            raise ValueError(f"M_{a} not tabulated (a_max = {self.a_max})")
        if not 1 <= n <= self.n_max:
            raise ValueError(f"M_{a}({n}) not tabulated (n_max = {self.n_max})")
        return self.values[a - 1][n]

    def to_csv(self) -> str:
        """Rows n, columns M_1..M_{a_max}; identity column when M_2 exists."""
        # imported here, so that JSON output does not load them
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out)
        header = ["n"] + [f"M_{a}" for a in range(1, self.a_max + 1)]
        with_identity = self.a_max >= 2
        if with_identity:
            header.append("identity_holds")
        writer.writerow(header)
        for n in range(1, self.n_max + 1):
            row = [n] + [self.values[a - 1][n] for a in range(1, self.a_max + 1)]
            if with_identity:
                holds, _ = prime_identity(n, self)
                row.append(int(holds))
            writer.writerow(row)
        return out.getvalue()


def macmahon_table(a_max: int, n_max: int) -> MacMahonTable:
    """Tabulate M_a(n) by dynamic programming over part sizes."""
    if a_max < 1:
        raise ValueError(f"macmahon_table: a_max must be >= 1, got {a_max}")
    if n_max < 1:
        raise ValueError(f"macmahon_table: n_max must be >= 1, got {n_max}")
    width = n_max + 1
    dp = [[0] * width for _ in range(a_max + 1)]
    dp[0][0] = 1
    # hi[j] is one past the last index that can be nonzero in dp[j]; keeping
    # it tight is what makes the j = 1 row cheap (dp[0] has support {0})
    hi = [1] + [0] * a_max
    for s in range(1, width):
        for j in range(min(a_max, s), 0, -1):
            src, dst = dp[j - 1], dp[j]
            src_hi = hi[j - 1]
            if src_hi == 0:
                continue
            lo = (j - 1) * j // 2  # j-1 distinct parts sum to at least this
            for mult in range(1, (width - 1) // s + 1):
                base = mult * s
                stop = min(width - base, src_hi)
                if stop <= lo:
                    break
                dst[base + lo : base + stop] = [
                    x + mult * y
                    for x, y in zip(dst[base + lo : base + stop], src[lo:stop])
                ]
                if base + stop > hi[j]:
                    hi[j] = base + stop
    return MacMahonTable(
        a_max=a_max,
        n_max=n_max,
        values=tuple(tuple(row) for row in dp[1:]),
    )


def relation_value(polys, n: int, table: MacMahonTable):
    """Evaluate sum_a P_a(n) M_a(n) for polynomials given as coefficient lists.

    polys[a-1] holds the coefficients of P_a, constant term first; its
    length is the number of M-columns used and must not exceed the table.
    """
    if len(polys) > table.a_max:
        raise ValueError(
            f"relation uses M_{len(polys)} but table stops at M_{table.a_max}"
        )
    total = 0
    for a, poly in enumerate(polys, start=1):
        p_at_n = sum(c * n**j for j, c in enumerate(poly))
        total += p_at_n * table.m(a, n)
    return total


def prime_identity(n: int, table: MacMahonTable) -> tuple[bool, bool]:
    """Check (n^2 - 3n + 2) M_1(n) = 8 M_2(n); also report primality of n.

    The relation holds iff n is prime, except that n in {1, 2} make both
    sides vanish; is_prime lets callers spot the degenerate pass at 1.
    """
    return relation_value(PRIME_RELATION, n, table) == 0, is_prime(n)
