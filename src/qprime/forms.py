"""Eisenstein series, cusp form bases, the prime-vanishing H_k family, and
the canonical quasimodular representation.

Conventions
-----------
The weight-k Eisenstein series is

    G_k(q) = B_k/(2k) + sum_{n>=1} sigma_{k-1}(n) q^n

by default; pass constant_sign="classical" for the variant whose constant
term is -B_k/(2k).  The two agree in every positive-exponent coefficient,
so the flag only moves constants around.  D denotes q d/dq throughout.

A QuasiForm is a sparse linear combination of D^l G_k terms plus D^l S
terms, where S runs over the echelonized cusp bases produced here.  Mixed
weights are allowed; the grading of a term is k + 2l (resp. m + 2l).
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import mul

from .exactnum import (
    apply_factor,
    bernoulli,
    factor_exact,
    integer_numerators,
    rationals_over,
    sigma_array,
    solves,
)
from .qseries import (
    _FAST_MUL_MIN_PRECISION,
    QExpansion,
    _series,
    coeff_from_json,
    linear_combination,
)

__all__ = [
    "MAX_WEIGHT",
    "MAX_ORDER",
    "QuasiForm",
    "eisenstein_g",
    "delta",
    "cusp_dim",
    "cusp_basis",
    "hk",
    "hk_quasiform",
    "quasiform_expand",
    "expand_monomials",
    "spanning_keys",
    "from_monomials",
]


# the largest weight and derivative order read from input, by the grammar
# and by QuasiForm.from_dict.  Expanding the largest G_k, H_k or S_m.i at
# precision 2 takes under a second; beyond that B_k and the cusp basis grow
# without end.  D^l raises the weight by 2l, so half the weight bound keeps a
# term's graded weight within twice it
MAX_WEIGHT = 600
MAX_ORDER = 300


def _constant_factor(constant_sign: str) -> int:
    if constant_sign == "paper":
        return 1
    if constant_sign == "classical":
        return -1
    raise ValueError(
        f"constant_sign must be 'paper' or 'classical', got {constant_sign!r}"
    )


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

# longest sigma_{r} list computed so far, per exponent r
_SIGMA_CACHE: dict[int, list[int]] = {}


def _sigma_list(r: int, n_max: int) -> list[int]:
    cached = _SIGMA_CACHE.get(r)
    if cached is None or len(cached) <= n_max:
        cached = sigma_array(r, n_max)
        _SIGMA_CACHE[r] = cached
    return cached


def eisenstein_g(k: int, precision: int, constant_sign: str = "paper") -> QExpansion:
    """G_k at the given precision: constant B_k/(2k), then sigma_{k-1}(n)."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"eisenstein_g: weight must be even and >= 2, got {k}")
    if precision < 0:
        raise ValueError(f"eisenstein_g: precision must be >= 0, got {precision}")
    const = _constant_factor(constant_sign) * bernoulli(k) / (2 * k)
    # over d, the denominator of the constant: numerators num(const), then
    # d sigma_{k-1}(n), already in lowest terms
    d = const.denominator
    sig = _sigma_list(k - 1, precision)
    return _series([const.numerator] + [d * s for s in sig[1 : precision + 1]], d)


def _eisenstein_part(eis: dict, precision: int, constant_sign: str) -> QExpansion:
    # sum c_{k,l} D^l G_k (+ c_0 at the key (0, 0)) in one integer pass: the
    # coefficients over their lcm, P_k(n) = sum_l c_{k,l} n^l by Horner's
    # rule, sigma_{k-1}(n) P_k(n) summed over k; only l = 0 reaches q^0
    nums, den = integer_numerators(list(eis.values()))
    polys: dict = defaultdict(dict)
    for (k, l), c in zip(eis, nums):
        polys[k][l] = c
    const = Fraction(polys.pop(0, {}).get(0, 0))
    sign = _constant_factor(constant_sign)
    ns = range(1, precision + 1)
    acc = [0] * precision
    for k, poly in polys.items():
        top = max(poly)
        vals = [poly[top]] * precision
        for l in range(top - 1, -1, -1):
            c = poly.get(l, 0)
            vals = [v * n + c for v, n in zip(vals, ns)]
        sig = _sigma_list(k - 1, precision)[1 : precision + 1]
        acc = [a + s * v for a, s, v in zip(acc, sig, vals)]
        if 0 in poly:
            const += poly[0] * sign * bernoulli(k) / (2 * k)
    q = const.denominator
    return _series([const.numerator] + [q * a for a in acc], q * den)


# ---------------------------------------------------------------------------
# the discriminant cusp form and cusp bases
# ---------------------------------------------------------------------------

# coefficients of prod_{n>=1} (1 - q^n)^24 up to the largest n asked for
_ETA24: list[int] = [1]


def _eta24(n_max: int) -> list[int]:
    global _ETA24
    if len(_ETA24) <= n_max:
        # h = prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^{k(k+1)/2} (Jacobi), so
        # h^2 is a double sum over pairs of triangular numbers, and the
        # product is h^8: two squarings of h^2
        terms = []
        k = 0
        while k * (k + 1) // 2 <= n_max:
            terms.append((k * (k + 1) // 2, -(2 * k + 1) if k & 1 else 2 * k + 1))
            k += 1
        h2 = [0] * (n_max + 1)
        for t, c in terms:
            for u, e in terms:
                if t + u > n_max:
                    break
                h2[t + u] += c * e
        g = QExpansion(h2, n_max)
        g = g * g
        _ETA24 = (g * g).coeffs
    return _ETA24


def delta(precision: int) -> QExpansion:
    """The discriminant form q prod (1-q^n)^24; coefficient at n is tau(n)."""
    if precision < 1:
        raise ValueError(f"delta: precision must be >= 1, got {precision}")
    g = _eta24(precision - 1)
    return QExpansion([0] + g[:precision], precision)


def cusp_dim(m: int) -> int:
    """Dimension of the weight-m level-one cusp space."""
    if m % 2 != 0 or m < 12:
        return 0
    # dim M_m = floor(m/12) + (0 if m = 2 mod 12 else 1), less the Eisenstein
    # series; closed form, so a huge weight read from JSON costs nothing
    return m // 12 - (m % 12 == 2)


# echelonized basis at the longest precision computed so far, per weight
_CUSP_CACHE: dict[int, list[QExpansion]] = {}


def cusp_basis(m: int, precision: int) -> list[QExpansion]:
    """Echelonized basis of the weight-m cusp space.

    Element i is q^{i+1} + O(q^{d+1}) where d is the dimension; empty
    list when the space is trivial.
    """
    if m % 2 != 0:
        raise ValueError(f"cusp_basis: weight must be even, got {m}")
    d = cusp_dim(m)
    if d == 0:
        return []
    if precision < d:
        raise ValueError(
            f"cusp_basis: precision {precision} cannot exhibit dimension {d}"
        )
    cached = _CUSP_CACHE.get(m)
    if cached is None or cached[0].precision < precision:
        cached = _build_cusp_basis(m, precision)
        _CUSP_CACHE[m] = cached
    return [f.truncate(precision) for f in cached]


def _miller_weights(m: int) -> list[int]:
    # k_j of Miller's rows R_j = Delta^{j+1} E_{k_j}, one per basis element;
    # weight 2 has no E_k and can only come last
    return [k for k in range(m - 12, -1, -12) if k != 2]


def _miller_rows(m: int, precision: int):
    """Miller's rows Delta^{j+1} E_{k_j} through q^precision, as integer series.

    E_k enters as d E_k, its numerators over its denominator d (E_0 = 1); a
    row is one product, on powers of Delta shared by the rows.  Row j starts
    p_j q^{j+1}, p_j the constant of d E_k (1 for E_0).
    """
    dlt = delta(precision)
    power = dlt
    for j, k in enumerate(_miller_weights(m)):
        if j:
            power = power * dlt
        yield power * _series(eisenstein_g(k, precision, "classical").nums) if k else power


def _reduce_rows(rows: list) -> list:
    # clears the column of each row's pivot, q^{j+1} for row j, from the
    # other rows, from the last column back, by integer row operations.
    # Each updated row is divided by the gcd of its entries: without that,
    # every column cleared multiplies the row by a pivot and the entries
    # double in size per column
    for j in reversed(range(len(rows))):
        pj = rows[j][j + 1]
        for i in range(j):
            f = rows[i][j + 1]
            if f:
                row = [pj * x - f * y for x, y in zip(rows[i], rows[j])]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
    return rows


def _build_cusp_basis(m: int, precision: int) -> list[QExpansion]:
    rows = _reduce_rows([row.nums for row in _miller_rows(m, precision)])
    # element i is row i over its pivot
    return [QExpansion(row) * Fraction(1, row[i + 1]) for i, row in enumerate(rows)]


# Horner's rule in Delta takes the combination of Miller's rows, whose
# coefficients (the transform's entries) grow with the weight much faster
# than those of the echelon basis: 97 bits at weight 40 and 2703 at weight
# 120, against 88 and 235.  Past this dimension the basis is the cheaper
# path (S84.0 at q^2000: 0.71 s by Horner, 0.55 s through the basis)
_HORNER_MAX_DIM = 6

# the transform of each weight asked for, of dimension at most _HORNER_MAX_DIM
_MILLER_TRANSFORMS: dict[int, list[list]] = {}


def _miller_transform(m: int) -> list[list]:
    """T with cusp_basis(m)[i] = sum_j T[i][j] R_j over Miller's rows R_j.

    The rows' coefficients at q^1..q^d (d the dimension) form a block B,
    and the echelon basis is T R with T B = 1: T is the inverse that
    factor_exact records for B, from the rows through q^d, once per weight.
    """
    transform = _MILLER_TRANSFORMS.get(m)
    if transform is None:
        d = cusp_dim(m)
        block = [row.nums[1:] for row in _miller_rows(m, d)]
        transform = [rationals_over(t, pivot) for t, pivot in factor_exact(block)]
        _MILLER_TRANSFORMS[m] = transform
    return transform


def _cusp_combination(m: int, gammas: dict, precision: int) -> QExpansion:
    """sum gamma_i cusp_basis(m)[i] over {i: gamma_i}, without the basis.

    With c = gamma T the sum is sum_j c_j R_j, evaluated by Horner's rule
    in Delta: Delta (c_0 E_{k_0} + Delta (c_1 E_{k_1} + ...)), one product
    per row and no basis.
    """
    # Delta first: the transform's short rows then read its cached
    # coefficients instead of building a short Delta of their own
    dlt = delta(precision)
    transform = _miller_transform(m)
    acc = QExpansion.zero(precision)
    for j, k in reversed(list(enumerate(_miller_weights(m)))):
        c = sum(g * transform[i][j] for i, g in gammas.items())
        if c:
            ek = eisenstein_g(k, precision, "classical") if k else QExpansion.one(precision)
            # the rows hold d E_k, d = ek.den the denominator of E_k
            acc = linear_combination([(c * ek.den, ek), (1, acc)], precision)
        # only E_0 = 1 is a constant, and Delta times a constant takes no product
        acc = dlt * acc if any(acc.nums[1:]) else dlt * acc[0]
    return acc


# ---------------------------------------------------------------------------
# the H_k family
# ---------------------------------------------------------------------------


def hk_quasiform(k: int) -> "QuasiForm":
    """The weight-k combination whose coefficients vanish exactly at primes.

    H_6 = (1/6)((D^2 - D + 1) G_2 - G_4) and, for even k >= 8,
    H_k = (1/24)(-D^2 G_{k-6} + (D^2 + 1) G_{k-4} - G_{k-2}).
    """
    if k % 2 != 0 or k < 6:
        raise ValueError(f"hk: weight must be even and >= 6, got {k}")
    if k == 6:
        c = Fraction(1, 6)
        return QuasiForm(eis={(2, 2): c, (2, 1): -c, (2, 0): c, (4, 0): -c})
    c = Fraction(1, 24)
    return QuasiForm(
        eis={(k - 6, 2): -c, (k - 4, 2): c, (k - 4, 0): c, (k - 2, 0): -c}
    )


def hk(k: int, precision: int, constant_sign: str = "paper") -> QExpansion:
    return hk_quasiform(k).expand(precision, constant_sign=constant_sign)


# ---------------------------------------------------------------------------
# the canonical representation
# ---------------------------------------------------------------------------


def _check_coeff(value, where, source="QuasiForm"):
    # a bool is an int to Python, but would print as "True"
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise TypeError(
            f"{source}: coefficient at {where} must be an int or a Fraction, got {value!r}"
        )
    return value.numerator if value.denominator == 1 else value


class QuasiForm:
    """Sparse combination of Eisenstein derivatives and cusp form derivatives.

    eis maps (k, l) to the coefficient of D^l G_k; k is even and >= 2,
    except that the key (0, 0) carries a plain constant (products of the
    generators are constants away from the pure Eisenstein span, so the
    representation needs one).  cusp maps (m, i, l) to the coefficient of
    D^l applied to element i of cusp_basis(m).  Coefficients are ints or
    Fractions (an int wherever the value is integral) and zeros are never
    stored.  A complex combination F_re + i F_im is two QuasiForms.
    """

    __slots__ = ("eis", "cusp")

    def __init__(self, eis=None, cusp=None):
        ceis = {}
        for key, value in (eis or {}).items():
            k, l = key
            if k == 0:
                if l != 0:
                    raise ValueError(f"QuasiForm: constant key must be (0, 0), got {key}")
            elif k < 2 or k % 2 != 0 or l < 0:
                raise ValueError(f"QuasiForm: bad eis key {key}")
            value = _check_coeff(value, key)
            if value != 0:
                ceis[(k, l)] = value
        ccusp = {}
        for key, value in (cusp or {}).items():
            m, i, l = key
            if m % 2 != 0 or not 0 <= i < cusp_dim(m) or l < 0:
                raise ValueError(f"QuasiForm: bad cusp key {key}")
            value = _check_coeff(value, key)
            if value != 0:
                ccusp[(m, i, l)] = value
        self.eis = ceis
        self.cusp = ccusp

    @classmethod
    def constant(cls, c) -> "QuasiForm":
        return cls(eis={(0, 0): c})

    def is_zero(self) -> bool:
        return not self.eis and not self.cusp

    def eis_part(self) -> "QuasiForm":
        return QuasiForm(eis=self.eis)

    def cusp_part(self) -> "QuasiForm":
        return QuasiForm(cusp=self.cusp)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QuasiForm):
            return NotImplemented
        eis = dict(self.eis)
        for key, value in other.eis.items():
            eis[key] = eis.get(key, 0) + value
        cusp = dict(self.cusp)
        for key, value in other.cusp.items():
            cusp[key] = cusp.get(key, 0) + value
        return QuasiForm(eis=eis, cusp=cusp)

    def __sub__(self, other):
        if not isinstance(other, QuasiForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QuasiForm(
            eis={key: -value for key, value in self.eis.items()},
            cusp={key: -value for key, value in self.cusp.items()},
        )

    def __mul__(self, scalar):
        # a bool is an int to Python, but no coefficient the constructor takes
        if type(scalar) is bool or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return QuasiForm(
            eis={key: scalar * value for key, value in self.eis.items()},
            cusp={key: scalar * value for key, value in self.cusp.items()},
        )

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "QuasiForm":
        """Apply D = q d/dq termwise; the constant key is annihilated."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        if order == 0:
            return self
        eis = {
            (k, l + order): value for (k, l), value in self.eis.items() if k != 0
        }
        cusp = {(m, i, l + order): value for (m, i, l), value in self.cusp.items()}
        return QuasiForm(eis=eis, cusp=cusp)

    def __eq__(self, other):
        if not isinstance(other, QuasiForm):
            return NotImplemented
        return self.eis == other.eis and self.cusp == other.cusp

    __hash__ = None

    def __repr__(self):
        return f"QuasiForm(eis={self.eis!r}, cusp={self.cusp!r})"

    # -- expansion ----------------------------------------------------------

    def expand(self, precision: int, constant_sign: str = "paper") -> QExpansion:
        """The q-expansion through q^precision, exactly.

        The Eisenstein part is one integer pass over the cached sigma
        tables: the coefficients over their lcm, each P_k(n) =
        sum_l c_{k,l} n^l by Horner's rule, then sum_k sigma_{k-1}(n) P_k(n)
        and one constant, sum_k c_{k,0} (+-B_k/2k) + c_0, reduced once; no
        G_k series is built.  The cusp terms are added to it: by Horner's
        rule in Delta for big products, else from the cached basis.
        """
        if precision < 0:
            raise ValueError(f"QuasiForm.expand: precision must be >= 0, got {precision}")
        eis = _eisenstein_part(self.eis, precision, constant_sign)
        if not self.cusp:
            return eis
        terms = [(1, eis)]
        groups = defaultdict(dict)
        for (m, i, l), coeff in self.cusp.items():
            groups[(m, l)][i] = coeff
        for (m, l), gammas in sorted(groups.items()):
            if precision >= _FAST_MUL_MIN_PRECISION and cusp_dim(m) <= _HORNER_MAX_DIM:
                # big products: only the combination asked for, no basis
                terms.append((1, _cusp_combination(m, gammas, precision).derivative(l)))
                continue
            # small ones: the cached basis, which a session reuses.  A basis
            # needs a precision of at least its dimension; the sum truncates
            # it back
            basis = cusp_basis(m, max(precision, cusp_dim(m)))
            terms += [(coeff, basis[i].derivative(l)) for i, coeff in sorted(gammas.items())]
        return linear_combination(terms, precision)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "eis": [[k, l, str(v)] for (k, l), v in sorted(self.eis.items())],
            "cusp": [[m, i, l, str(v)] for (m, i, l), v in sorted(self.cusp.items())],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "QuasiForm":
        """Read the to_dict layout back; anything else raises ValueError.

        Keys must be JSON integers (not booleans) and coefficients either
        integers or "num/den" strings, so that no float is ever read into
        an exact coefficient or a truncated weight.  Weights above
        MAX_WEIGHT and derivative orders above MAX_ORDER are refused.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"QuasiForm JSON must be an object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"eis", "cusp"})
        if unknown:
            raise ValueError(f"QuasiForm JSON: unknown fields {unknown}")
        eis = _read_entries(data, "eis", 2)
        cusp = _read_entries(data, "cusp", 3)
        return cls(eis=eis, cusp=cusp)

    @classmethod
    def from_json(cls, text: str) -> "QuasiForm":
        return cls.from_dict(json.loads(text))


def _read_entries(data: dict, field: str, nkeys: int) -> dict:
    # entries are [key_1, ..., key_nkeys, coefficient]
    entries = data.get(field, [])
    if not isinstance(entries, list):
        raise ValueError(f"QuasiForm JSON: {field!r} must be a list of entries")
    out = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != nkeys + 1:
            raise ValueError(
                f"QuasiForm JSON: {field} entry {entry!r} must be a list of "
                f"{nkeys} integers and a coefficient"
            )
        *key, value = entry
        if any(type(x) is not int for x in key):
            raise ValueError(f"QuasiForm JSON: {field} key {key!r} must be integers")
        # weight first, order last, in both layouts
        if key[0] > MAX_WEIGHT:
            raise ValueError(
                f"QuasiForm JSON: {field} key {key!r} has weight above the maximum {MAX_WEIGHT}"
            )
        if key[-1] > MAX_ORDER:
            raise ValueError(
                f"QuasiForm JSON: {field} key {key!r} has derivative order above "
                f"the maximum {MAX_ORDER}"
            )
        key = tuple(key)
        if key in out:
            raise ValueError(f"QuasiForm: duplicate {field} entry for {key}")
        out[key] = coeff_from_json(value, "QuasiForm JSON", key)
    return out


def quasiform_expand(
    form: QuasiForm, precision: int, constant_sign: str = "paper"
) -> QExpansion:
    return form.expand(precision, constant_sign=constant_sign)


# ---------------------------------------------------------------------------
# conversion from generator monomials
# ---------------------------------------------------------------------------


def expand_monomials(
    monomials: dict, precision: int, constant_sign: str = "paper"
) -> QExpansion:
    """Expand sum coeff * G_2^a G_4^b G_6^c over {(a, b, c): coeff}.

    The powers G_k^e are built once per call, each from the next lower
    one, and shared by the monomials.
    """
    monomials = _checked_monomials(monomials, "expand_monomials")
    powers: dict = {}

    def power(k, e):
        if (k, e) not in powers:
            if e == 1:
                powers[(k, e)] = eisenstein_g(k, precision, constant_sign)
            else:
                powers[(k, e)] = power(k, e - 1) * power(k, 1)
        return powers[(k, e)]

    terms = []
    for (a, b, c), coeff in sorted(monomials.items()):
        factors = [power(k, e) for k, e in ((2, a), (4, b), (6, c)) if e]
        terms.append((coeff, reduce(mul, factors or [QExpansion.one(precision)])))
    return linear_combination(terms, precision)


def spanning_keys(weight: int) -> tuple[list, list]:
    """Basis keys of the weight-w quasimodular space.

    Eisenstein side: D^l G_k for every even k with k + 2l = w (the k = 2
    column only ever appears with l = w/2 - 1, which this enumeration
    produces on its own).  Cusp side: D^l applied to each cusp basis
    element of weight m = w - 2l >= 12.
    """
    if weight < 2 or weight % 2 != 0:
        raise ValueError(f"spanning_keys: weight must be even and >= 2, got {weight}")
    eis = [(k, (weight - k) // 2) for k in range(weight, 1, -2)]
    cusp = [
        (m, i, (weight - m) // 2)
        for m in range(12, weight + 1, 2)
        for i in range(cusp_dim(m))
    ]
    return eis, cusp


def _checked_monomials(monomials: dict, where: str) -> dict:
    # {(a, b, c): coeff} with non-negative int exponents and int/Fraction
    # coefficients (the rule of _check_coeff), zeros dropped
    out = {}
    for key, value in monomials.items():
        if not (
            type(key) is tuple
            and len(key) == 3
            and all(type(e) is int and e >= 0 for e in key)
        ):
            raise ValueError(
                f"{where}: monomial {key!r} must be a tuple of three non-negative ints"
            )
        value = _check_coeff(value, f"monomial {key}", where)
        if value != 0:
            out[key] = value
    return out


def _classicalize(monomials: dict) -> dict:
    """The monomials rewritten in classical G_k, as {(a, b, c): Fraction}.

    G_k(paper) = G_k(classical) + s_k with s_k = B_k/k, expanded
    binomially; classical monomials are weight-homogeneous, which the
    per-weight solve needs.  Each monomial builds its three lists of
    factors C(e, j) s_k^(e-j) once and multiplies them in the nested loops.
    """
    shift = {k: bernoulli(k) / k for k in (2, 4, 6)}
    out: dict = defaultdict(int)
    for (a, b, c), coeff in monomials.items():
        fa, fb, fc = (
            [comb(e, j) * shift[k] ** (e - j) for j in range(e + 1)]
            for k, e in ((2, a), (4, b), (6, c))
        )
        for aa, x in enumerate(fa):
            xa = coeff * x
            for bb, y in enumerate(fb):
                xab = xa * y
                for cc, z in enumerate(fc):
                    out[(aa, bb, cc)] += xab * z
    return {key: value for key, value in out.items() if value != 0}


# one spanning system per weight, as (eis_keys, cusp_keys, precision, matrix,
# scale, factor_exact of the matrix); the matrix over scale holds the keys'
# coefficients of q^0..q^precision, a row per exponent.  The solve always
# runs in the classical convention, so the weight alone keys it.
_WEIGHT_SYSTEMS: dict[int, tuple] = {}


def _weight_system(weight: int) -> tuple:
    system = _WEIGHT_SYSTEMS.get(weight)
    if system is None:
        eis_keys, cusp_keys = spanning_keys(weight)
        prec = len(eis_keys) + len(cusp_keys) + 10
        cols = [eisenstein_g(k, prec, "classical").derivative(l) for (k, l) in eis_keys]
        cols += [cusp_basis(m, prec)[i].derivative(l) for (m, i, l) in cusp_keys]
        scale = lcm(*(col.den for col in cols))
        matrix = [[col.nums[n] * (scale // col.den) for col in cols] for n in range(prec + 1)]
        system = (eis_keys, cusp_keys, prec, matrix, scale, factor_exact(matrix))
        _WEIGHT_SYSTEMS[weight] = system
    return system


def from_monomials(
    monomials: dict, n_guard: int = 60, constant_sign: str = "paper"
) -> QuasiForm:
    """Rewrite a generator-monomial combination in the canonical basis.

    Works one graded weight at a time: the monomials are first shifted to
    the sign convention in which they are weight-homogeneous, each weight
    is solved exactly against its spanning set (factored once per weight,
    see _weight_system), and the shift is undone.  The solve certifies itself:
    factor_exact raises unless the spanning columns have full rank, there are
    dim M~_w of them by the structure theorem M~_w = sum_l D^l M_{w-2l} +
    C D^{w/2-1} G_2 (Kaneko-Zagier), so the product has one preimage, and the
    solution is checked exactly on every row (else ValueError).  n_guard is ignored.
    """
    paper = _constant_factor(constant_sign) == 1
    cleaned = _checked_monomials(monomials, "from_monomials")
    classical = _classicalize(cleaned) if paper else cleaned

    by_weight: dict[int, dict] = defaultdict(dict)
    for (a, b, c), value in classical.items():
        by_weight[2 * a + 4 * b + 6 * c][(a, b, c)] = value
    const_total = Fraction(by_weight.pop(0, {}).get((0, 0, 0), 0))

    eis_out: dict = {}
    cusp_out: dict = {}
    for weight, mono_w in sorted(by_weight.items()):
        eis_keys, cusp_keys, prec, matrix, scale, factor = _weight_system(weight)
        target = expand_monomials(mono_w, prec, "classical")
        # matrix y = target.nums, so the solution is y scale / target.den
        y = apply_factor(factor, target.nums)
        if not solves(matrix, y, target.nums):
            raise ValueError(
                f"from_monomials: inconsistent solve at weight {weight}; "
                "the spanning set failed to reproduce the product expansion"
            )
        ratio = Fraction(scale, target.den)
        solution = [v * ratio for v in y]
        for (k, l), value in zip(eis_keys, solution):
            if value != 0:
                eis_out[(k, l)] = value
                if paper and l == 0:
                    # G_k(classical) = G_k(paper) - B_k/k
                    const_total -= value * bernoulli(k) / k
        for key, value in zip(cusp_keys, solution[len(eis_keys) :]):
            if value != 0:
                cusp_out[key] = value
    if const_total != 0:
        eis_out[(0, 0)] = const_total
    return QuasiForm(eis=eis_out, cusp=cusp_out)
