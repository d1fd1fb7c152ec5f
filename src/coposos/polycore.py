"""Exact multi-index and polynomial arithmetic over the rationals.

A monomial is an exponent tuple (one nonnegative int per variable) and a
polynomial is a sparse map from exponent tuple to Fraction.  Everything in
this module is exact; conversion to floating point happens only at the SDP
boundary.  This makes identity tests (e.g. re-expanding a Gram certificate
and comparing coefficients) fully reliable.

The module also provides the monomial bases (the monomials of one exact
degree in descending-lex order, cached tuples), multinomial coefficients
and the coefficient norm of the exact audit.  The quadratic and quartic
matrix forms and the two lift operations on a :class:`Poly`
(:func:`polya_lift`)

    LINEAR:     p  ->  (x_1 + ... + x_n)^r * p
    QUADRATIC:  p  ->  (x_1^2 + ... + x_n^2)^r * p

are called by no code of the package: they are the reference route that
the tests check :class:`LiftTable` against, and the benchmark tracer wraps
them.

A :class:`SymMatrix` is one array of Python-int numerators over one
denominator.  Its arithmetic, the exact PSD test (fraction-free
elimination) and the lifts of matrices, which every SDP row and
certificate audit reads, run on those integers; the lifts come from one
table per (n, r), built once and cached (:func:`lift_table`), and
:func:`coeff_norm` takes their numerators.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial, gcd, lcm
from typing import Iterable, Mapping

import numpy as np

MultiIndex = tuple[int, ...]

RatLike = int | float | Fraction | str


def _rat(value: RatLike) -> Fraction:
    """Coerce ints, floats (exactly), Fractions and 'p/q' / decimal strings
    to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Floats convert exactly (binary -> rational); used at the SDP boundary.
        return Fraction(value)
    return Fraction(str(value))


def grlex_key(alpha: MultiIndex):
    """Sort key for graded lexicographic order.

    Monomials are compared first by total degree, then lexicographically with
    x_1 > x_2 > ... (so for n=2, degree 1 lists (1,0) before (0,1)).
    """
    return (sum(alpha), tuple(-a for a in alpha))


def multinomial(alpha: MultiIndex) -> int:
    """|alpha|! / (alpha_1! * ... * alpha_n!), exact."""
    total = sum(alpha)
    out = factorial(total)
    for a in alpha:
        out //= factorial(a)
    return out


def _compositions(total: int, parts: int) -> list[MultiIndex]:
    """All exponent tuples of given total degree, in descending-lex order:
    stars and bars, the bar positions in reverse lexicographic order."""
    top = total + parts - 1
    bars = [(-1, *c, top) for c in combinations(range(top), parts - 1)][::-1]
    return list(map(tuple, (np.diff(np.array(bars), axis=1) - 1).tolist()))


@lru_cache(maxsize=64)
def monomial_basis(nvars: int, d: int) -> tuple[MultiIndex, ...]:
    """The binom(n+d-1, d) monomials of exact degree d in descending-lex
    order (x_1 > x_2 > ...), cached per argument pair."""
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    return tuple(_compositions(d, nvars))


class Poly:
    """Sparse exact-coefficient polynomial in ``nvars`` variables.

    Immutable by convention: all operations return new instances, zero
    coefficients are never stored.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, RatLike] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        cleaned: dict[MultiIndex, Fraction] = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != nvars or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for nvars={nvars}")
            c = _rat(c)
            if c != 0:
                cleaned[alpha] = c
        self._terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    # -- basic queries -------------------------------------------------

    def coeff(self, alpha: MultiIndex) -> Fraction:
        return self._terms.get(tuple(alpha), Fraction(0))

    def items(self) -> Iterable[tuple[MultiIndex, Fraction]]:
        return self._terms.items()

    def monomials(self) -> list[MultiIndex]:
        return sorted(self._terms, key=grlex_key)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(a) for a in self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        def mono(alpha):
            return "".join(f"*x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e)

        parts = [f"{self._terms[alpha]}{mono(alpha)}" for alpha in self.monomials()]
        return "Poly(" + (" + ".join(parts) or "0") + ")"

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        terms = dict(self._terms)
        for alpha, c in other._terms.items():
            terms[alpha] = terms.get(alpha, Fraction(0)) + c
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        terms: dict[MultiIndex, Fraction] = {}
        for a1, c1 in self._terms.items():
            for a2, c2 in other._terms.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Poly(self.nvars, terms)


def dyadic(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Python ints k and one exponent e <= 0 with values == k * 2**e
    exactly: each 53-bit mantissa shifted by its exponent less e, the least
    exponent (or 0)."""
    if not np.isfinite(values).all():
        raise ValueError("an entry is NaN or infinite")
    mantissa, exponent = np.frexp(values)
    exponent = exponent.astype(np.int64) - 53
    e = int(exponent.min(initial=0))
    ints = np.ldexp(mantissa, 53).astype(np.int64).astype(object)
    return np.left_shift(ints, (exponent - e).astype(object)), e


class SymMatrix:
    """Exact rational symmetric matrix ``num / den``: one read-only n x n
    array ``num`` of Python-int numerators over one positive ``den``, in
    lowest terms, so that ``den`` is the lcm of the entries' denominators.
    The arithmetic, the lift and the exact checks run on these integers;
    ``rows``, the tuples of ``Fraction`` entries, is built once on first
    use.  :meth:`from_rows` checks outside input; the constructor trusts
    that ``num`` is symmetric and reduces it to lowest terms."""

    def __init__(self, num, den: int = 1):
        num = np.array(num, dtype=object).reshape(len(num), len(num))
        g = gcd(den, *num.ravel().tolist())
        if g > 1:
            num, den = num // g, den // g
        num.flags.writeable = False
        self.n, self.num, self.den = len(num), num, den

    @classmethod
    def _lowest(cls, num: np.ndarray, den: int) -> "SymMatrix":
        """The matrix of a symmetric n x n object array ``num`` over ``den``
        already in lowest terms, as when ``den`` is the lcm of the reduced
        entries' denominators; ``num`` is kept, not copied or reduced."""
        m = cls.__new__(cls)
        num.flags.writeable = False
        m.n, m.num, m.den = len(num), num, den
        return m

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix":
        data = tuple([tuple([_rat(v) for v in row]) for row in rows])
        n = len(data)
        if any(len(row) != n for row in data):
            raise ValueError("matrix is not square")
        if any(row != col for row, col in zip(data, zip(*data))):  # then find the first
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if data[i][j] != data[j][i])
            raise ValueError(f"matrix is not symmetric at ({i},{j})")
        ratios = [list(map(Fraction.as_integer_ratio, row)) for row in data]
        den = lcm(*[q for row in ratios for _, q in row])
        num = np.array([[p * (den // q) for p, q in row] for row in ratios], dtype=object)
        m = cls._lowest(num.reshape(n, n), den)
        m.rows = data
        return m

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.diag([1] * n)

    @classmethod
    def ones(cls, n: int) -> "SymMatrix":
        return cls(np.ones((n, n), dtype=object))

    @classmethod
    def zero(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n), dtype=object))

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        vals = [_rat(v) for v in values]
        den = lcm(*[v.denominator for v in vals])
        num = np.zeros((len(vals), len(vals)), dtype=object)
        np.fill_diagonal(num, [v.numerator * (den // v.denominator) for v in vals])
        return cls._lowest(num, den)

    @classmethod
    def from_float(cls, array) -> "SymMatrix":
        """Exact rationalization of the symmetric part of a float matrix:
        (k + k^T) / 2^(1-e) for its :func:`dyadic` integers k * 2^e."""
        ints, e = dyadic(np.asarray(array, dtype=float))
        return cls(ints + ints.T, 2 ** (1 - e))

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        vals = {v: Fraction(v, self.den) for v in self.num.ravel().tolist()}
        return tuple([tuple(map(vals.__getitem__, row)) for row in self.num.tolist()])

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return (self.n, self.den, self.num.tolist()) == (other.n, other.den, other.num.tolist())

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n}, rows={self.rows!r})"

    def _combine(self, other: "SymMatrix", sign: int) -> "SymMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        return SymMatrix(self.num * (den // self.den) + other.num * (sign * den // other.den), den)

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return self._combine(other, -1)

    def scale(self, c: RatLike) -> "SymMatrix":
        c = _rat(c)
        return SymMatrix(self.num * c.numerator, self.den * c.denominator)

    def max_abs_entry(self) -> Fraction:
        return Fraction(max(map(abs, self.num.ravel().tolist()), default=0), self.den)


def is_psd_exact(m: SymMatrix) -> bool:
    """Exact positive-semidefiniteness test on the integer numerators:
    symmetric pivoting on the largest diagonal, fraction-free (Bareiss)
    elimination.  Each step's entries are those of the rational Schur
    complement times the last pivot, a positive integer, so every sign and
    every pivot choice is the rational LDL's."""
    a = m.num.tolist()
    active = list(range(m.n))
    last = 1
    while active:
        piv = max(active, key=lambda i: a[i][i])
        d = a[piv][piv]
        if d <= 0:  # all remaining diagonals are <= d; PSD needs a zero block
            return d == 0 and not any(a[i][j] for i in active for j in active)
        active.remove(piv)
        top = a[piv]
        for k, i in enumerate(active):
            row, f = a[i], a[i][piv]
            for j in active[k:]:
                row[j] = a[j][i] = (d * row[j] - f * top[j]) // last
        last = d
    return True


def quadratic_form(m: SymMatrix) -> Poly:
    """sum_ij M_ij x_i x_j as a degree-2 homogeneous polynomial."""
    return _form(m, 1)


def quartic_form(m: SymMatrix) -> Poly:
    """sum_ij M_ij x_i^2 x_j^2; only even multi-indices appear."""
    return _form(m, 2)


def _form(m: SymMatrix, power: int) -> Poly:
    """sum_ij M_ij x_i^power x_j^power; :class:`Poly` drops the zero terms."""
    terms: dict[MultiIndex, Fraction] = {}
    n = m.n
    for i in range(n):
        for j in range(i, n):
            exp = [0] * n
            exp[i] += power
            exp[j] += power
            terms[tuple(exp)] = m.rows[i][j] if i == j else 2 * m.rows[i][j]
    return Poly(n, terms)


class LiftKind(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"


def lift_multiplier(nvars: int, r: int, kind: LiftKind) -> Poly:
    """(sum x_i)^r or (sum x_i^2)^r, expanded exactly via multinomials."""
    if r < 0:
        raise ValueError("lift level must be >= 0")
    power = 1 if kind is LiftKind.LINEAR else 2
    terms: dict[MultiIndex, Fraction] = {}
    for tau in _compositions(r, nvars):
        exp = tuple(power * t for t in tau)
        terms[exp] = Fraction(multinomial(tau))
    return Poly(nvars, terms)


def polya_lift(p: Poly, r: int, kind: LiftKind) -> Poly:
    """Multiply p by (sum x_i)^r (LINEAR) or (sum x_i^2)^r (QUADRATIC)."""
    if r == 0:
        return p
    return lift_multiplier(p.nvars, r, kind) * p


def monomial_keys(exps: np.ndarray) -> np.ndarray:
    """One bytes key per row of exponents (each below 128), equal exactly
    when the monomials are, for ``np.unique`` and ``np.searchsorted``."""
    exps = np.ascontiguousarray(exps, dtype=np.int8)
    return exps.view(np.dtype((np.void, exps.shape[1]))).ravel()


def monomial_positions(exps: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The row of ``exps`` equal to each row of ``queries``; every query
    must occur."""
    keys = monomial_keys(exps)
    order = np.argsort(keys)
    return order[np.searchsorted(keys[order], monomial_keys(queries))]


class LiftTable:
    """The level-r lift of quadratic forms in n variables, on integers.

    Row t is the degree-(r+2) monomial delta = ``basis[t]`` (``exps[t]``).
    Both lifts of a symmetric M have there the sum over tau + e_i + e_j =
    delta of multinomial(tau) * M_ij: LINEAR at x^delta of (sum x_i)^r
    x^T M x, QUADRATIC at x^(2 delta) of (sum x_i^2)^r sum M_ij x_i^2 x_j^2.
    ``target[tau, i, j]`` is the row of tau + e_i + e_j and ``weight[tau]``
    the integer multinomial(tau).
    """

    def __init__(self, n: int, r: int):
        self.n, self.r = n, r
        self.basis = monomial_basis(n, r + 2)
        self.exps = np.array(self.basis, dtype=np.int8)
        taus = monomial_basis(n, r)
        eye = np.eye(n, dtype=np.int8)
        grown = np.array(taus, dtype=np.int8)[:, None, None] + eye[:, None] + eye[None, :]
        self.target = monomial_positions(self.exps, grown.reshape(-1, n)).reshape(-1, n, n)
        self.weight = np.array([multinomial(tau) for tau in taus], dtype=object)
        # entry (i, j) of the upper triangle adds to row spots[tau, (i, j)]
        # with weight coef[tau, (i, j)]: multinomial(tau), twice if i < j
        self.upper = np.triu_indices(n)
        self.spots = self.target[:, self.upper[0], self.upper[1]]
        self.coef = self.weight[:, None] * (1 + (self.upper[0] < self.upper[1]))
        for shared in (self.exps, self.target, self.weight, self.spots, self.coef):
            shared.flags.writeable = False  # cached: read-only

    def lift(self, m: SymMatrix) -> tuple[np.ndarray, int]:
        """(numerators, D): row t of the lift of M is numerators[t] / D, with
        D = ``m.den``, the least common multiple of M's denominators; the
        numerators are Python ints, summed exactly."""
        if m.n != self.n:
            raise ValueError("matrix dimension does not match the table")
        num = m.num[self.upper]
        nz = np.flatnonzero(num)
        out = np.zeros(len(self.basis), dtype=object)
        np.add.at(out, self.spots[:, nz], self.coef[:, nz] * num[nz])
        return out, m.den


lift_table = lru_cache(maxsize=16)(LiftTable)  # lift_table(n, r): built once, cached


def coeff_norm(p: Iterable[tuple[int, int]], denominator: int = 1) -> Fraction:
    """max over monomials of |coefficient| / multinomial(alpha); 0 for p = 0.

    ``p`` holds pairs (numerator, multinomial(alpha)) of coefficients over
    one ``denominator``; the maximum is taken on integers.
    """
    terms = list(p)
    scale = lcm(*{w for _, w in terms})
    top = max((abs(c) * (scale // w) for c, w in terms), default=0)
    return Fraction(top, scale * denominator)
