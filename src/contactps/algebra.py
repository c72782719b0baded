"""Exact arithmetic on polynomials in conjugate variable pairs.

Coefficients are Gaussian rationals, so no rounding ever occurs.  A
GaussianRational holds three Python ints (a, b, d) and stands for
(a + b*i)/d, kept canonical with d > 0 and gcd(a, b, d) = 1 (zero is
(0, 0, 1)); its arithmetic is integer arithmetic with one gcd per result,
and its exact real and imaginary parts are read as Fractions through the
``re`` and ``im`` properties.  A polynomial in n complex variables is a
sparse map from exponent pairs to coefficients:

    key   = (holo, anti)        two length-n tuples of non-negative ints
    value = GaussianRational    never zero in canonical form

The key (holo, anti) stands for the monomial

    z1^holo[0] * ... * zn^holo[n-1] * conj(z1)^anti[0] * ... * conj(zn)^anti[n-1]

A polynomial may be exact or a jet: ``truncation=None`` means exact,
``truncation=N`` means the polynomial is only known modulo terms of total
degree > N.  Truncation is a property of the value: every arithmetic result
carries the weakest truncation of its inputs, so "order at least" answers
stay sound by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence


class DimensionError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class TruncationError(ValueError):
    """An operation cannot be performed soundly on jet-truncated data."""


class GaussianRational:
    """Exact complex scalar (a + b*i)/d with Python ints a, b, d.

    The representation is canonical: d > 0 and gcd(a, b, d) = 1, so zero is
    (0, 0, 1) and equal values have equal fields.  Arithmetic runs on the
    ints with one gcd normalisation per result.  The fields are private to
    this module; everything else reads the exact parts through the ``re``
    and ``im`` properties, which are Fractions.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            dr, di = re.denominator, im.denominator
            d = dr * di // gcd(dr, di)
            # Both parts are in lowest terms, so gcd(a, b, d) = 1 already.
            a, b = re.numerator * (d // dr), im.numerator * (d // di)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __setattr__(self, name, value=None):
        raise AttributeError("GaussianRational is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _normal(self._a + other._a, self._b + other._b, d1)
        return _normal(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-other)

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        return _normal(a, b, self._d * other._d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        a2, b2 = other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a1, b1, d2 = self._a, self._b, other._d
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        return _normal((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        """|q|^2 as an exact non-negative rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def __str__(self) -> str:
        from .expr import format_coefficient

        return format_coefficient(self)


# The slot setters write the fields past the __setattr__ guard.
_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d from fields that are already canonical."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _normal(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d for d > 0, reduced by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


ZERO = GaussianRational()
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# Exponent pairs

ExponentKey = tuple  # ((h1..hn), (a1..an))


def key_degree(key: ExponentKey) -> int:
    return sum(key[0]) + sum(key[1])


def key_is_pure(key: ExponentKey) -> bool:
    """Pure monomials are holomorphic or antiholomorphic (incl. constants)."""
    return not any(key[0]) or not any(key[1])


def key_conjugate(key: ExponentKey) -> ExponentKey:
    return (key[1], key[0])


def key_sort(key: ExponentKey):
    """Graded lexicographic order used for canonical term listings."""
    return (key_degree(key), key[0], key[1])


@dataclass(frozen=True)
class Order:
    """Order of vanishing: exact value, sound lower bound, or identically zero."""

    kind: str  # "exact" | "at_least" | "zero"
    value: int | None = None

    @staticmethod
    def exact(k: int) -> "Order":
        return Order("exact", k)

    @staticmethod
    def at_least(n: int) -> "Order":
        return Order("at_least", n)

    @staticmethod
    def zero() -> "Order":
        return Order("zero")

    def __str__(self) -> str:
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "at_least":
            return f">={self.value}"
        return "infinity"


class CPolynomial:
    """Sparse polynomial in n paired variables with optional jet truncation.

    Values are immutable after construction; every operation is a pure
    function, so instances may be freely shared between threads.
    """

    __slots__ = ("nvars", "terms", "truncation")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[ExponentKey, GaussianRational] | None = None,
        truncation: int | None = None,
    ):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean = {}
        for key, coeff in (terms or {}).items():
            if coeff.is_zero():
                continue
            if len(key[0]) != nvars or len(key[1]) != nvars:
                raise DimensionError(f"exponent key {key} does not match nvars={nvars}")
            if truncation is not None and key_degree(key) > truncation:
                continue
            clean[key] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("CPolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars: int, truncation: int | None = None) -> "CPolynomial":
        return CPolynomial(nvars, {}, truncation)

    @staticmethod
    def constant(nvars: int, value: GaussianRational) -> "CPolynomial":
        key = ((0,) * nvars, (0,) * nvars)
        return CPolynomial(nvars, {key: value})

    @staticmethod
    def one(nvars: int) -> "CPolynomial":
        return CPolynomial.constant(nvars, ONE)

    @staticmethod
    def variable(nvars: int, index: int, anti: bool = False) -> "CPolynomial":
        """The single variable z_index (0-based) or its conjugate."""
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        key = ((0,) * nvars, tuple(exp)) if anti else (tuple(exp), (0,) * nvars)
        return CPolynomial(nvars, {key: ONE})

    @staticmethod
    def monomial(
        nvars: int,
        holo: Sequence[int],
        anti: Sequence[int],
        coeff: GaussianRational = ONE,
    ) -> "CPolynomial":
        return CPolynomial(nvars, {(tuple(holo), tuple(anti)): coeff})

    # -- inspection ---------------------------------------------------------

    def coeff(self, key: ExponentKey) -> GaussianRational:
        return self.terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a stored term (0 for the zero polynomial)."""
        return max((key_degree(k) for k in self.terms), default=0)

    def order_of_vanishing(self) -> Order:
        if self.terms:
            return Order.exact(min(key_degree(k) for k in self.terms))
        if self.truncation is None:
            return Order.zero()
        return Order.at_least(self.truncation + 1)

    def is_real_valued(self) -> bool:
        """True iff conjugation reproduces the same term map."""
        for key, coeff in self.terms.items():
            if self.terms.get(key_conjugate(key), ZERO) != coeff.conjugate():
                return False
        return True

    def sorted_terms(self):
        """Terms in graded-lex order; the canonical listing."""
        return sorted(self.terms.items(), key=lambda kv: key_sort(kv[0]))

    def constant_term(self) -> GaussianRational:
        return self.coeff(((0,) * self.nvars, (0,) * self.nvars))

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "CPolynomial"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"operands have nvars {self.nvars} and {other.nvars}"
            )

    def __add__(self, other: "CPolynomial") -> "CPolynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, ZERO) + coeff
        return CPolynomial(self.nvars, out, _min_trunc(self.truncation, other.truncation))

    def __sub__(self, other: "CPolynomial") -> "CPolynomial":
        return self + (-other)

    def __neg__(self) -> "CPolynomial":
        return CPolynomial(
            self.nvars, {k: -c for k, c in self.terms.items()}, self.truncation
        )

    def __mul__(self, other: "CPolynomial") -> "CPolynomial":
        self._check_compatible(other)
        limit = _min_trunc(self.truncation, other.truncation)
        out: dict = {}
        for (h1, a1), c1 in self.terms.items():
            d1 = sum(h1) + sum(a1)
            for (h2, a2), c2 in other.terms.items():
                if limit is not None and d1 + sum(h2) + sum(a2) > limit:
                    continue
                key = (
                    tuple(x + y for x, y in zip(h1, h2)),
                    tuple(x + y for x, y in zip(a1, a2)),
                )
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return CPolynomial(self.nvars, out, limit)

    def scale(self, c: GaussianRational) -> "CPolynomial":
        return CPolynomial(
            self.nvars, {k: v * c for k, v in self.terms.items()}, self.truncation
        )

    def __pow__(self, k: int) -> "CPolynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = CPolynomial.one(self.nvars)
        if self.truncation is not None:
            out = CPolynomial(self.nvars, out.terms, self.truncation)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CPolynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.truncation == other.truncation
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.truncation, frozenset(self.terms.items())))

    def __repr__(self):
        body = " + ".join(
            f"{c}*z^{k[0]}zbar^{k[1]}" for k, c in self.sorted_terms()
        ) or "0"
        jet = "" if self.truncation is None else f" (jet {self.truncation})"
        return f"<CPolynomial {body}{jet}>"

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "CPolynomial":
        return CPolynomial(
            self.nvars,
            {key_conjugate(k): c.conjugate() for k, c in self.terms.items()},
            self.truncation,
        )

    def wirtinger(self, index: int, anti: bool = False) -> "CPolynomial":
        """Formal partial derivative in z_index (or conj(z_index) if anti).

        A jet of order N differentiates to a jet of order N-1.
        """
        if not 0 <= index < self.nvars:
            raise DimensionError(f"variable index {index} out of range")
        side = 1 if anti else 0
        out: dict = {}
        for key, coeff in self.terms.items():
            e = key[side][index]
            if e == 0:
                continue
            exp = list(key[side])
            exp[index] = e - 1
            new_key = (key[0], tuple(exp)) if anti else (tuple(exp), key[1])
            out[new_key] = coeff * GaussianRational(e)
        trunc = None if self.truncation is None else max(self.truncation - 1, 0)
        return CPolynomial(self.nvars, out, trunc)

    def pure_mixed_split(self) -> tuple["CPolynomial", "CPolynomial"]:
        """Split into (pure, mixed); the constant term goes to the pure part."""
        pure: dict = {}
        mixed: dict = {}
        for key, coeff in self.terms.items():
            (pure if key_is_pure(key) else mixed)[key] = coeff
        return (
            CPolynomial(self.nvars, pure, self.truncation),
            CPolynomial(self.nvars, mixed, self.truncation),
        )

    def holomorphic_part(self) -> "CPolynomial":
        """Terms with no antiholomorphic exponent and positive degree."""
        out = {
            k: c
            for k, c in self.terms.items()
            if not any(k[1]) and any(k[0])
        }
        return CPolynomial(self.nvars, out, self.truncation)

    def truncate(self, k: int) -> "CPolynomial":
        """Drop terms of total degree > k; result carries jet order k."""
        if k < 0:
            raise ValueError("truncation order must be non-negative")
        out = {key: c for key, c in self.terms.items() if key_degree(key) <= k}
        return CPolynomial(self.nvars, out, _min_trunc(self.truncation, k))

    def homogeneous_slice(self, d: int) -> "CPolynomial":
        out = {key: c for key, c in self.terms.items() if key_degree(key) == d}
        return CPolynomial(self.nvars, out, self.truncation)

    def substitute(
        self, images: Sequence["CPolynomial"], nvars_out: int
    ) -> "CPolynomial":
        """Compose: z_i receives images[i], conj(z_i) receives its conjugate.

        The antiholomorphic part of the result is the conjugate of the
        substitution by construction, so real-valued inputs stay real-valued.
        """
        if len(images) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} images, got {len(images)}"
            )
        for im in images:
            if im.nvars != nvars_out:
                raise DimensionError("image variable counts disagree")

        used = [False] * self.nvars
        for (h, a) in self.terms:
            for i in range(self.nvars):
                if h[i] or a[i]:
                    used[i] = True

        limit: int | None = None
        if self.truncation is not None:
            # Unknown terms of self (degree > truncation) may involve any
            # variable, so the bound must use the min order over all images.
            orders = [im.order_of_vanishing() for im in images]
            dmin = min((o.value for o in orders if o.kind != "zero"), default=None)
            if dmin == 0:
                raise TruncationError(
                    "cannot soundly substitute images with constant terms "
                    "into a jet-truncated polynomial"
                )
            if dmin is not None:
                limit = (self.truncation + 1) * dmin - 1
        for i, im in enumerate(images):
            if used[i] and im.truncation is not None:
                limit = _min_trunc(limit, im.truncation)

        power_cache: dict[tuple[int, int], CPolynomial] = {}

        def image_power(i: int, e: int) -> CPolynomial:
            key = (i, e)
            if key not in power_cache:
                p = images[i] ** e
                if limit is not None:
                    p = p.truncate(limit) if p.truncation is None or p.truncation > limit else p
                power_cache[key] = p
            return power_cache[key]

        total = CPolynomial.zero(nvars_out, limit)
        for (h, a), coeff in self.terms.items():
            term = CPolynomial.constant(nvars_out, coeff)
            if limit is not None:
                term = CPolynomial(nvars_out, term.terms, limit)
            for i in range(self.nvars):
                if h[i]:
                    term = term * image_power(i, h[i])
                if a[i]:
                    term = term * image_power(i, a[i]).conjugate()
            total = total + term
        return total


def _min_trunc(a: int | None, b: int | None) -> int | None:
    """Min of two truncation orders, with None acting as infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def product_rule_check(p: CPolynomial, q: CPolynomial, index: int, anti: bool) -> bool:
    """d(pq) == dp*q + p*dq; used by the invariant suite."""
    lhs = (p * q).wirtinger(index, anti)
    rhs = p.wirtinger(index, anti) * q + p * q.wirtinger(index, anti)
    return lhs == rhs
