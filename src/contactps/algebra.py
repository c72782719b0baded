"""Exact arithmetic on polynomials in conjugate variable pairs.

Coefficients are Gaussian rationals, so no rounding ever occurs.  A
GaussianRational holds three Python ints (a, b, d) and stands for
(a + b*i)/d, kept canonical with d > 0 and gcd(a, b, d) = 1 (zero is
(0, 0, 1)); its arithmetic is integer arithmetic with one gcd per result,
and its exact real and imaginary parts are read as Fractions through the
``re`` and ``im`` properties.  The lowest-slice sums, which the searches
run for every candidate, work on the raw fields instead of on scalars and
reduce only the sums that ``initial_coefficients`` returns: one gcd per
coefficient of the slice, not one per product.  A polynomial in
n complex variables is a sparse map from exponent pairs to coefficients:

    key   = (holo, anti)        two length-n tuples of non-negative ints
    value = GaussianRational    never zero in canonical form

The key (holo, anti) stands for the monomial

    z1^holo[0] * ... * zn^holo[n-1] * conj(z1)^anti[0] * ... * conj(zn)^anti[n-1]

A polynomial may be exact or a jet: ``truncation=None`` means exact,
``truncation=N`` means the polynomial is only known modulo terms of total
degree > N.  Truncation is a property of the value: every arithmetic result
carries the weakest truncation of its inputs, so "order at least" answers
stay sound by construction.

Every CPolynomial keeps one invariant: no coefficient is zero, every key
has two tuples of length nvars, and no key has total degree above the
truncation.  The public constructor establishes it by checking and
filtering its input.  Results of the type's own arithmetic are built by the
private ``_from_terms``, which checks nothing: each operation drops the
zeros its arithmetic can create and the keys above the result's truncation
itself, so the invariant holds for them by construction.  So are the
splits and filters whose terms are a subset of a valid polynomial's
(``graph_split``, ``pure_mixed_split``, ``select``, ``truncate``),
``wirtinger``, a nonzero ``constant`` and powers.  Term products go
through one helper, ``_mul_terms``, shared by ``__mul__`` and the
multi-term images of ``substitute``; a power of a single term is a term
move (``_term_move``), with no product formed.

Two exact operands take a branch of ``__add__`` that adds their term maps
as they are, with no truncation bookkeeping.  ``__add__`` and
``_mul_terms`` drop the keys whose sum cancels only when a sum did cancel,
and ``_mul_terms`` skips the scalar products of a left coefficient of 1;
``scale`` and ``is_real_valued`` read the scalars' fields; and a real
scalar is its own conjugate.  A scalar prints (``__str__``,
expr.format_coefficient) from its fields.  These are the operations that
parsing and framing run, so they are the fixed cost of every command.

``weighted_square_terms`` sums w * f * conj(f) over the squares of a
Gram certificate in the same raw arithmetic as ``substitute``
(``_add_weighted_square`` into ``_add_raw``), with one gcd per key of the
sum, so a certificate is checked without forming a polynomial product.

``substitute`` composes with images in full, in Python-int Gaussian
arithmetic: one accumulator of unreduced sums (``_add_raw``), reduced by
one gcd per key of the result.  An image with at most one term acts as a
term map (``_term_move``): it moves each term to one key and scales its
coefficient, with no product formed.  Only the images with two or more
terms are raised to powers and multiplied out (``_multi_products``), as
plain term dicts.  The keys come in the order in which multiplying out
every image power as a polynomial, term by term, first forms them, which
``initial_rows``, the jet-extension DFS and the printers rely on.  Its
truncation comes from ``_substitution_limit``.

The lowest slice of a substitution by one-variable holomorphic images is
read off their leading terms alone, in two public steps, which every
reader of a leading slice shares (curve.leading_rows): ``initial_rows``
picks the terms of least weighted degree under the leading exponents of
the images and groups their rows by the bidegree they land on, reading a
``term_table`` of the polynomial, which a search forms once and
curve.pullback_lowest once per call; one helper, ``_key_sum``, sums the
leading products of one group for given leading coefficients, in
Python-int Gaussian arithmetic over a common denominator, into an
unreduced (x, y, den).  It takes each power of a leading coefficient from
a memo that the caller owns, keyed by the lead's fields and exponents, so
a search forms each power once.  Three readers share it:
``initial_coefficients`` (the reduced slice, for pullback_lowest),
``slice_vanishes`` (for the type searches) and ``slice_positive_at`` (for
the positivity search); the last two decide from the unreduced sums and
build no scalar.  ``initial_form`` gives the terms grouped at one
bidegree as the polynomial in the leading coefficients that they form,
such as the balanced coefficient at ``balanced_key(d)``, which the type
searches certify.  ``composite_truncation`` is the part of
``_substitution_limit`` that comes from the polynomial alone, all of it
for exact images.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul
from typing import Mapping, NamedTuple, Sequence


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
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return ONE if out is None else out

    def conjugate(self) -> "GaussianRational":
        """The conjugate; a real scalar is its own, and is returned as it is."""
        return _make(self._a, -self._b, self._d) if self._b else self

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def is_positive_real(self) -> bool:
        """Real and > 0, read off the fields: the denominator is positive."""
        return not self._b and self._a > 0

    def __str__(self) -> str:
        """The canonical parseable form (expr.format_coefficient), read off
        the fields: a real value as its reduced fraction, i or -i, q*i for
        an imaginary value, and (p+q*i) or (p-q*i) otherwise."""
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio(a, d)
        if not a:
            if b == d:
                return "i"
            if b == -d:
                return "-i"
            return _ratio(b, d) + "*i"
        mag = -b if b < 0 else b
        imag = "i" if mag == d else _ratio(mag, d) + "*i"
        return f"({_ratio(a, d)}{'+' if b > 0 else '-'}{imag})"


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


def _ratio(x: int, d: int) -> str:
    """str(Fraction(x, d)) for d > 0: x/d in lowest terms, or its integer."""
    if d != 1:
        g = gcd(x, d)
        if g != 1:
            x, d = x // g, d // g
        if d != 1:
            return f"{x}/{d}"
    return str(x)


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


class Order(NamedTuple):
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
        if nvars < 1:
            raise ValueError("nvars must be positive")
        if value.is_zero():
            return _from_terms(nvars, {}, None)
        return _from_terms(nvars, {((0,) * nvars, (0,) * nvars): value}, None)

    @staticmethod
    def one(nvars: int) -> "CPolynomial":
        return CPolynomial.constant(nvars, ONE)

    @staticmethod
    def variable(nvars: int, index: int, anti: bool = False) -> "CPolynomial":
        """The single variable z_index (0-based) or its conjugate: one shared
        polynomial per (nvars, index, anti), formed on first request (values
        are immutable)."""
        found = _VARIABLES.get((nvars, index, bool(anti)))
        if found is not None:
            return found
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        key = ((0,) * nvars, tuple(exp)) if anti else (tuple(exp), (0,) * nvars)
        found = _VARIABLES[(nvars, index, bool(anti))] = _from_terms(nvars, {key: ONE}, None)
        return found

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
        return max([sum(h) + sum(a) for h, a in self.terms], default=0)

    def order_of_vanishing(self) -> Order:
        if self.terms:
            return Order.exact(min(key_degree(k) for k in self.terms))
        if self.truncation is None:
            return Order.zero()
        return Order.at_least(self.truncation + 1)

    def is_real_valued(self) -> bool:
        """True iff conjugation reproduces the same term map: each term's
        conjugate key holds its conjugate coefficient, whose canonical
        fields are (a, -b, d), so the fields are compared and no scalar is
        formed."""
        terms = self.terms
        for (h, a), c in terms.items():
            other = terms.get((a, h))
            if other is None or other._a != c._a or other._b != -c._b or other._d != c._d:
                return False
        return True

    def sorted_terms(self):
        """Terms in graded-lex order; the canonical listing."""
        return sorted(self.terms.items(), key=lambda kv: key_sort(kv[0]))

    def constant_term(self) -> GaussianRational:
        return self.coeff(((0,) * self.nvars, (0,) * self.nvars))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "CPolynomial") -> "CPolynomial":
        """Exact operands add their term maps as they are; a jet operand
        first loses the terms above the weaker truncation.  The keys of
        self come first, then the new keys of other, in their order, and
        a key whose sum cancels is dropped."""
        if self.nvars != other.nvars:
            raise DimensionError(f"operands have nvars {self.nvars} and {other.nvars}")
        if self.truncation is None and other.truncation is None:
            limit = None
            out = self.terms.copy()
            right = other.terms
        else:
            limit = _min_trunc(self.truncation, other.truncation)
            out = dict(_within(self, limit))
            right = _within(other, limit)
        cancel = False
        for key, coeff in right.items():
            old = out.get(key)
            if old is None:
                out[key] = coeff
            else:
                coeff = out[key] = old + coeff
                cancel = cancel or coeff.is_zero()
        return _from_terms(self.nvars, _nonzero(out) if cancel else out, limit)

    def __sub__(self, other: "CPolynomial") -> "CPolynomial":
        return self + (-other)

    def __neg__(self) -> "CPolynomial":
        return _from_terms(
            self.nvars, {k: -c for k, c in self.terms.items()}, self.truncation
        )

    def __mul__(self, other: "CPolynomial") -> "CPolynomial":
        if self.nvars != other.nvars:
            raise DimensionError(f"operands have nvars {self.nvars} and {other.nvars}")
        limit = _min_trunc(self.truncation, other.truncation)
        return _from_terms(self.nvars, _mul_terms(self.terms, other.terms, limit), limit)

    def scale(self, c: GaussianRational) -> "CPolynomial":
        """c * self: each coefficient times c, as GaussianRational.__mul__
        forms it, on the fields."""
        if c.is_zero():
            terms = {}
        else:
            p, q, d = c._a, c._b, c._d
            terms = {k: _normal(v._a * p - v._b * q, v._a * q + v._b * p, v._d * d)
                     for k, v in self.terms.items()}
        return _from_terms(self.nvars, terms, self.truncation)

    def __pow__(self, k: int) -> "CPolynomial":
        """self^k by repeated squaring; a single term c * z^H * conj(z)^A
        is moved to k*(H, A) with coefficient c^k (``_term_move``), which is
        what the squarings give, with no product formed."""
        if k < 0:
            raise ValueError("negative polynomial power")
        if k and len(self.terms) == 1:
            hol, anti, deg, u, v, w = _term_move(self, k, 0)
            limit = self.truncation
            terms = {} if limit is not None and deg > limit else {(hol, anti): _make(u, v, w)}
            return _from_terms(self.nvars, terms, limit)
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        if out is None:
            zero = (0,) * self.nvars
            return _from_terms(self.nvars, {(zero, zero): ONE}, self.truncation)
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
        return _from_terms(
            self.nvars,
            {(a, h): c.conjugate() for (h, a), c in self.terms.items()},
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
        # A term of degree D <= N differentiates to degree D - 1 <= N - 1, and
        # e > 0 keeps its coefficient nonzero.
        trunc = None if self.truncation is None else max(self.truncation - 1, 0)
        return _from_terms(self.nvars, out, trunc)

    def pure_mixed_split(self) -> tuple["CPolynomial", "CPolynomial"]:
        """Split into (pure, mixed); the constant term goes to the pure part."""
        return self.graph_split()[:2]

    def graph_split(self) -> tuple["CPolynomial", "CPolynomial", "CPolynomial",
                                   "CPolynomial | None"]:
        """(pure, mixed, h, g) in one pass over the terms: the split of
        ``pure_mixed_split``, h the holomorphic part of pure (its terms of
        positive degree with no antiholomorphic exponent), and g the mixed
        terms with the last slot dropped, in nvars - 1 variables, or None
        when nvars < 2 or a mixed term has an exponent in the last slot.
        Each keeps the order of the terms and self's truncation."""
        n = self.nvars
        zero = (0,) * n
        last = n - 1
        pure: dict = {}
        mixed: dict = {}
        h: dict = {}
        g: dict | None = {} if n >= 2 else None
        for key, coeff in self.terms.items():
            hol, anti = key
            if anti == zero:
                pure[key] = coeff
                if hol != zero:
                    h[key] = coeff
            elif hol == zero:
                pure[key] = coeff
            else:
                mixed[key] = coeff
                if g is not None:
                    if hol[last] or anti[last]:
                        g = None
                    else:
                        g[(hol[:last], anti[:last])] = coeff
        trunc = self.truncation
        return (_from_terms(n, pure, trunc), _from_terms(n, mixed, trunc), _from_terms(n, h, trunc),
                None if g is None else _from_terms(last, g, trunc))

    def select(self, keep) -> "CPolynomial":
        """The terms whose key keep(key) accepts, with self's truncation; a
        subset of the terms holds the invariant, so nothing is checked."""
        out = {key: c for key, c in self.terms.items() if keep(key)}
        return _from_terms(self.nvars, out, self.truncation)

    def truncate(self, k: int) -> "CPolynomial":
        """Drop terms of total degree > k; result carries jet order k."""
        if k < 0:
            raise ValueError("truncation order must be non-negative")
        out = {key: c for key, c in self.terms.items() if key_degree(key) <= k}
        return _from_terms(self.nvars, out, _min_trunc(self.truncation, k))

    def homogeneous_slice(self, d: int) -> "CPolynomial":
        out = {key: c for key, c in self.terms.items() if sum(key[0]) + sum(key[1]) == d}
        return _from_terms(self.nvars, out, self.truncation)

    def substitute(
        self, images: Sequence["CPolynomial"], nvars_out: int
    ) -> "CPolynomial":
        """Compose: z_i receives images[i], conj(z_i) receives its conjugate.

        The antiholomorphic part of the result is the conjugate of the
        substitution by construction, so real-valued inputs stay real-valued.

        The result is a jet of order ``limit``, given by
        ``_substitution_limit`` (None when self and every image it involves
        are exact).  An image with at most one term, c_i * z^H_i *
        conj(z)^A_i, acts as a term map (``_term_move``): it moves z_i^e *
        conj(z_i)^f to the key e*(H_i, A_i) + f*(A_i, H_i) and multiplies
        by c_i^e * conj(c_i)^f, once per (i, e, f), and a term that involves
        an image with no term contributes nothing.  With M_e the product of
        images[i]^e[i] over the images with two or more terms, each term
        coeff * z^h * conj(z)^a of self adds its moved coefficient times
        M_h * conj(M_a), in the order of M_h's terms and then of
        conj(M_a)'s, to one accumulator of unreduced Python-int sums
        (``_add_raw``), reduced by one gcd per key at the end, when the
        keys that cancel are dropped.  Each power is formed once per (i, e)
        by ``__pow__``, each M_e once per e and each conjugate once per a,
        held as term dicts; products above ``limit`` are never formed.
        Multiplying by a single term keeps the order of the terms it
        multiplies, so the keys come in the order in which the composition
        of every image power as a polynomial, term by term, first forms
        them.
        """
        if len(images) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} images, got {len(images)}"
            )
        for im in images:
            if im.nvars != nvars_out:
                raise DimensionError("image variable counts disagree")

        limit = _substitution_limit(self, images)
        if not self.terms:
            return _from_terms(nvars_out, {}, limit)
        singles = [i for i, im in enumerate(images) if len(im.terms) < 2]
        multi = [i for i, im in enumerate(images) if len(im.terms) > 1]
        if multi:
            product, conjugate_rows = _multi_products(images, multi, limit)
        zero = (0,) * nvars_out
        moves: dict = {}
        out: dict = {}
        for (h, a), coeff in self.terms.items():
            x, y, den = coeff._a, coeff._b, coeff._d
            hol = anti = zero
            deg = 0
            for i in singles:
                e, f = h[i], a[i]
                if e or f:
                    move = moves.get((i, e, f))
                    if move is None:
                        move = moves[(i, e, f)] = _term_move(images[i], e, f)
                    if not move:
                        break
                    mh, ma, md, u, v, w = move
                    if deg:  # hol and anti are zero while deg is
                        mh, ma = tuple(map(add, hol, mh)), tuple(map(add, anti, ma))
                    hol, anti, deg = mh, ma, deg + md
                    x, y, den = x * u - y * v, x * v + y * u, den * w
            else:
                if limit is not None and deg > limit:
                    continue
                if not multi:
                    _add_raw(out, (hol, anti), x, y, den)
                    continue
                right = conjugate_rows(tuple(a[i] for i in multi))
                for (lh, la), c in product(tuple(h[i] for i in multi)).items():
                    ldeg = deg + sum(lh) + sum(la)
                    if limit is not None and ldeg > limit:
                        continue
                    u, v, w = c._a, c._b, c._d
                    p, q, r = x * u - y * v, x * v + y * u, den * w
                    kh, ka = tuple(map(add, hol, lh)), tuple(map(add, anti, la))
                    for rh, ra, rd, u, v, w in right:
                        if limit is not None and ldeg + rd > limit:
                            continue
                        _add_raw(out, (tuple(map(add, kh, rh)), tuple(map(add, ka, ra))),
                                 p * u - q * v, p * v + q * u, r * w)
        return _from_terms(nvars_out, {k: _normal(x, y, den) for k, (x, y, den)
                                       in out.items() if x or y}, limit)

    def composite_truncation(self, order: int | None) -> int | None:
        """The truncation that self alone gives a substitution whose nonzero
        images vanish to least order ``order`` (None when every image is
        zero): its unknown terms, of degree > truncation, may involve any
        variable, so they reach only degrees >= (truncation + 1) * order.
        None when self is exact."""
        if self.truncation is None or order is None:
            return None
        if order == 0:
            raise TruncationError(
                "cannot soundly substitute images with constant terms "
                "into a jet-truncated polynomial"
            )
        return (self.truncation + 1) * order - 1


def term_table(p: CPolynomial) -> tuple:
    """The terms of p as ``initial_rows`` reads them, formed once for a
    polynomial that is read under many weights, such as one search: per
    term coeff * z^h * conj(z)^a, (s, mask, h, row), where s = h + a is
    its support, mask has bit i set when s_i > 0, and row is (x, y, den,
    slots): coeff = (x + y*i)/den in its raw fields, and slots lists (i, h_i,
    a_i) for the indices with h_i or a_i nonzero, the only factors its
    leading product has.  The rows are in the layout that the slice readers
    sum."""
    table = []
    for (h, a), coeff in p.terms.items():
        s = tuple(map(add, h, a))
        slots, mask = [], 0
        for i, x in enumerate(s):
            if x:
                slots.append((i, h[i], a[i]))
                mask |= 1 << i
        table.append((s, mask, h, (coeff._a, coeff._b, coeff._d, tuple(slots))))
    return tuple(table)


def initial_rows(table: tuple, mu: Sequence[int], dead: int) -> "tuple[int, dict] | None":
    """The terms of a polynomial, given by its ``term_table``, that make up
    the lowest slice of a substitution by one-variable holomorphic images
    whose lowest terms are c_i * t^mu_i; dead has bit i set for each image
    with no term, whose entry in mu does not matter.

    A term coeff * z^h * conj(z)^a substitutes to coeff * prod c_i^h_i *
    conj(c_i)^a_i * t^(h.mu) * conj(t)^(a.mu) plus terms of higher degree;
    its weighted degree is (h + a).mu, one dot product with its support.  A
    term that involves an image with no term is skipped: an exact zero
    contributes nothing, and a jet zero contributes only above its
    truncation.  The result is (d, rows): d is the least weighted degree,
    and rows holds the rows of the terms of that degree grouped by the
    bidegree key = ((h.mu,), (a.mu,)) they land on, in first-seen order.
    It is None when no term is left.  It depends on the images only through
    mu, so a search over coefficients reads it once per exponent tuple.
    """
    best = None
    for s, mask, h, row in table:
        if mask & dead:
            continue
        deg = sum(map(mul, s, mu))
        if best is None or deg < best:
            best, least = deg, [(h, row)]
        elif deg == best:
            least.append((h, row))
    if best is None:
        return None
    rows: dict = {}
    for h, row in least:
        hol = sum(map(mul, h, mu))
        key = ((hol,), (best - hol,))
        group = rows.get(key)
        if group is None:
            rows[key] = [row]
        else:
            group.append(row)
    return best, rows


def balanced_key(d: int):
    """The balanced bidegree ((d/2,), (d/2,)) of a slice of degree d, where
    the coefficient of |t|^d sits; for odd d, ((d-1)/2,) twice, a key of
    degree d - 1 on which no row of ``initial_rows`` lands."""
    return ((d // 2,), (d // 2,))


def initial_form(rows: dict, key, nvars: int) -> "CPolynomial | None":
    """The terms of the polynomial that ``initial_rows`` grouped at key, as
    the exact polynomial in nvars variables that they form: the same terms,
    in the same order, with the same coefficients.  Its value at the
    leading coefficients c, each z^h * conj(z)^a read as c^h * conj(c)^a,
    is the coefficient of the slice at key.  None when no row lands on
    key."""
    group = rows.get(key)
    if group is None:
        return None
    terms = {}
    for x, y, den, slots in group:
        h, a = [0] * nvars, [0] * nvars
        for i, e, f in slots:
            h[i], a[i] = e, f
        terms[(tuple(h), tuple(a))] = _make(x, y, den)
    return _from_terms(nvars, terms, None)


def _key_sum(group: list, coeffs: Sequence[GaussianRational], powers: dict):
    """The unreduced sum (x, y, den), den > 0, of coeff * prod coeffs[i]^e *
    conj(coeffs[i])^f over the rows of one key, so the sum is zero exactly
    when x and y are.  Each factor is looked up in powers, keyed by the
    lead's fields and (e, f), and formed by ``_lead_power`` on a miss:
    powers belongs to the caller, who keeps it for as long as the same
    leads recur, such as one search."""
    sx = None
    for x, y, den, slots in group:
        for i, e, f in slots:
            c = coeffs[i]
            k = (c._a, c._b, c._d, e, f)
            fac = powers.get(k)
            if fac is None:
                fac = powers[k] = _lead_power(*k)
            u, v, w = fac
            x, y, den = x * u - y * v, x * v + y * u, den * w
        if sx is None:
            sx, sy, sd = x, y, den
        elif sd == den:
            sx, sy = sx + x, sy + y
        else:
            sx, sy, sd = sx * den + x * sd, sy * den + y * sd, sd * den
    return sx, sy, sd


def initial_coefficients(rows: dict, coeffs: Sequence[GaussianRational],
                         powers: dict) -> dict:
    """The nonzero coefficients of the lowest slice that the rows of
    ``initial_rows`` give for images with lowest coefficients coeffs, by
    bidegree key: the sum of coeff * prod coeffs[i]^h_i *
    conj(coeffs[i])^a_i over the rows at that key.  Empty when the slice
    cancels.  Only a nonzero sum is reduced to a GaussianRational; powers is
    the caller's memo of ``_key_sum``."""
    out = {}
    for key, group in rows.items():
        x, y, den = _key_sum(group, coeffs, powers)
        if x or y:
            out[key] = _normal(x, y, den)
    return out


def slice_vanishes(rows: dict, coeffs: Sequence[GaussianRational], powers: dict) -> bool:
    """Whether the slice of ``initial_coefficients`` cancels at every key,
    read off the unreduced sums."""
    for group in rows.values():
        x, y, _den = _key_sum(group, coeffs, powers)
        if x or y:
            return False
    return True


def slice_positive_at(rows: dict, key, coeffs: Sequence[GaussianRational],
                      powers: dict) -> bool:
    """Whether the slice of ``initial_coefficients`` is real and > 0 at key,
    read off the unreduced sum: its denominator is positive."""
    group = rows.get(key)
    if group is None:
        return False
    x, y, _den = _key_sum(group, coeffs, powers)
    return not y and x > 0


def slice_torus_positive(rows: dict, key) -> bool:
    """Whether the slice of ``initial_coefficients`` is real and > 0 at key
    for all leading coefficients that are nonzero in every slot, read off
    the rows alone: key holds a single row, its coefficient is real and > 0,
    and h_i = a_i in each of its slots, so its leading product coeff * prod
    c_i^h_i * conj(c_i)^h_i = coeff * prod |c_i|^(2 h_i) is > 0.  False
    proves nothing."""
    group = rows.get(key)
    if group is None or len(group) != 1:
        return False
    (x, y, _den, slots), = group
    return not y and x > 0 and all(e == f for _i, e, f in slots)


def _lead_power(p: int, q: int, d: int, e: int, f: int) -> tuple[int, int, int]:
    """(p + q*i)^e * (p - q*i)^f / d^(e + f) as an unreduced triple (a, b,
    d^(e + f)): the norm p^2 + q^2 to the power min(e, f), times the
    remaining |e - f| factors of p + q*i (or of its conjugate if f > e)."""
    if f > e:
        q = -q
    x, y = (p * p + q * q) ** min(e, f), 0
    for _ in range(abs(e - f)):
        x, y = x * p - y * q, x * q + y * p
    return x, y, d ** (e + f)


_VARIABLES: dict[tuple[int, int, bool], CPolynomial] = {}
_set_nvars = CPolynomial.nvars.__set__
_set_terms = CPolynomial.terms.__set__
_set_truncation = CPolynomial.truncation.__set__


def _from_terms(nvars: int, terms: dict, truncation: int | None) -> CPolynomial:
    """A CPolynomial over terms that already hold its invariant: no zero
    coefficient, keys of length nvars, no key of degree above truncation.
    Nothing is checked; only the type's own arithmetic may call this."""
    p = _new(CPolynomial)
    _set_nvars(p, nvars)
    _set_terms(p, terms)
    _set_truncation(p, truncation)
    return p


def _substitution_limit(p: CPolynomial, images: Sequence[CPolynomial]) -> int | None:
    """The truncation of p.substitute(images, ...): the one p gives it
    (``composite_truncation``, from the least order of the images), lowered
    to the truncation of every jet image that p involves; None when p and
    every image it involves are exact."""
    limit: int | None = None
    if p.truncation is not None:
        orders = [im.order_of_vanishing() for im in images]
        limit = p.composite_truncation(
            min((o.value for o in orders if o.kind != "zero"), default=None))
    jets = [i for i, im in enumerate(images) if im.truncation is not None]
    if jets:
        used = set()
        for (h, a) in p.terms:
            used.update(i for i in jets if h[i] or a[i])
        for i in used:
            limit = _min_trunc(limit, images[i].truncation)
    return limit


def _mul_terms(left: Mapping, right: Mapping, limit: int | None) -> dict:
    """The terms of the product of left and right, cut at limit: the sum of
    every product of a left and a right term of degree <= limit (all of
    them if limit is None), keyed in the order in which the products first
    form the keys, less the keys that cancel."""
    out: dict = {}
    cancel = False
    rows = [(h, a, sum(h) + sum(a), c) for (h, a), c in right.items()]
    for (h1, a1), c1 in left.items():
        room = None if limit is None else limit - sum(h1) - sum(a1)
        one = c1 == ONE  # then c1 * c2 is c2, which is immutable
        for h2, a2, d2, c2 in rows:
            if room is not None and d2 > room:
                continue
            key = (tuple(map(add, h1, h2)), tuple(map(add, a1, a2)))
            prod = c2 if one else c1 * c2
            old = out.get(key)
            if old is None:
                out[key] = prod
            else:
                prod = out[key] = old + prod
                cancel = cancel or prod.is_zero()
    return _nonzero(out) if cancel else out


def _multi_products(images: Sequence[CPolynomial], multi: list, limit: int | None):
    """The products M_e of images[i]^e[i] over the indices i in multi, for
    ``CPolynomial.substitute``, as two memoised lookups on exponent tuples
    e over multi: product(e), the terms of M_e, and conjugate_rows(e), the
    terms of conj(M_e) as rows (hol, anti, degree, x, y, den) of raw
    fields.  Each power is formed once per (i, e) by ``CPolynomial.__pow__``
    and cut at limit, and the powers are multiplied in index order by
    ``_mul_terms``; both are held as plain term dicts, and no term above
    limit is formed."""
    zero = (0,) * images[multi[0]].nvars
    one = {(zero, zero): ONE}
    powers: dict = {}
    products: dict = {}
    conjugates: dict = {}

    def power(i: int, e: int) -> dict:
        terms = powers.get((i, e))
        if terms is None:
            p = images[i] ** e
            if limit is not None and (p.truncation is None or p.truncation > limit):
                p = p.truncate(limit)
            terms = powers[(i, e)] = p.terms
        return terms

    def product(exps: tuple) -> dict:
        terms = products.get(exps)
        if terms is None:
            terms = one
            for i, e in zip(multi, exps):
                if e:
                    if terms is one:
                        terms = power(i, e)
                    else:
                        terms = _mul_terms(terms, power(i, e), limit)
            products[exps] = terms
        return terms

    def conjugate_rows(exps: tuple) -> list:
        rows = conjugates.get(exps)
        if rows is None:
            rows = conjugates[exps] = [(a, h, sum(h) + sum(a), c._a, -c._b, c._d)
                                       for (h, a), c in product(exps).items()]
        return rows

    return product, conjugate_rows


def _term_move(image: CPolynomial, e: int, f: int) -> tuple:
    """What the image with at most one term, c * z^H * conj(z)^A, makes of
    z_i^e * conj(z_i)^f: (hol, anti, degree, u, v, w) with key (hol, anti)
    = e*(H, A) + f*(A, H) of that degree and c^e * conj(c)^f = (u + v*i)/w
    in its fields; () when the image has no term."""
    if not image.terms:
        return ()
    ((hc, ac), c), = image.terms.items()
    deg = sum(hc) + sum(ac)
    if e + f == 1:
        return (hc, ac, deg, c._a, c._b, c._d) if e else (ac, hc, deg, c._a, -c._b, c._d)
    hol = tuple([e * x + f * y for x, y in zip(hc, ac)])
    anti = tuple([e * y + f * x for x, y in zip(hc, ac)])
    if c._b or c._a != 1 or c._d != 1:  # c is not 1
        c = c ** e * c.conjugate() ** f if f else c ** e
    return (hol, anti, (e + f) * deg, c._a, c._b, c._d)


def _add_raw(out: dict, key, x: int, y: int, den: int) -> None:
    """Add (x + y*i)/den, den > 0, to the unreduced sum (x, y, den) at key,
    over the least common denominator."""
    old = out.get(key)
    if old is None:
        out[key] = (x, y, den)
        return
    sx, sy, sd = old
    if sd == den:
        out[key] = (sx + x, sy + y, sd)
    else:
        g = gcd(sd, den)
        m, n = den // g, sd // g
        out[key] = (sx * m + x * n, sy * m + y * n, sd * m)


def weighted_square_terms(squares) -> dict:
    """The terms of the sum of w * f * conj(f) over the pairs (w, f) of
    squares, w a Fraction: every product of a term of f and a term of
    conj(f), scaled by w, goes into one accumulator of unreduced Python-int
    sums (``_add_weighted_square``), reduced by one gcd per key at the end,
    when the keys that cancel are dropped."""
    out: dict = {}
    for w, f in squares:
        _add_weighted_square(out, w.numerator, w.denominator, f.terms)
    return {k: _normal(x, y, den) for k, (x, y, den) in out.items() if x or y}


def _add_weighted_square(out: dict, p: int, q: int, terms: Mapping) -> None:
    """Add (p/q) * f * conj(f), q > 0, for the f with these terms, to the
    unreduced sums of out (``_add_raw``): the term c1 * z^h1 * conj(z)^a1
    times the conjugate of c2 * z^h2 * conj(z)^a2 lands on (h1 + a2, a1 +
    h2) with coefficient c1 * conj(c2)."""
    rows = [(h, a, c._a, c._b, c._d) for (h, a), c in terms.items()]
    for h1, a1, x1, y1, d1 in rows:
        for h2, a2, x2, y2, d2 in rows:
            _add_raw(out, (tuple(map(add, h1, a2)), tuple(map(add, a1, h2))),
                     p * (x1 * x2 + y1 * y2), p * (y1 * x2 - x1 * y2), q * d1 * d2)


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c._a or c._b}


def _within(p: CPolynomial, limit: int | None) -> Mapping:
    """The terms of p of degree <= limit, for a limit that is p's truncation
    or lower (so None only when p is exact)."""
    if p.truncation == limit:
        return p.terms
    return {k: c for k, c in p.terms.items() if key_degree(k) <= limit}


def _min_trunc(a: int | None, b: int | None) -> int | None:
    """Min of two truncation orders, with None acting as infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)

