"""Holomorphic curve jets, pullbacks, contact orders, and the single-curve
positivity test.

A curve is an n-tuple of one-variable holomorphic polynomials in t with zero
constant term.  Conjugate images are always derived from the components, so
non-holomorphic curves are unrepresentable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    CPolynomial,
    DimensionError,
    GaussianRational,
    Order,
)


class ConstantCurveError(ValueError):
    """All components are zero; the curve germ must be nonconstant."""


class ZeroBelowTruncationError(ValueError):
    """The polynomial vanishes below its jet order; no profile exists."""


class InsufficientJetError(ValueError):
    """The jet order is too low for the requested derivative."""


def _as_component(p: CPolynomial) -> CPolynomial:
    if p.nvars != 1:
        raise DimensionError("curve components must be one-variable polynomials")
    for (h, a) in p.terms:
        if a[0] != 0:
            raise ValueError("curve components must be holomorphic")
        if h[0] == 0:
            raise ValueError("curve components must vanish at t = 0")
    return p


@dataclass(frozen=True)
class CurveJet:
    """A nonconstant holomorphic map germ (C,0) -> (C^n,0)."""

    components: tuple[CPolynomial, ...]

    def __post_init__(self):
        if not self.components:
            raise ConstantCurveError("curve must have at least one component")
        for c in self.components:
            _as_component(c)
        if all(c.is_zero() for c in self.components):
            raise ConstantCurveError("curve is identically zero")

    @staticmethod
    def from_coeffs(
        coeffs: Sequence[dict[int, GaussianRational]],
        truncation: int | None = None,
    ) -> "CurveJet":
        comps = []
        for cd in coeffs:
            terms = {((d,), (0,)): c for d, c in cd.items() if d > 0}
            comps.append(CPolynomial(1, terms, truncation))
        return CurveJet(tuple(comps))

    @staticmethod
    def monomial(
        exponents: Sequence[int],
        coeffs: Sequence[GaussianRational],
    ) -> "CurveJet":
        """Curve with components coeffs[i] * t^exponents[i] (0 exponent = zero)."""
        return CurveJet.from_coeffs([
            {e: c} if e > 0 and not c.is_zero() else {}
            for e, c in zip(exponents, coeffs, strict=True)
        ])

    @property
    def nvars(self) -> int:
        return len(self.components)

    @property
    def truncation(self) -> int | None:
        return min((c.truncation for c in self.components
                    if c.truncation is not None), default=None)

    def multiplicity(self) -> int:
        """Min order of vanishing across components; 1 means regular."""
        orders = [
            c.order_of_vanishing().value
            for c in self.components
            if not c.is_zero()
        ]
        return min(orders)

    def is_regular(self) -> bool:
        return self.multiplicity() == 1

    def coefficient(self, comp: int, degree: int) -> GaussianRational:
        return self.components[comp].coeff((((degree,), (0,))))

    def coefficient_vector(self, degree: int) -> tuple[GaussianRational, ...]:
        return tuple(self.coefficient(i, degree) for i in range(self.nvars))

    def derivative_vector(self, j: int) -> tuple[GaussianRational, ...]:
        """j-th derivative at 0, computed exactly as j! times the t^j coefficient."""
        fact = 1
        for s in range(2, j + 1):
            fact *= s
        f = GaussianRational(fact)
        return tuple(c * f for c in self.coefficient_vector(j))

    def reparametrize(self, lam: GaussianRational) -> "CurveJet":
        """The curve t -> z(lam * t) for a nonzero Gaussian rational lam."""
        if lam.is_zero():
            raise ValueError("reparametrization factor must be nonzero")
        comps = []
        for c in self.components:
            terms = {key: coeff * lam ** key[0][0] for key, coeff in c.terms.items()}
            comps.append(CPolynomial(1, terms, c.truncation))
        return CurveJet(tuple(comps))

    def __str__(self) -> str:
        from .expr import format_curve

        return format_curve(self)


def pullback(p: CPolynomial, z: CurveJet) -> CPolynomial:
    """The composite t -> p(z(t)) as a polynomial in (t, conj(t))."""
    if p.nvars != z.nvars:
        raise DimensionError(
            f"polynomial has {p.nvars} variables, curve has {z.nvars}"
        )
    return p.substitute(list(z.components), 1)


def pullback_lowest(p: CPolynomial, z: CurveJet) -> CPolynomial:
    """A pullback of p along z with the same order of vanishing and the same
    lowest homogeneous slice as pullback(p, z); higher terms may be cut off.

    Soundness.  Let z' be z with every component marked as a jet of order
    L = 4*mult(z) + 1.  A term of degree > L that z' drops from a component
    only reaches terms of degree > L of the pullback, and substitute records
    a truncation T <= L for pullback(p, z') when p involves a variable (and
    none for a constant p); z(0) = 0 keeps that sound when p is itself a jet.
    So every term of pullback(p, z') of degree <= T is the term of
    pullback(p, z).  Hence if pullback(p, z') has a term, its lowest one is
    the lowest term of pullback(p, z): the order and lowest slice are exact.
    If it has none, the exact pullback vanishes to order > T and this
    returns pullback(p, z) itself, so "zero" and "at_least" orders come out
    as that call gives them.

    Cost.  The cap sits just above order 4*mult(z), contact ratio 4, which
    the type searches probe; almost every candidate meets it below the cap
    and skips the terms up to degree deg(p)*deg(z) of the exact pullback.
    """
    cap = 4 * z.multiplicity() + 1
    u = pullback(p, CurveJet(tuple(c.truncate(cap) for c in z.components)))
    if u.terms:
        return u
    return pullback(p, z)


def contact_order(
    r: CPolynomial, z: CurveJet
) -> tuple[Order, Fraction | None]:
    """Order of vanishing of the pullback and the exact ratio order/mult.

    The ratio is None unless the order is exact; an identically zero exact
    pullback gives (Order.zero(), None) meaning infinite contact.
    """
    order = pullback_lowest(r, z).order_of_vanishing()
    ratio = None
    if order.kind == "exact":
        ratio = Fraction(order.value, z.multiplicity())
    return order, ratio


@dataclass(frozen=True)
class LowestTermProfile:
    """The minimal-degree homogeneous slice of a real-valued (t, tbar) polynomial.

    coefficients[j] is the coefficient of t^j tbar^(order-j); when the order
    2k is even, ck is the balanced coefficient c_k (the circle average of the
    angular profile), which is real by conjugate symmetry.
    """

    order: int
    coefficients: tuple[GaussianRational, ...]
    is_even: bool
    ck: Fraction | None


def lowest_term_profile(u: CPolynomial) -> LowestTermProfile:
    if u.nvars != 1:
        raise DimensionError("profile requires a one-variable polynomial")
    order = u.order_of_vanishing()
    if order.kind != "exact":
        raise ZeroBelowTruncationError(
            "polynomial vanishes below its truncation; no lowest slice"
        )
    d = order.value
    coeffs = tuple(u.coeff(((j,), (d - j,))) for j in range(d + 1))
    is_even = d % 2 == 0
    ck = None
    if is_even:
        mid = coeffs[d // 2]
        # Conjugate symmetry of a real-valued polynomial forces a real middle
        # coefficient; keep it as an exact Fraction.
        if mid.im != 0:
            raise ValueError("balanced coefficient of a real-valued slice must be real")
        ck = mid.re
    return LowestTermProfile(d, coeffs, is_even, ck)


@dataclass(frozen=True)
class PSTestResult:
    """Outcome of the positivity test for one curve.

    status is one of "pass", "fail_odd", "fail_nonpositive", "infinite",
    "indeterminate".  An identically zero exact pullback is "infinite": the
    positivity property only constrains pullbacks that vanish to finite
    order, so it is not a violation.
    """

    status: str
    order: Order
    ck: Fraction | None = None
    profile: LowestTermProfile | None = None

    @property
    def is_violation(self) -> bool:
        return self.status in ("fail_odd", "fail_nonpositive")


def ps_test_single(g: CPolynomial, z: CurveJet) -> PSTestResult:
    """Pull g back along z and test for even order with positive balanced term."""
    u = pullback_lowest(g, z)
    order = u.order_of_vanishing()
    if order.kind == "zero":
        return PSTestResult("infinite", order)
    if order.kind == "at_least":
        return PSTestResult("indeterminate", order)
    profile = lowest_term_profile(u)
    if not profile.is_even:
        return PSTestResult("fail_odd", order, None, profile)
    if profile.ck <= 0:
        return PSTestResult("fail_nonpositive", order, profile.ck, profile)
    return PSTestResult("pass", order, profile.ck, profile)


def laplacian_power(u: CPolynomial, k: int) -> GaussianRational:
    """Value at 0 of the k-th power of d/dt d/dtbar applied to u.

    For u with even lowest order 2k this equals (k!)^2 times the balanced
    coefficient of the lowest slice.
    """
    if u.nvars != 1:
        raise DimensionError("Laplacian powers act on one-variable polynomials")
    if u.truncation is not None and u.truncation < 2 * k:
        raise InsufficientJetError(
            f"jet order {u.truncation} is insufficient for {k} Laplacian passes"
        )
    out = u
    for _ in range(k):
        out = out.wirtinger(0, anti=False).wirtinger(0, anti=True)
    return out.constant_term()
