"""Holomorphic curve jets, pullbacks, contact orders, and the single-curve
positivity test.

A curve is an n-tuple of one-variable holomorphic polynomials in t with zero
constant term.  Conjugate images are always derived from the components, so
non-holomorphic curves are unrepresentable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import (
    ZERO,
    CPolynomial,
    DimensionError,
    GaussianRational,
    Order,
    initial_coefficients,
    initial_rows,
    term_table,
)


class ConstantCurveError(ValueError):
    """All components are zero; the curve germ must be nonconstant."""


class ZeroBelowTruncationError(ValueError):
    """The polynomial vanishes below its jet order; no profile exists."""


class InsufficientJetError(ValueError):
    """The jet order is too low for the requested derivative."""


@dataclass(frozen=True)
class CurveJet:
    """A nonconstant holomorphic map germ (C,0) -> (C^n,0)."""

    components: tuple[CPolynomial, ...]
    _multiplicity: int = field(init=False, repr=False, compare=False)
    _leading: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ConstantCurveError("curve must have at least one component")
        exps, lead = [], []
        for c in self.components:
            if c.nvars != 1:
                raise DimensionError("curve components must be one-variable polynomials")
            low, first = 0, ZERO
            for (h, a), coeff in c.terms.items():
                if a[0] != 0:
                    raise ValueError("curve components must be holomorphic")
                if h[0] == 0:
                    raise ValueError("curve components must vanish at t = 0")
                if not low or h[0] < low:
                    low, first = h[0], coeff
            exps.append(low)
            lead.append(first)
        if not any(exps):
            raise ConstantCurveError("curve is identically zero")
        object.__setattr__(self, "_multiplicity", min(filter(None, exps)))
        object.__setattr__(self, "_leading", (tuple(exps), tuple(lead)))

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
        return self._multiplicity

    def leading_terms(self) -> tuple[tuple[int, ...], tuple[GaussianRational, ...]]:
        """(exps, lead): component i starts with lead[i] * t^exps[i], and a
        zero component has exps[i] = 0 and lead[i] = ZERO, as in the
        search streams."""
        return self._leading

    def truncate(self, order: int) -> "CurveJet":
        """The curve with every component truncated at order; order must be
        at least the multiplicity, or no term is left."""
        return CurveJet(tuple(c.truncate(order) for c in self.components))

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

    Leading slice.  Let component i of z start with c_i * t^mu_i.  A term
    c * z^h * conj(z)^a of p pulls back to c * prod c_i^h_i * conj(c_i)^a_i
    * t^(h.mu) * conj(t)^(a.mu) plus terms of higher degree; a term that
    involves a zero component pulls back to zero and is left out.  So the
    pullback vanishes to at least the least weighted degree d of a term of
    p under the weights mu, and its degree-d slice is the sum S of the
    leading products of the terms of weighted degree d: the weighted order
    of contact of D'Angelo (Ann. Math. 115, 1982).  When S is nonzero it is
    the lowest slice of the pullback and d is its order.  For jets this
    holds only up to the truncation L that substitute gives pullback(p, z),
    since terms of p above its truncation, and terms of a jet component
    above its own, reach only degrees above L.  So S is accepted only when
    d <= L (L is None when p and z are exact).  For an exact z, whose
    leading exponents and coefficients CurveJet forms once, leading_rows
    and initial_coefficients give d and S, and S is returned as a jet of
    order d; a jet z goes straight to the capped pullbacks below, which are
    sound for any cap.

    Capped pullback.  When S cancels, the lowest surviving terms come from
    the later terms of the components, which only a substitution carries;
    when d > L, pullback(p, z) knows no term at degree d.  Both cases, and
    every jet z, take this path.  Let z' be z with every component marked
    as a jet of order C.  A term of degree > C that z' drops from a
    component only reaches terms of degree > C of the pullback, and
    substitute records a truncation T <= C for pullback(p, z') when p
    involves a variable (and none for a constant p); z(0) = 0 keeps that
    sound when p is itself a jet.  So every term of pullback(p, z') of degree <= T is the term of
    pullback(p, z).  Hence if pullback(p, z') has a term, its lowest one is
    the lowest term of pullback(p, z), whatever C is.  The cap starts at C
    = 4*mult(z) + 1 and, while pullback(p, z') has no term, grows to 2C + 1
    as long as that stays below half the reach of pullback(p, z): the
    degree deg(p)*deg(z) above which it has no term, lowered to
    p.composite_truncation(mult(z)) when p is a jet and to the truncation
    of z when z is one.  A cap nearer the reach costs much of what
    pullback(p, z) costs, so then this returns pullback(p, z) itself, and
    "zero" and "at_least" orders come out as that call gives them.

    Cost.  The leading slice costs integer work per term of p and per term
    of weighted degree d, and one scalar per nonzero coefficient of S.
    The searches read the same rows once per exponent tuple (leading_rows
    on one term_table of p per search, in typecalc._best_contact and
    germ.ps_search), decide each candidate from the unreduced sums with one
    memo of lead powers per search, and skip a tuple whose d lies above L,
    or that has no row, without building a curve, except where an exact
    p's first such curve pulls back to zero and ends a type search.  So
    their candidates come here when the slice cancels, and in ps_search
    also when it does not prove a pass (odd d, or a middle coefficient that
    is not positive).  The first cap sits just above order 4*mult(z),
    contact ratio 4, which the type searches probe, so a cancelling
    candidate that meets it below the cap skips the terms up to degree
    deg(p)*deg(z) of the exact pullback.  A higher order costs one capped
    pullback per doubling, each bounded by its cap, and the geometric sum
    stays within a small factor of the last one; an exact pullback of a
    high-order jet p, which forms every term up to its truncation, is
    formed only when no cap below half the reach finds a term.
    """
    if p.nvars != z.nvars:
        raise DimensionError(
            f"polynomial has {p.nvars} variables, curve has {z.nvars}"
        )
    if z.truncation is None:
        exps, lead = z.leading_terms()
        found = leading_rows(p, term_table(p), exps)
        if found is not None:
            d, rows = found
            s = initial_coefficients(rows, lead, {})
            if s:
                return CPolynomial(1, s, d)
    cap = 4 * z.multiplicity() + 1
    u = pullback(p, z.truncate(cap))
    if u.terms:
        return u
    reach = p.total_degree() * max(c.total_degree() for c in z.components)
    for limit in (p.composite_truncation(z.multiplicity()), z.truncation):
        if limit is not None:
            reach = min(reach, limit)
    cap = 2 * cap + 1
    while 2 * cap < reach:
        u = pullback(p, z.truncate(cap))
        if u.terms:
            return u
        cap = 2 * cap + 1
    return pullback(p, z)


def leading_rows(p: CPolynomial, table: tuple, exps: Sequence[int]) -> tuple[int, dict] | None:
    """The leading-slice rule of pullback_lowest for every exact curve whose
    component i starts with c_i * t^exps[i] (exps[i] = 0: component i is
    zero), computed once for all of them from table = term_table(p), which
    a search forms once and pullback_lowest once per curve: (d, rows) from
    algebra.initial_rows, rows grouped by bidegree, so that
    initial_coefficients(rows, c, powers) is the degree-d slice S of a
    curve with leading coefficients c, slice_vanishes and
    slice_positive_at read it without reducing a sum, and initial_form
    gives the polynomial in c at one bidegree.  When S is nonzero it is
    the lowest slice of the pullback and d its order.  This is the one
    reader of the leading slice of p; CurveJet.leading_terms gives a
    curve's exps and c.

    None when the rule decides no such curve: when no term of p survives
    the zero components, or when d lies above the truncation L =
    p.composite_truncation(mult) of the pullback.  Then every pullback
    along these curves has no term of degree <= L: it is identically zero
    (order "zero") when p is exact, and of order "at_least" when p is a
    jet.
    """
    dead = 0
    for i, e in enumerate(exps):
        if not e:
            dead |= 1 << i
    found = initial_rows(table, exps, dead)
    if found is None or p.truncation is None:
        return found
    if found[0] > p.composite_truncation(min(filter(None, exps))):
        return None
    return found


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


class LowestTermProfile(NamedTuple):
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


class PSTestResult(NamedTuple):
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
