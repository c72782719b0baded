"""Regular and singular contact-type computation with certificates, the
constructive desingularization of multiplicity-m curves with contact 4m, and
the inference rules combining positivity evidence with type facts.

All exact claims are backed by re-verifiable certificates: an exhibited
curve checked by exact pullback, or a jet-extension obstruction transcript.
Bounded searches only ever produce lower bounds, never wrong exact values.
Both types take their bounded lower bound from one contact search,
_best_contact, which reads the stream _candidates through one loop and keeps
curves of multiplicity 1 (regular type) or up to max_multiplicity (singular).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import ONE, ZERO, CPolynomial, GaussianRational
from .curve import CurveJet, contact_order, pullback, ps_test_single
from .germ import (
    DefiningFunction,
    GraphForm,
    PSCertificate,
    StabilizationReport,
    gram_certificate,
)
from .search import (
    SearchBudget,
    cancellation_scan_curves,
    monomial_curves,
    random_curves,
)


class ContactNotFourMError(ValueError):
    """The input curve does not have exact contact 4m for its multiplicity m."""


class PSViolationError(ValueError):
    """The positivity test fails along the input curve."""


class VerificationFailedError(RuntimeError):
    """A mandatory post-verification failed; no unverified output is returned."""


class CurveFrameError(ValueError):
    """The curve is not in the graph frame (last coordinate must be zero)."""


class ContradictoryEvidenceError(RuntimeError):
    """Inference rules produced incompatible claims; surfaced, never suppressed."""


@dataclass(frozen=True)
class TypeClaim:
    """A contact-type claim: exact value, sound lower bound, or infinite.

    value is an int for regular type and a Fraction for singular type.
    Exact claims carry both a witness curve and an obstruction transcript.
    """

    kind: str  # "exact" | "at_least" | "infinite"
    value: Fraction | int | None = None
    witness: CurveJet | None = None
    transcript: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.kind == "infinite":
            return "infinity"
        prefix = "" if self.kind == "exact" else ">="
        return f"{prefix}{self.value}"


# ---------------------------------------------------------------------------
# Gaussian-rational root extraction (exact, via factorization over Q(i))


def gaussian_common_roots(
    polys: list[dict[int, GaussianRational]],
) -> tuple[list[GaussianRational], bool]:
    """Common Gaussian-rational roots of nonzero univariate polynomials.

    Returns (roots, complete); complete is False when the common-root
    polynomial has irreducible factors of degree > 1 over Q(i), i.e. common
    roots exist outside the Gaussian rationals and the enumeration is only a
    partial list.
    """
    from sympy import Poly, QQ_I, Symbol

    x = Symbol("x")
    sym = [Poly.from_dict({(e,): QQ_I(c.re, c.im) for e, c in p.items()}, x, domain=QQ_I)
           for p in polys if p]
    if not sym:
        return [], True
    g = sym[0]
    for p in sym[1:]:
        g = g.gcd(p)
    if g.degree() == 0:
        return [], True
    complete = True
    roots: list[GaussianRational] = []
    for factor, _mult in g.factor_list()[1]:
        if factor.degree() == 1:
            c = factor.monic().rep.TC()  # the factor is x + c
            re, im = (Fraction(q.numerator, q.denominator) for q in (c.x, c.y))
            roots.append(-GaussianRational(re, im))
        elif factor.degree() > 1:
            complete = False
    roots.sort(key=lambda c: (c.re, c.im))
    return roots, complete


# ---------------------------------------------------------------------------
# Regular contact of a holomorphic ideal in two variables (jet extension DFS)


@dataclass
class _IdealContact:
    # min over generators of the t-order, maximized over curves; None if infinite
    value: int | None
    exact: bool
    witness: dict[int, GaussianRational] | None  # tail coefficients
    infinite: bool = False
    transcript: list[str] = field(default_factory=list)


def _merge(best: _IdealContact | None, sub: _IdealContact) -> _IdealContact:
    """The larger of two explored results.  It is exact only if both are: a
    maximum over branches is known only when every branch is.  An infinite
    result wins outright."""
    if best is None or sub.infinite:
        return sub
    exact = best.exact and sub.exact
    if sub.value > best.value:
        best = sub
    if best.exact and not exact:
        best.exact = False
        best.transcript.append("another explored branch gives only a lower "
                               "bound; claim degraded to a lower bound")
    return best


def _ideal_contact_pivot(fs: list[CPolynomial], pivot: int, cap: int) -> _IdealContact:
    """Max over curves z_pivot = t, z_other = w(t) of the min t-order of the
    holomorphic generators fs.

    Depth-first jet extension.  A node at tail degree d carries the
    generators already shifted, f(t, w(t) + s) with t the pivot variable, s
    the other one and w the tail fixed so far (degrees below d), so a term
    t^a s^b weighs a + b*d.  The t^mstar coefficients of the generators of
    least weight mstar are univariate polynomials in the next tail
    coefficient x; their Gaussian-rational common roots are extracted
    exactly, and each root x shifts the children once more, s -> s + x*t^d.
    Missed irrational roots degrade the claim to a lower bound, never to a
    wrong exact value.
    """
    other = 1 - pivot
    t = CPolynomial.variable(2, pivot)
    s = CPolynomial.variable(2, other)

    def rec(gs: list[CPolynomial], prefix: dict[int, GaussianRational],
            depth: int) -> _IdealContact:
        # (t_exp, s_exp, coeff) of every term of every shifted generator
        terms = [[(h[pivot], h[other], c) for (h, _anti), c in g.terms.items()]
                 for g in gs]
        if all(b for g in terms for (_a, b, _c) in g):
            # Every generator vanishes identically along the zero-tail curve.
            return _IdealContact(None, True, dict(prefix), infinite=True,
                                 transcript=[f"curve with tail {sorted(prefix.items())} "
                                             "annihilates every generator"])
        weights = [min(a + b * depth for (a, b, _c) in g) for g in terms]
        mstar = min(weights)
        if mstar >= cap:
            return _IdealContact(cap, False, dict(prefix),
                                 transcript=[f"order bound {mstar} reached the cap {cap}"])
        # One term per s-exponent has weight mstar, so each condition is a
        # univariate polynomial with nonzero coefficients.
        conditions = [{b: c for (a, b, c) in g if a + b * depth == mstar}
                      for g, w in zip(terms, weights) if w == mstar]
        forced = any(set(phi) == {0} for phi in conditions)
        if forced:
            return _IdealContact(
                mstar, True, dict(prefix),
                transcript=[f"tail degree {depth}: the t^{mstar} coefficient is "
                            "independent of the remaining tail and nonzero"])
        roots, complete = gaussian_common_roots(conditions)
        roots = [
            x for x in roots
            if all(_eval_univariate(phi, x).is_zero() for phi in conditions)
        ]
        best = _IdealContact(
            mstar, True, dict(prefix),
            transcript=[f"tail degree {depth}: cancellation at t^{mstar} forces the "
                        f"coefficient into {len(roots)} exact root(s)"])
        for x in roots:
            nxt = dict(prefix)
            if x.is_zero():
                sub = rec(gs, nxt, depth + 1)
            else:
                nxt[depth] = x
                tail = s + (t ** depth).scale(x)
                images = [t, tail] if pivot == 0 else [tail, t]
                sub = rec([g.substitute(images, 2) for g in gs], nxt, depth + 1)
            sub.transcript = best.transcript + sub.transcript
            best = _merge(best, sub)
            if best.infinite:
                return best
        if not complete:
            best.exact = False
            best.transcript.append(
                "cancellation system has non-Gaussian-rational roots; "
                "claim degraded to a lower bound")
        if best.value == mstar:
            # Exhibit a tail coefficient that leaves the t^mstar term alive.
            for cand in _WITNESS_TRIALS:
                if any(not _eval_univariate(phi, cand).is_zero() for phi in conditions):
                    nxt = dict(prefix)
                    if not cand.is_zero():
                        nxt[depth] = cand
                    best.witness = nxt
                    break
        return best

    return rec(fs, {}, 1)


_WITNESS_TRIALS = tuple(
    GaussianRational(a, b)
    for a, b in ((0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (3, 0))
)


def _eval_univariate(phi: dict[int, GaussianRational], x: GaussianRational) -> GaussianRational:
    total = ZERO
    for e, c in phi.items():
        total = total + c * x**e
    return total


def _regular_contact_ideal(
    fs: list[CPolynomial], cap: int
) -> tuple[_IdealContact, CurveJet | None]:
    """Max over regular curves of the min pullback order of the holomorphic
    generators, not all zero; two variables, complete up to the cap."""
    nonzero = [f for f in fs if not f.is_zero()]
    d = nonzero[0].nvars
    if d == 1:
        t = min(f.order_of_vanishing().value for f in nonzero)
        return _IdealContact(t, True, None,
                             transcript=["single variable: order is parametrization-"
                                         "invariant"]), _first_axis(1)
    if d != 2:
        raise ValueError("exact jet-extension contact is implemented for <= 2 variables")
    best: _IdealContact | None = None
    best_pivot = 0
    for pivot in (0, 1):
        res = _ideal_contact_pivot(nonzero, pivot, cap)
        res.transcript = [f"pivot variable z{pivot + 1} = t"] + res.transcript
        best = _merge(best, res)
        if best is res:
            best_pivot = pivot
        if best.infinite:
            break
    witness = None
    if best.witness is not None:
        comps: list[dict[int, GaussianRational]] = [dict() for _ in range(2)]
        comps[best_pivot][1] = ONE
        for deg, c in best.witness.items():
            comps[1 - best_pivot][deg] = c
        witness = CurveJet.from_coeffs(comps)
    return best, witness


# ---------------------------------------------------------------------------
# Regular type


def _hermitian_quadratic_definite(g: CPolynomial) -> bool:
    """Exact test: the degree-2 Hermitian part has no null direction, i.e.
    it or its negative is a Gram sum of g.nvars independent squares."""
    q = g.homogeneous_slice(2)
    for form in (q, -q):
        cert = gram_certificate(form)
        if cert.verdict == "certified" and len(cert.squares) == g.nvars:
            return True
    return False


def reg_type(gf: GraphForm, N: int, gram: PSCertificate) -> TypeClaim:
    """Max order of contact of regular curves in the z_n = 0 frame, capped at N.

    Exact values pair an exhibited curve (re-verified by pullback) with a
    jet-extension obstruction transcript; otherwise the best exhibited lower
    bound is returned.  gram is gram_certificate(gf.g), computed once by
    the caller.
    """
    if gf.pure_order_bound < N:
        raise ValueError("graph form was not normalized far enough for this cap")
    g = gf.g
    if g.is_zero():
        return TypeClaim("infinite", witness=_first_axis(g.nvars),
                         transcript=("g vanishes identically; every curve has "
                                     "infinite contact",))
    if _hermitian_quadratic_definite(g):
        # q(e1) != 0 for the definite quadratic part q, and the mixed-only g
        # has no terms below degree 2, so the first axis has contact exactly 2.
        witness = _first_axis(g.nvars)
        _verify_contact(g, witness, 2, at_least=2)
        return TypeClaim("exact", 2, witness,
                         transcript=("degree-2 Hermitian form is definite: every "
                                     "regular direction meets order exactly 2",))
    if gram.verdict == "certified" and g.nvars <= 2:
        fs = [f for _w, f in gram.squares]
        cap_t = max(2, N)
        res, witness = _regular_contact_ideal(fs, cap_t)
        if res.infinite:
            _verify_zero_pullback(g, witness)
            return TypeClaim("infinite", witness=witness,
                             transcript=tuple(res.transcript))
        value = 2 * res.value
        if witness is not None:
            _verify_contact(g, witness, value if res.exact else None, at_least=value)
        kind = "exact" if res.exact and res.value < cap_t else "at_least"
        return TypeClaim(kind, value, witness,
                         transcript=tuple(
                             ["sum-of-squares route: contact of the holomorphic "
                              "generator ideal, doubled"] + res.transcript))
    # Indefinite or high-dimensional: bounded lower-bound search only.
    found = _best_contact(g, SearchBudget(max_degree=max(4, N), random_trials=200), 1)
    if found.kind == "infinite":
        return TypeClaim("infinite", witness=found.witness,
                         transcript=("search found a regular curve with "
                                     "identically zero pullback",))
    best_val, best_witness = 2, None
    if found.ratio is not None and found.ratio > 2:
        best_val, best_witness = int(found.ratio), found.witness
    return TypeClaim("at_least", best_val, best_witness,
                     transcript=("bounded regular-curve search; no obstruction "
                                 "transcript, so only a lower bound is claimed",))


def _first_axis(n: int) -> CurveJet:
    """The regular curve (t, 0, ..., 0) in n variables."""
    return CurveJet.monomial([1] + [0] * (n - 1), [ONE] + [ZERO] * (n - 1))


def _verify_contact(g, z, exact_value, at_least):
    order = pullback(g, z).order_of_vanishing()
    if order.kind != "exact" or order.value < at_least or (
        exact_value is not None and order.value != exact_value
    ):
        raise VerificationFailedError(
            f"witness pullback order {order} does not support the claim"
        )


def _verify_zero_pullback(g, z):
    if not pullback(g, z).is_zero():
        raise VerificationFailedError("infinite-contact witness has nonzero pullback")


# ---------------------------------------------------------------------------
# Contact search: the bounded lower bound of both types


def _candidates(nvars: int, budget: SearchBudget):
    """The candidate stream of the type searches: monomial curves, then
    cancellation scans, then seeded random curves.  Each search filters it by
    multiplicity; the order fixes which witness wins a tie."""
    yield from monomial_curves(nvars, budget.max_degree)
    yield from cancellation_scan_curves(nvars, budget.max_degree, budget.coeff_height)
    yield from random_curves(nvars, budget)


@dataclass(frozen=True)
class SingSearchResult:
    """Best contact ratio found by a bounded singular-curve search."""

    kind: str  # "infinite" | "lower_bound"
    ratio: Fraction | None
    witness: CurveJet | None
    candidates_tested: int
    budget: SearchBudget

    @property
    def claim(self) -> TypeClaim:
        if self.kind == "infinite":
            return TypeClaim("infinite", witness=self.witness,
                             transcript=("pullback vanishes identically",))
        return TypeClaim("at_least", self.ratio, self.witness,
                         transcript=("bounded singular search",))


def _best_contact(g: CPolynomial, budget: SearchBudget, max_mult: int) -> SingSearchResult:
    """The best exact ratio ord/mult over the candidates of multiplicity at
    most max_mult; the first best wins a tie, and the first identically zero
    pullback certifies infinite contact."""
    best_ratio: Fraction | None = None
    best_witness: CurveJet | None = None
    tested = 0
    for z in _candidates(g.nvars, budget):
        if z.multiplicity() > max_mult:
            continue
        tested += 1
        order, ratio = contact_order(g, z)
        if order.kind == "zero":
            return SingSearchResult("infinite", None, z, tested, budget)
        if ratio is not None and (best_ratio is None or ratio > best_ratio):
            best_ratio, best_witness = ratio, z
    return SingSearchResult("lower_bound", best_ratio, best_witness, tested, budget)


def sing_type_search(gf: GraphForm, budget: SearchBudget) -> SingSearchResult:
    """Enumerate singular candidates in the z_n = 0 frame and keep the best
    exact ratio; an identically zero exact pullback certifies infinite type."""
    return _best_contact(gf.g, budget, budget.max_multiplicity)


# ---------------------------------------------------------------------------
# Desingularization


@dataclass(frozen=True)
class DesingularizationResult:
    eta: CurveJet
    transcript: dict


def desingularize(gf: GraphForm, z: CurveJet) -> DesingularizationResult:
    """From a multiplicity-m curve with exact contact 4m along which the
    positivity test passes, construct a regular curve with contact exactly 4.

    eta(t) = A t + B t^2 where A and B are the t^m and t^(2m) Taylor
    coefficient vectors of z.  The construction is verified by exact
    pullback before anything is returned; the transcript records the
    coefficient-transfer identity between the (2,2) coefficient of the new
    pullback and the (2m,2m) coefficient of the old one.
    """
    g = gf.g
    n = g.nvars
    if z.nvars == n + 1:
        if not z.components[n].is_zero():
            raise CurveFrameError(
                "desingularization operates in the graph frame: the last "
                "coordinate of the curve must be identically zero"
            )
        z = CurveJet(z.components[:n])
    if z.nvars != n:
        raise CurveFrameError(f"curve has {z.nvars} components, expected {n}")
    m = z.multiplicity()
    if m < 2:
        raise ContactNotFourMError("input curve must be singular (multiplicity >= 2)")
    u = pullback(g, z)
    order = u.order_of_vanishing()
    if order.kind != "exact" or order.value != 4 * m:
        raise ContactNotFourMError(
            f"curve has multiplicity {m} but pullback order {order}, need exactly {4 * m}"
        )
    ps = ps_test_single(g, z)
    if ps.status != "pass":
        raise PSViolationError(
            f"positivity test along the curve returned {ps.status}"
        )
    A = z.coefficient_vector(m)
    B = z.coefficient_vector(2 * m)
    eta = CurveJet.from_coeffs([
        {1: A[i], 2: B[i]} for i in range(n)
    ])
    if eta.multiplicity() != 1:
        raise VerificationFailedError("constructed curve is not regular")
    v = pullback(g, eta)
    vorder = v.order_of_vanishing()
    if vorder.kind != "exact" or vorder.value != 4:
        raise VerificationFailedError(
            f"constructed curve has pullback order {vorder}, expected exactly 4"
        )
    transferred = v.coeff(((2,), (2,)))
    source = u.coeff(((2 * m,), (2 * m,)))
    if transferred != source:
        raise VerificationFailedError(
            "coefficient-transfer identity failed: "
            f"{transferred} != {source}"
        )
    transcript = {
        "multiplicity": m,
        "contact": 4 * m,
        "leading_coefficients": A,
        "second_coefficients": B,
        "transferred_coefficient": transferred,
        "new_pullback_order": 4,
    }
    return DesingularizationResult(eta, transcript)


# ---------------------------------------------------------------------------
# Inference


@dataclass(frozen=True)
class Evidence:
    reg: TypeClaim | None = None
    sing: SingSearchResult | None = None
    ps: PSCertificate | StabilizationReport | None = None


@dataclass(frozen=True)
class TypeReport:
    reg_type: TypeClaim | None
    sing_type: TypeClaim
    trail: tuple[str, ...]
    notes: tuple[str, ...] = ()


def _ps_proof(r: DefiningFunction | None, ev: Evidence) -> str | None:
    """How the evidence proves positivity, or None when it does not."""
    ps = ev.ps
    if isinstance(ps, PSCertificate) and ps.verdict == "certified":
        return "structural sum-of-squares certificate"
    if isinstance(ps, StabilizationReport) and ps.k0 is not None:
        tail = [e for e in ps.entries if e.k >= ps.k0]
        # For a polynomial r the truncations repeat once k reaches deg r, so
        # structural certificates from k0 through k_max >= deg r cover every
        # higher order too.
        if (all(e.certificate.verdict == "certified" for e in tail)
                and r is not None and ps.k_max >= r.r.total_degree()):
            return ("structural certificates from the stabilization order "
                    "through the degree of r; higher truncations repeat the last")
    return None


def infer_type(r: DefiningFunction | None, evidence: Evidence) -> TypeReport:
    """Combine search results, certificates, and the multiplicity-reduction
    theorem into a singular-type claim with a named inference trail."""
    trail: list[str] = []
    notes: list[str] = []
    sing: TypeClaim | None = None
    reg = evidence.reg

    sing_infinite: TypeClaim | None = None
    sing_lower: TypeClaim | None = None
    if evidence.sing is not None:
        sc = evidence.sing.claim
        if sc.kind == "infinite":
            sing_infinite = sc
        elif sc.value is not None:
            sing_lower = sc

    # Rules (ii)/(iii) force a finite exact value when applicable; decide
    # that first so contradictions with exhibited curves are surfaced.
    forced: TypeClaim | None = None
    forced_rule = None
    if reg is not None and reg.kind == "exact" and reg.value in (2, 3):
        forced = TypeClaim("exact", Fraction(reg.value), reg.witness,
                           transcript=(f"regular type {reg.value} forces equal "
                                       "singular type",))
        forced_rule = (f"rule (ii): regular type {reg.value} implies singular "
                       f"type {reg.value} (no positivity hypothesis needed)")
        if reg.value == 3:
            notes.append("the regular-type-3 implication is asserted in the "
                         "literature without a written proof; flagged here")
    elif reg is not None and reg.kind == "exact" and reg.value == 4:
        how = _ps_proof(r, evidence)
        if how is not None:
            forced = TypeClaim("exact", Fraction(4), reg.witness,
                               transcript=("multiplicity-reduction theorem",))
            forced_rule = ("rule (iii): regular type 4 plus certified "
                           "positivity implies singular type 4")
            notes.append(f"positivity evidence: {how}")
        else:
            trail.append("rule (iii) not applied: positivity is not certified "
                         "(a bounded search is not a proof)")

    if forced is not None:
        if sing_infinite is not None:
            raise ContradictoryEvidenceError(
                f"exact singular type {forced.value} contradicts an exhibited "
                "curve with identically zero pullback"
            )
        if sing_lower is not None and sing_lower.value > forced.value:
            raise ContradictoryEvidenceError(
                f"exact singular type {forced.value} contradicts an exhibited "
                f"curve with ratio {sing_lower.value}"
            )

    if sing_infinite is not None:
        trail.append("rule (i): exhibited singular curve with identically "
                     "zero pullback dominates everything")
        sing = sing_infinite
    elif forced is not None:
        if sing_lower is not None:
            trail.append(f"rule (i): exhibited singular curve gives a lower "
                         f"bound of {sing_lower.value}")
        trail.append(forced_rule)
        sing = forced
    elif sing_lower is not None:
        trail.append(f"rule (i): exhibited singular curve gives a lower "
                     f"bound of {sing_lower.value}")

    if sing is None:
        candidates = [c for c in (sing_lower,) if c is not None]
        if reg is not None and reg.value is not None:
            candidates.append(TypeClaim("at_least", Fraction(reg.value), reg.witness))
        if candidates:
            sing = max(candidates, key=lambda c: Fraction(c.value))
            trail.append("rule (iv): singular type left as the best exhibited "
                         "lower bound")
        else:
            sing = TypeClaim("at_least", Fraction(2))
            trail.append("rule (iv): no evidence; trivial lower bound")

    if reg is not None and sing.kind == "exact" and reg.kind == "exact":
        if Fraction(sing.value) < Fraction(reg.value):
            raise ContradictoryEvidenceError(
                "singular type claim is below the regular type claim"
            )
    return TypeReport(reg, sing, tuple(trail), tuple(notes))
