"""Regular and singular contact-type computation with certificates, the
constructive desingularization of multiplicity-m curves with contact 4m, and
the inference rules combining positivity evidence with type facts.

All exact claims are backed by re-verifiable certificates: an exhibited
curve checked by exact pullback, or a jet-extension obstruction transcript.
Bounded searches only ever produce lower bounds, never wrong exact values.

Both types take their bounded lower bound from one contact search,
_best_contact.  It keeps the candidates of the stream _candidates of
multiplicity 1 (regular type) or up to max_multiplicity (singular), and
walks the light streams of that stream exponent tuple by exponent tuple.
The candidates of a tuple share the leading exponents mu of their
components, hence their multiplicity min(mu) and the initial rows of g
under mu (curve.leading_rows, read off one algebra.term_table of g per
search): the terms of least weighted degree d, grouped by the bidegree
they land on.  The sum of a candidate's leading products over the rows is
the degree-d slice of its pullback, D'Angelo's weighted order of contact
(Ann. Math. 115, 1982).  When that slice is nonzero and d is at most the
pullback's truncation, the order is d and the ratio d/mult.

No-collision argument.  The stream gives every present component a nonzero
coefficient, and a row involves present components only, so each row's
leading product is a product of nonzero scalars, and rows at different
bidegrees cannot cancel each other.  So when some bidegree collects a
single row, no candidate of the tuple can cancel its slice, and they all
score d/mult without reading a coefficient; a tuple above the
multiplicity filter is skipped unread.

Rule 1 (a positive balanced coefficient).  When no bidegree holds a single
row but d is even, the coefficient of the slice at the balanced bidegree
(d/2, d/2) (algebra.balanced_key) is P(c) = sum g_{h,a} c^h conj(c)^a over
the terms of g with h.mu = a.mu = d/2 and no exponent on a zero component,
c the leading coefficients: the rows at that key, read back as a
polynomial by algebra.initial_form.  g is real, g_{a,h} = conj(g_{h,a}),
and the condition is symmetric in h and a, so P is real; h.mu = a.mu =
d/2 > 0 puts an exponent on both sides, so P is mixed-only.  If
gram_certificate(P) is certified, P = sum w_k |f_k|^2 with w_k > 0, and
if one f_k is a single term c' z^m, that square is > 0 wherever the
components in m are nonzero, the others >= 0; m uses only components of
P, all present.  So P(c) > 0 for every candidate of the tuple
(torus_positive), its slice does not cancel, and the tuple scores d/mult
unread, as above.  For odd d no row lands on the balanced key, and rule
1 decides nothing.

Otherwise slice_vanishes decides whether each candidate's slice cancels, in
Python-int Gaussian arithmetic with no scalar object at all, taking the
powers of the leads from one memo for the whole search.  A tuple that
curve.leading_rows leaves undecided (no row, or d above the truncation)
gives no exact order when g is a jet, so it is counted and skipped unread;
when g is exact it has no row, and its first candidate pulls back to zero.
Only a candidate whose slice cancels, or that first candidate, is built as
a CurveJet and pulled back (curve.contact_order), and the winner is built
only once.  The stream order is kept, so the first best still wins a tie
and the first identically zero pullback returns with the same tested count.

The scan pass (the cancellation scans, after every monomial curve).  Every
tuple is scored in the monomial pass, whose first candidate of a tuple
decided as above scores d/mult.  The scan candidates of a decided tuple
have the same leading exponents, so their score is the same d/mult (or
none, for a jet's undecided tuple), and the comparison is strict, so none
of them replaces the best, which is already at least d/mult; none pulls
back to zero either.  So a decided tuple only adds its count to the tested
count, and so does a random draw in it; only an undecided tuple expands
its scan vectors.  The counts are added in stream order, tuple by tuple,
so that an early return at a zero pullback in a later tuple counts the
decided tuples before it and none after it, as the candidate loop does.

Rule 2 (a random stage that cannot change the result).  A random draw has
multiplicity mult <= budget.max_multiplicity and leading exponents in
0..max_degree, so its exponent tuple is one of search.exponent_tuples,
every one of which the monomial and scan stages have scored before the
random stage starts.  Suppose every scored tuple is decided (above the
filter, or rows None) and max_mult >= budget.max_multiplicity.  Then no
draw is filtered out, and each one lands in a tuple that is decided: one
with d None of a jet g, counted and skipped, or one that scores d/mult
unread.  (A tuple with d None of an exact g would have returned infinite
at its first monomial candidate.)  That score was already reached by the
tuple's first monomial candidate, so under strict improvement no draw
changes the best ratio or its witness, and none pulls back to zero.  The
random stage then only adds its budget.random_trials candidates to the
tested count, and _best_contact adds them without drawing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import lcm
from typing import NamedTuple

from .algebra import (ONE, ZERO, CPolynomial, GaussianRational, Order, balanced_key, initial_form,
                      slice_vanishes, term_table)
from .curve import CurveJet, contact_order, leading_rows, pullback, ps_test_single
from .germ import (
    DefiningFunction,
    GraphForm,
    PSCertificate,
    StabilizationReport,
    gram_certificate,
)
from .search import (
    SearchBudget,
    cancellation_scan_choices,
    cancellation_scan_curves,
    check_search_size,
    monomial_choices,
    monomial_curves,
    monomial_vectors,
    random_curves,
    random_draws,
    scan_vectors,
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


class TypeClaim(NamedTuple):
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
# Gaussian-rational root extraction (exact, by p-adic lifting over Z[i])
#
# A polynomial here is a list of GaussianRational coefficients, index =
# exponent, with a nonzero last entry; the zero polynomial is [].  The
# lifting works on lists of ints (index = exponent) reduced mod m.


def _poly_divmod(a: list[GaussianRational], b: list[GaussianRational]):
    """Quotient and remainder of a by the nonzero b."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [ZERO] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] / lead
        quot[k] = c
        if not c.is_zero():
            for j in range(db):
                rem[k + j] = rem[k + j] - c * b[j]
    rem = rem[:db]
    while rem and rem[-1].is_zero():
        rem.pop()
    return quot, rem


def _poly_gcd(a: list[GaussianRational], b: list[GaussianRational]) -> list[GaussianRational]:
    """The monic gcd of a and b, not both zero (Euclid over Q(i))."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    lead = a[-1]
    return [c / lead for c in a]


def _horner(f: list[int], x: int, m: int) -> tuple[int, int]:
    """f(x) and f'(x) mod m."""
    v = dv = 0
    for c in reversed(f):
        dv = (dv * x + v) % m
        v = (v * x + c) % m
    return v, dv


def _simple_roots(f: list[int], p: int) -> list[int] | None:
    """The roots of f mod the prime p, or None if one of them is multiple."""
    roots = []
    for x in range(p):
        v, dv = _horner(f, x, p)
        if not v:
            if not dv:
                return None
            roots.append(x)
    return roots


def _lift(f: list[int], x: int, m: int, steps: int) -> int:
    """Newton's iteration mod m from a simple root x of f mod p, for m a
    power of p: after j steps x is a root of f mod p^(2^j)."""
    for _ in range(steps):
        v, dv = _horner(f, x, m)
        x = (x - v * pow(dv, -1, m)) % m
    return x


def _split_primes():
    """The primes p = 1 (mod 4), in increasing order: the odd primes mod
    which -1 is a square."""
    for p in count(5, 4):
        if all(p % q for q in range(3, p, 2)):
            yield p


def gaussian_common_roots(
    polys: list[dict[int, GaussianRational]],
) -> tuple[list[GaussianRational], bool]:
    """Common Gaussian-rational roots of nonzero univariate polynomials.

    Returns (roots, complete): the distinct roots sorted by (re, im), and
    whether they are all the common roots, i.e. whether the square-free
    part g of the gcd splits over Q(i).  complete is False when common
    roots exist outside the Gaussian rationals and the list is partial.

    Nothing is factored.  A g of degree n >= 2 has its roots found by
    p-adic lifting, Loos's method for rational roots (SIAM J. Comput. 12,
    1983) carried over to Z[i]:

    1. Clearing denominators gives G in Z[i][x] with leading coefficient a.
       Z[i] is a UFD, so by Gauss's lemma every root r in Q(i) has a*r in
       Z[i]: y = a*r is a Gaussian-integer root of the monic
       H(y) = a^(n-1) G(y/a), and by Cauchy's bound |Re y|, |Im y| <= |y|
       <= B = 1 + max_k (|Re h_k| + |Im h_k|) over the coefficients h_k of
       H below its lead.
    2. For a prime p = 1 (mod 4), -1 has a square root iota mod p, and
       i -> iota, i -> -iota give the two images of H mod p.  H is
       square-free, as g is, so its discriminant is a nonzero Gaussian
       integer with finitely many prime factors, and for all but finitely
       many p both images are square-free.  The loop takes the first p for
       which no root of either image is multiple, so it ends.
    3. The roots of each image mod p are found by trying every residue.
    4. iota and every root are lifted to M = p^K > 2B by Newton's
       iteration.  A simple root mod p lifts uniquely, and each step
       doubles the power of p to which it holds, so ceil(log2 K) steps
       reach M.
    5. A Gaussian integer y = s + t*i maps to s + t*iota and s - t*iota mod
       M, so for each pair (rho1, rho2) of lifted roots, one per image,
       s and t are the symmetric residues of (rho1 + rho2)/2 and
       (rho1 - rho2)/(2*iota) mod M, which cover [-B, B] as M > 2B.  The
       candidate y is kept only if H(y) = 0 exactly, in Python-int
       Gaussian arithmetic, and gives the root y/a of g.

    The list is complete: the images of a root y of H are roots of the
    images of H mod p, simple by the choice of p, so they lift uniquely to
    the images of y mod M, and their pair gives y back.  The exact check
    keeps out everything else.  A square-free g has n distinct roots, so
    it splits over Q(i) exactly when the list is that long.
    """
    nonzero = []
    for p in polys:
        dense = [p.get(e, ZERO) for e in range(max(p, default=-1) + 1)]
        while dense and dense[-1].is_zero():
            dense.pop()
        if dense:
            nonzero.append(dense)
    if not nonzero:
        return [], True
    g = nonzero[0]
    for p in nonzero[1:]:
        g = _poly_gcd(g, p)
    if len(g) > 2:
        # The square-free part g / gcd(g, g').
        g = _poly_divmod(g, _poly_gcd(g, [c * GaussianRational(k)
                                          for k, c in enumerate(g) if k]))[0]
    if len(g) <= 2:
        # A constant has no root; a linear g has its one root.
        return ([] if len(g) == 1 else [-g[0] / g[1]]), True
    n = len(g) - 1
    scale = lcm(*(q.denominator for c in g for q in (c.re, c.im)))
    ar, ai = (int(q * scale) for q in (g[-1].re, g[-1].im))
    # The coefficients h_k = G_k a^(n-1-k) of H below its lead 1, as
    # (re, im) int pairs, for G = scale * g.
    h, pr, pi = [], 1, 0
    for c in reversed(g[:-1]):
        gr, gi = int(c.re * scale), int(c.im * scale)
        h.append((gr * pr - gi * pi, gr * pi + gi * pr))
        pr, pi = pr * ar - pi * ai, pr * ai + pi * ar
    h.reverse()
    bound = 1 + max(abs(x) + abs(y) for x, y in h)

    def image(unit: int, m: int) -> list[int]:
        return [(x + unit * y) % m for x, y in h] + [1]

    for p in _split_primes():
        iota = next(x for x in range(p) if x * x % p == p - 1)
        residues = [_simple_roots(image(u, p), p) for u in (iota, -iota)]
        if None not in residues:
            break
    modulus, k = p, 1
    while modulus <= 2 * bound:
        modulus, k = modulus * p, k + 1
    steps = (k - 1).bit_length()
    iota = _lift([1, 0, 1], iota, modulus, steps)
    lifted = []
    for u, xs in zip((iota, -iota), residues):
        f = image(u, modulus)
        lifted.append([_lift(f, x, modulus, steps) for x in xs])
    half, over = pow(2, -1, modulus), pow(2 * iota, -1, modulus)
    lead = GaussianRational(ar, ai)
    roots = []
    for r1 in lifted[0]:
        for r2 in lifted[1]:
            s = (r1 + r2) * half % modulus
            t = (r1 - r2) * over % modulus
            s -= modulus if 2 * s > modulus else 0
            t -= modulus if 2 * t > modulus else 0
            vr, vi = 1, 0
            for cr, ci in reversed(h):
                vr, vi = vr * s - vi * t + cr, vr * t + vi * s + ci
            if not vr and not vi:
                roots.append(GaussianRational(s, t) / lead)
    roots.sort(key=lambda c: (c.re, c.im))
    return roots, len(roots) == n


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
) -> tuple[_IdealContact, CurveJet]:
    """Max over regular curves of the min pullback order of the holomorphic
    generators, not all zero, and a regular curve that attains it; two
    variables, complete up to the cap."""
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
    comps: list[dict[int, GaussianRational]] = [dict() for _ in range(2)]
    comps[best_pivot][1] = ONE
    for deg, c in best.witness.items():
        comps[1 - best_pivot][deg] = c
    return best, CurveJet.from_coeffs(comps)


# ---------------------------------------------------------------------------
# Regular type


def _hermitian_quadratic_definite(g: CPolynomial, certify) -> bool:
    """Exact test: the degree-2 Hermitian part q of g has no null direction,
    i.e. q or -q is a Gram sum of g.nvars independent squares.  certify(p)
    gives gram_certificate(p), as in reg_type.

    No certificate is formed whose verdict is known beforehand.  An empty q
    is no sum of g.nvars >= 1 squares, so it forms none.  When g is
    certified, -q forms none: then g = sum w |f|^2 with every w > 0,
    checked term by term, and no f has a constant term, since the Gram
    monomials of the mixed-only g all have degree >= 1.  So the degree-2
    slice of g is q = sum w |f_1|^2, where f_1 is the linear part of f, and
    q >= 0 everywhere.  A certified -q would give -q >= 0 as well, so q
    would vanish everywhere, and a Hermitian form with a term does not."""
    q = g.homogeneous_slice(2)
    if q.is_zero():
        return False
    for form in (q,) if certify(g).verdict == "certified" else (q, -q):
        cert = certify(form)
        if cert.verdict == "certified" and len(cert.squares) == g.nvars:
            return True
    return False


def reg_budget(N: int) -> SearchBudget:
    """The budget of reg_type's bounded search under the cap N."""
    return SearchBudget(max_degree=max(4, N), random_trials=200)


def reg_type(gf: GraphForm, N: int, certify) -> TypeClaim:
    """Max order of contact of regular curves in the z_n = 0 frame, capped at N.

    Exact values pair an exhibited curve (re-verified by pullback) with a
    jet-extension obstruction transcript; otherwise the best exhibited lower
    bound is returned.  certify(p) gives gram_certificate(p) for g, its
    quadratic part and the balanced coefficients of its search, so a caller
    can share them (report.GermAnalysis).

    Infinite type is claimed only when g's pullback along the witness is
    identically zero (Order kind "zero"), which a jet never is.  On a jet g
    truncated at T the true g adds terms of degree > T, which pull back
    along a regular curve to order > T; so the true order along a regular
    curve is that of g's pullback when it has a term (its truncation is T),
    and > T when it has none.  Hence the claims that g's terms decide stand:
    exact 2 from a definite quadratic part, an exact value v <= T from the
    sum-of-squares route (its obstruction bounds every regular curve's
    order on g's terms by v), and a lower bound whose witness pulls g back
    to an exact order.  Every other claim becomes at_least T + 1 with its
    witness, along which g has no term through T (_undecided_claim): an infinite
    claim, an exact value above T, or a lower bound with such a witness.
    """
    if gf.pure_order_bound < N:
        raise ValueError("graph form was not normalized far enough for this cap")
    g = gf.g
    if not g.terms:
        witness = _first_axis(g.nvars)
        return _undecided_claim(pullback(g, witness).order_of_vanishing(), witness, (
            "g vanishes identically; every curve has infinite contact"
            if g.truncation is None else "g has no term through its truncation",))
    if _hermitian_quadratic_definite(g, certify):
        # q(e1) != 0 for the definite quadratic part q, and the mixed-only g
        # has no terms below degree 2, so the first axis has contact exactly 2.
        witness = _first_axis(g.nvars)
        _verify_contact(pullback(g, witness).order_of_vanishing(), 2, at_least=2)
        return TypeClaim("exact", 2, witness,
                         transcript=("degree-2 Hermitian form is definite: every "
                                     "regular direction meets order exactly 2",))
    gram = certify(g)
    if gram.verdict == "certified" and g.nvars <= 2:
        fs = [f for _w, f in gram.squares]
        cap_t = max(2, N)
        res, witness = _regular_contact_ideal(fs, cap_t)
        order = pullback(g, witness).order_of_vanishing()
        if res.infinite:
            return _undecided_claim(order, witness, tuple(res.transcript))
        value = 2 * res.value
        transcript = tuple(["sum-of-squares route: contact of the holomorphic "
                            "generator ideal, doubled"] + res.transcript)
        if order.kind == "at_least":
            return _undecided_claim(order, witness, transcript)
        _verify_contact(order, value if res.exact else None, at_least=value)
        kind = "exact" if res.exact and res.value < cap_t else "at_least"
        return TypeClaim(kind, value, witness, transcript=transcript)
    # Indefinite or high-dimensional: bounded lower-bound search only.
    found = _best_contact(g, reg_budget(N), 1, certify)
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


def _verify_contact(order: Order, exact_value, at_least):
    """Raise unless a witness's pullback order supports the claim."""
    if order.kind != "exact" or order.value < at_least or (
        exact_value is not None and order.value != exact_value
    ):
        raise VerificationFailedError(
            f"witness pullback order {order} does not support the claim"
        )


def _undecided_claim(order: Order, z, transcript: tuple[str, ...]) -> TypeClaim:
    """The claim of a witness z along which g's pullback, of order order,
    has no term: infinite when it is zero, the jet bound when g is a jet."""
    if order.kind == "exact":
        raise VerificationFailedError("infinite-contact witness has nonzero pullback")
    if order.kind == "zero":
        return TypeClaim("infinite", witness=z, transcript=transcript)
    return TypeClaim("at_least", order.value, z, transcript=transcript + (
        f"g is a jet: the witness pulls it back to order {order}, so only a "
        f"lower bound of {order.value} is claimed",))


# ---------------------------------------------------------------------------
# Contact search: the bounded lower bound of both types


def _candidates(nvars: int, budget: SearchBudget):
    """The candidate stream of the type searches: monomial curves, then
    cancellation scans, then seeded random curves.  Each search filters it by
    multiplicity; the order fixes which witness wins a tie.  _best_contact
    walks the light streams of the same stages, tuple by tuple."""
    yield from monomial_curves(nvars, budget.max_degree)
    yield from cancellation_scan_curves(nvars, budget.max_degree, budget.coeff_height)
    yield from random_curves(nvars, budget)


class SingSearchResult(NamedTuple):
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


def _best_contact(g: CPolynomial, budget: SearchBudget, max_mult: int,
                  certify) -> SingSearchResult:
    """The best exact ratio ord/mult over the candidates of multiplicity at
    most max_mult; the first best wins a tie, and the first identically zero
    pullback certifies infinite contact.  certify(p) gives
    gram_certificate(p) for the balanced coefficients (torus_positive).

    Each exponent tuple is scored once, in the monomial pass, from one
    term_table of g; a tuple above max_mult is skipped unread, a decided
    one only adds its count (and in the monomial pass its score), and an
    undecided one expands its vectors (the module docstring gives the
    argument, and rule 2 for the random stage).
    """
    check_search_size(g.nvars, budget)
    table = term_table(g)
    scores: dict = {}  # exps -> (d, mult, rows), or None above max_mult
    powers: dict = {}  # the lead powers of slice_vanishes, for the whole search
    # The best ratio as the ints num/den, compared by cross-multiplying.
    best_num, best_den = None, 1
    best = None  # (build, args, CurveJet or None) of the first best candidate
    tested = 0

    def read(score, candidates, build):
        """Score the (lead, args) of an undecided tuple in stream order; the
        curve build(*args) of the first zero pullback, or None."""
        nonlocal best_num, best_den, best, tested
        d, mult, rows = score
        for lead, args in candidates:
            tested += 1
            num, den, z = d, mult, None
            if d is None or slice_vanishes(rows, lead, powers):
                z = build(*args)
                order, found = contact_order(g, z)
                if order.kind == "zero":
                    return z
                if found is None:
                    continue
                num, den = found.numerator, found.denominator
            if best_num is None or num * best_den > best_num * den:
                best_num, best_den, best = num, den, (build, args, z)
        return None

    # Rule 2: the random stage is drawn when the filter drops draws or a tuple is undecided.
    undecided = max_mult < budget.max_multiplicity
    for scan in (False, True):
        for exps, count in (cancellation_scan_choices(g.nvars, budget.max_degree,
                                                      budget.coeff_height) if scan
                            else monomial_choices(g.nvars, budget.max_degree)):
            if not scan:
                mult = min(filter(None, exps))
                scores[exps] = (_leading_score(g, table, exps, mult, certify)
                                if mult <= max_mult else None)
            score = scores[exps]
            if score is None:
                continue
            d, mult, rows = score
            if rows is None and (d is not None or g.truncation is not None):
                # Decided: a scan candidate repeats the monomial score.
                tested += count
                if not scan and d is not None and (
                        best_num is None or d * best_den > best_num * mult):
                    best_num, best_den = d, mult
                    best = (CurveJet.monomial, (exps, next(monomial_vectors(exps))), None)
                continue
            undecided = True
            vectors = scan_vectors(exps, budget.coeff_height) if scan else monomial_vectors(exps)
            z = read(score, ((v, (exps, v)) for v in vectors), CurveJet.monomial)
            if z is not None:
                return SingSearchResult("infinite", None, z, tested, budget)
    if not undecided:
        tested += budget.random_trials
    for exps, lead, coeffs in random_draws(g.nvars, budget) if undecided else ():
        score = scores[exps]
        if score is not None and score[2] is None:
            tested += 1
        elif score is not None:
            z = read(score, ((lead, (coeffs,)),), CurveJet.from_coeffs)
            if z is not None:
                return SingSearchResult("infinite", None, z, tested, budget)
    witness = None
    if best is not None:
        build, args, witness = best
        if witness is None:
            witness = build(*args)
    best_ratio = None if best_num is None else Fraction(best_num, best_den)
    return SingSearchResult("lower_bound", best_ratio, witness, tested, budget)


def _leading_score(g: CPolynomial, table: tuple, exps: tuple[int, ...], mult: int, certify):
    """(d, mult, rows) for the candidates with leading exponents exps, read
    off table = term_table(g).  The ratio d/mult, d the weighted degree of
    the leading slice, is the score of every candidate whose slice does not
    cancel; d is None when the slice decides no order (no row, or d above
    the truncation).  rows are the initial rows when some candidate's slice
    may cancel, None when none can: when some bidegree holds a single row,
    or (rule 1 of the module docstring) when d is even and the balanced
    coefficient, the polynomial P in the leads of the terms of g at
    bidegree (d/2, d/2), is torus_positive under certify."""
    found = leading_rows(g, table, exps)
    if found is None:
        return None, mult, None
    d, rows = found
    if 1 in map(len, rows.values()) or _balanced_positive(rows, d, g.nvars, certify):
        rows = None
    return d, mult, rows


def torus_positive(p: CPolynomial, certify) -> bool:
    """Whether p > 0 at every point whose coordinates are all nonzero, read
    off certify(p), which gives gram_certificate(p): p is a sum of w_k
    |f_k|^2 with every w_k > 0, so p >= 0 everywhere, and when one f_k is a
    single term c z^m its square |c|^2 |z^m|^2 is > 0 wherever no
    coordinate is zero.  False when p is
    not real-valued and mixed-only (gram_certificate's ValueError), when it
    is not certified, or when no square is a single term; False proves
    nothing."""
    try:
        cert = certify(p)
    except ValueError:
        return False
    return cert.verdict == "certified" and any(len(f.terms) == 1 for _w, f in cert.squares)


def _balanced_positive(rows: dict, d: int, nvars: int, certify) -> bool:
    """Whether the balanced coefficient of the leading slice with rows,
    P = algebra.initial_form at balanced_key(d), is torus_positive under
    certify (rule 1); for odd d no row lands on that key."""
    p = initial_form(rows, balanced_key(d), nvars)
    return p is not None and torus_positive(p, certify)


def sing_type_search(gf: GraphForm, budget: SearchBudget,
                     certify=gram_certificate) -> SingSearchResult:
    """Enumerate singular candidates in the z_n = 0 frame and keep the best
    exact ratio; an identically zero exact pullback certifies infinite type.
    certify(p) gives gram_certificate(p), as in reg_type."""
    return _best_contact(gf.g, budget, budget.max_multiplicity, certify)


# ---------------------------------------------------------------------------
# Desingularization


class DesingularizationResult(NamedTuple):
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


class Evidence(NamedTuple):
    reg: TypeClaim | None = None
    sing: SingSearchResult | None = None
    ps: PSCertificate | StabilizationReport | None = None


class TypeReport(NamedTuple):
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
        # Under the exact rule (r.frame.g is not None) each restricted jet is
        # a degree filter of one exact g, so the truncations repeat once k
        # reaches deg r, and structural certificates from k0 through k_max
        # >= deg r cover every higher order too.  On a series graph the
        # restricted jets change with k, and no such argument is written.
        if (all(e.certificate.verdict == "certified" for e in tail)
                and r is not None and r.frame.g is not None
                and ps.k_max >= r.r.total_degree()):
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
    if sing_infinite is None and reg is not None and reg.kind == "infinite":
        # A regular curve is a curve, and reg_type claims infinite only on an
        # identically zero pullback of an exact g.
        sing_infinite = reg

    # Rules (ii)/(iii) force a finite exact value when applicable; decide
    # that first so contradictions with exhibited curves are surfaced.
    forced: TypeClaim | None = None
    forced_rule = None
    if reg is not None and reg.kind == "exact" and reg.value == 2:
        forced = TypeClaim("exact", Fraction(2), reg.witness,
                           transcript=("regular type 2 forces equal singular type",))
        forced_rule = ("rule (ii): regular type 2 implies singular type 2 "
                       "(no positivity hypothesis needed)")
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
        trail.append(f"rule (i): exhibited {'regular' if sing_infinite is reg else 'singular'} "
                     "curve with identically zero pullback dominates everything")
        sing = sing_infinite
    else:
        if sing_lower is not None:
            trail.append(f"rule (i): exhibited singular curve gives a lower "
                         f"bound of {sing_lower.value}")
        if forced is not None:
            trail.append(forced_rule)
            sing = forced

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
