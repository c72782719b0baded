"""Hypersurface germ representation and positivity certification.

Every command reads a germ in one graph frame.  A rigid germ, r =
c*z_n + conj(c)*conj(z_n) + g(z') with c != 0 and a mixed part g free of
z_n (the form of the paper's positivity condition and of its type-4
examples), has its frame read off its terms (_rigid_graph): g is r's mixed
part with the last slot dropped, for every degree bound and jet order.
Every other germ goes through one pipeline: a linear change makes the
linear part of r exactly 2Re(z_n) (_linear_frame, which returns r itself
when its linear part is 2Re(z_n) already), solve_graph solves h = 0 for
z_n, where h is the holomorphic half of r, and r is restricted to that
graph, where 2Re(h) vanishes and the mixed part g is left.
normalize_to_graph does this once through a degree bound, and leaves the
lift back to the original variables to be formed on first read;
germ_ps_check splits r into (h, g) once and, for each jet order, solves
and restricts only where the order's jets change what the previous order
formed, and certifies only where the restricted terms change.  Positivity of g is then certified structurally (an
exact Hermitian sum-of-squares decomposition, checked by summing its squares
back to g in raw integer arithmetic) or refuted by a bounded curve search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .algebra import (
    ONE,
    ZERO,
    CPolynomial,
    GaussianRational,
    key_conjugate,
    key_degree,
    key_is_pure,
    slice_positive_at,
    slice_torus_positive,
    weighted_square_terms,
)
from .curve import CurveJet, PSTestResult, leading_rows, ps_test_single
from .search import (
    SEED_COEFFS,
    SearchBudget,
    canonicalize_curve,
    cancellation_scan_choices,
    cancellation_scan_curves,
    monomial_choices,
    monomial_curves,
)


class NotRealError(ValueError):
    """The candidate defining function is not real-valued."""


class NoLinearPartError(ValueError):
    """dr(0) = 0; the zero set is not a hypersurface germ."""


class NonzeroConstantError(ValueError):
    """r(0) != 0; the germ must pass through the base point."""


class DegenerateLinearPartError(ValueError):
    """The holomorphic half of the pure part has no linear term."""


class SolveGraphError(RuntimeError):
    """The graph series failed its machine-checked postcondition."""


@dataclass(frozen=True)
class DefiningFunction:
    """A validated real-valued polynomial r with r(0) = 0 and dr(0) != 0."""

    r: CPolynomial

    @property
    def nvars(self) -> int:
        return self.r.nvars


def validate(r: CPolynomial) -> DefiningFunction:
    if not r.is_real_valued():
        raise NotRealError("defining function must be real-valued")
    if not r.constant_term().is_zero():
        raise NonzeroConstantError("defining function must vanish at the origin")
    if r.homogeneous_slice(1).is_zero():
        raise NoLinearPartError("defining function must have dr(0) != 0")
    return DefiningFunction(r)


def taylor_truncate(r: DefiningFunction, k: int) -> CPolynomial:
    """The k-th order Taylor polynomial, carrying jet order k."""
    if k < 1:
        raise ValueError("truncation order must be at least 1")
    return r.r.truncate(k)


def decompose_pure_mixed(jk: CPolynomial) -> tuple[CPolynomial, CPolynomial]:
    """Write jk = 2Re(h) + g with h holomorphic (dh(0) != 0) and g mixed-only."""
    pure, mixed = jk.pure_mixed_split()
    h = pure.holomorphic_part()
    if (h + h.conjugate()) != pure:
        raise NotRealError("input is not real-valued: pure terms are not conjugate-paired")
    if h.homogeneous_slice(1).is_zero():
        raise DegenerateLinearPartError("holomorphic half has no linear part")
    return h, mixed


def solve_graph(h: CPolynomial, order: int) -> CPolynomial:
    """Formal series phi(zeta) with phi(0) = 0 and h(zeta, phi) = 0 mod degree order+1.

    Write h = c*z_n + rest (h less its z_n term).  When rest is free of z_n
    and has degree at most order, phi = -rest/c is the exact graph.
    Otherwise phi is found by iterated jet refinement; each pass fixes one
    more degree.  The postcondition is machine-checked on every call:
    h(zeta, phi) vanishes through degree order, and when phi is exact (the
    exact graph) it has no term at all, so that phi solves h = 0 at every
    order and germ_ps_check may keep it for the next one.
    """
    n = h.nvars
    if n < 2:
        raise DegenerateLinearPartError("need at least two variables to form a graph")
    lin_key = (tuple(1 if j == n - 1 else 0 for j in range(n)), (0,) * n)
    c = h.coeff(lin_key)
    if c.is_zero():
        raise DegenerateLinearPartError(
            "no linear term in the last variable; apply a linear change first"
        )
    rest = h.select(lambda key: key != lin_key)
    inv_c = ONE / c
    zeta = [CPolynomial.variable(n - 1, j) for j in range(n - 1)]
    if rest.total_degree() <= order and not any(a[n - 1] or b[n - 1] for a, b in rest.terms):
        phi = -rest.substitute(zeta + [CPolynomial.zero(n - 1)], n - 1).scale(inv_c)
    else:
        phi = CPolynomial.zero(n - 1, truncation=order)
        for _ in range(order):
            composed = rest.substitute(zeta + [phi], n - 1)
            phi = (-composed.scale(inv_c)).truncate(order)
    check = h.substitute(zeta + [phi], n - 1)
    if not (check if phi.truncation is None else check.truncate(order)).is_zero():
        raise SolveGraphError("graph series does not annihilate h to the required order")
    return phi


def restrict(g: CPolynomial, phi: CPolynomial, order: int | None = None) -> CPolynomial:
    """Substitute the last variable by phi (and its conjugate), truncated at
    order when one is given."""
    n = g.nvars
    if phi.nvars != n - 1:
        raise ValueError("graph series has wrong variable count")
    zeta = [CPolynomial.variable(n - 1, j) for j in range(n - 1)]
    out = g.substitute(zeta + [phi], n - 1)
    return out if order is None else out.truncate(order)


# ---------------------------------------------------------------------------
# Graph normal form


@dataclass(frozen=True)
class GraphForm:
    """A germ in the graph frame r = 2Re(w) + g(zeta) + O(w).

    g is r restricted to the complex graph h = 0 of its holomorphic half, so
    it is mixed-only through degree pure_order_bound.  images gives the
    original variables in the linear frame, and graph the variables of that
    frame along w = 0 as polynomials in zeta.  lift composes the two: it
    gives the original variables as polynomials in zeta along w = 0, so
    curves found in the graph frame map back exactly.  Only a sing-search
    witness reads it, so it is formed on first read.
    """

    g: CPolynomial
    pure_order_bound: int
    images: tuple[CPolynomial, ...]
    graph: tuple[CPolynomial, ...]

    @cached_property
    def lift(self) -> tuple[CPolynomial, ...]:
        return tuple(im.substitute(self.graph, self.g.nvars) for im in self.images)

    def lift_curve(self, eta: CurveJet) -> CurveJet:
        """Map a curve in the zeta-frame (w = 0) back to original coordinates."""
        return CurveJet(tuple(x.substitute(eta.components, 1) for x in self.lift))


def _linear_images(r: DefiningFunction) -> list[CPolynomial]:
    """The original variables in new coordinates where the linear part of r
    is exactly 2Re(z_n)."""
    n = r.nvars
    lin = r.r.homogeneous_slice(1)
    a = [
        lin.coeff((tuple(1 if j == i else 0 for j in range(n)), (0,) * n))
        for i in range(n)
    ]
    pivot = max(i for i in range(n) if not a[i].is_zero())
    others = [i for i in range(n) if i != pivot]
    images: list[CPolynomial | None] = [None] * n
    for new_idx, old_idx in enumerate(others):
        images[old_idx] = CPolynomial.variable(n, new_idx)
    expr = CPolynomial.variable(n, n - 1)
    for new_idx, old_idx in enumerate(others):
        if not a[old_idx].is_zero():
            expr = expr - CPolynomial.variable(n, new_idx).scale(a[old_idx])
    images[pivot] = expr.scale(ONE / a[pivot])
    return images


def _linear_frame(r: DefiningFunction) -> tuple[CPolynomial, list[CPolynomial]]:
    """r in the coordinates where its linear part is exactly 2Re(z_n), and
    the images of the original variables there (_linear_images).

    When the linear part of r is 2Re(z_n) already, the images are the
    variables themselves and r is returned as it is: substituting the
    identity moves every term to its own key and multiplies its coefficient
    by 1, so it gives the same terms in the same order, with the same
    truncation."""
    n = r.nvars
    images = _linear_images(r)
    if images == [CPolynomial.variable(n, i) for i in range(n)]:
        return r.r, images
    return r.r.substitute(images, n), images


def _rigid_graph(p: CPolynomial) -> CPolynomial | None:
    """The graph-frame g of a rigid p, or None when p is not rigid.

    p is rigid when n >= 2, its pure part is exactly c*z_n + conj(c)*
    conj(z_n) (c != 0, as a stored coefficient is), and no mixed term has an
    exponent on z_n or conj(z_n); one pass over its terms decides this.  g
    is then p's mixed part with the last slot dropped, exact and in p's
    term order.  p's truncation is not read.

    This is what the general pipeline gives a rigid germ.  The linear frame
    maps z_n to z_n/c and fixes the other variables, so it leaves each mixed
    term in place and makes h = z_n.  solve_graph's exact branch then gives
    phi = 0, which its machine check accepts, since h(zeta, 0) has no term.
    Substituting (zeta, 0) drops each pure term, since each one uses the
    image with no term, and moves each mixed term to its own key without
    the last slot, times 1, in order; no image is a jet, so the result is
    exact.
    """
    n = p.nvars
    if n < 2:
        return None
    last = n - 1
    zero = (0,) * n
    unit = tuple(int(j == last) for j in range(n))
    lin, anti = (unit, zero), (zero, unit)
    terms = p.terms
    c = terms.get(lin)
    if c is None or terms.get(anti) != c.conjugate():
        return None
    mixed = {}
    for key, coeff in terms.items():
        if key == lin or key == anti:
            continue
        h, a = key
        if h[last] or a[last] or not any(h) or not any(a):
            return None
        mixed[(h[:last], a[:last])] = coeff
    return CPolynomial(last, mixed)


def normalize_to_graph(r: DefiningFunction, K: int) -> GraphForm:
    """The graph frame of r through degree K.

    An exact rigid r takes its frame off its terms (_rigid_graph, which
    gives the argument): g is its mixed part with the last slot dropped,
    images what _linear_images gives (the variables when c = 1), and graph
    (zeta, 0).  A jet takes the general path, whose phi is a jet zero
    carrying its truncation into the last graph entry.

    Every other r takes the same pipeline as germ_ps_check: the linear
    frame (_linear_frame) makes the linear part 2Re(z_n), solve_graph solves
    h = 0 for z_n, where h is the holomorphic half of r in the new
    coordinates, and r is restricted to that graph.  There 2Re(h) vanishes,
    so the restriction is the mixed part g.
    """
    n = r.nvars
    g = _rigid_graph(r.r) if r.r.truncation is None else None
    if g is not None:
        graph = tuple(CPolynomial.variable(n - 1, j) for j in range(n - 1))
        return GraphForm(g, K, tuple(_linear_images(r)), graph + (CPolynomial.zero(n - 1),))
    normalized, images = _linear_frame(r)
    phi = solve_graph(normalized.holomorphic_part(), K)
    graph = tuple(CPolynomial.variable(n - 1, j) for j in range(n - 1)) + (phi,)
    return GraphForm(normalized.substitute(graph, n - 1), K, tuple(images), graph)


# ---------------------------------------------------------------------------
# Positivity certificates


@dataclass(frozen=True)
class PSCertificate:
    """Outcome of a positivity check on a mixed-only real-valued polynomial.

    verdict: "certified" (structural sum-of-squares proof),
             "violation" (reproducible witness curve),
             "no_violation_up_to_bounds" (bounded search exhausted), or
             "inconclusive" (Hermitian matrix not positive semidefinite;
             carries an indefinite direction usable as a search seed).
    """

    verdict: str
    method: str
    witness: CurveJet | None = None
    witness_result: PSTestResult | None = None
    squares: tuple[tuple[Fraction, CPolynomial], ...] = ()
    indefinite_direction: tuple[tuple[tuple, GaussianRational], ...] = ()
    bounds: SearchBudget | None = None

    @property
    def is_violation(self) -> bool:
        return self.verdict == "violation"


def gram_matrix(g: CPolynomial):
    """Hermitian matrix H over holomorphic monomials with g = sum H[a,b] z^a zbar^b."""
    monomials = sorted(
        {key[0] for key in g.terms} | {key[1] for key in g.terms},
        key=lambda m: (sum(m), m),
    )
    index = {m: i for i, m in enumerate(monomials)}
    size = len(monomials)
    H = [[ZERO] * size for _ in range(size)]
    for (h, a), coeff in g.terms.items():
        H[index[h]][index[a]] = coeff
    return monomials, H


def _psd_decompose(monomials, H):
    """Exact semidefiniteness test by symmetric pivoting over Gaussian rationals.

    Returns ("psd", [(weight, coeff-vector)]) or ("indefinite", direction),
    where direction is a vector v (over monomials) with v* H v < 0.
    """
    size = len(monomials)
    active = list(range(size))
    H = [row[:] for row in H]
    pivots: list[tuple[int, dict[int, GaussianRational]]] = []
    squares: list[tuple[Fraction, dict[int, GaussianRational]]] = []

    def back_substitute(v: dict[int, GaussianRational]) -> dict[int, GaussianRational]:
        for p, u in reversed(pivots):
            s = ZERO
            for j, vj in v.items():
                s = s + u[j].conjugate() * vj
            v[p] = -s
        return v

    while active:
        for i in active:
            d = H[i][i]
            if not d.is_real():
                raise NotRealError("Gram matrix is not Hermitian")
            if not d.is_zero() and not d.is_positive_real():
                return "indefinite", back_substitute({i: ONE})
        pivot = None
        for i in active:  # already in graded-lex order: ties break lowest
            if H[i][i].is_positive_real():
                pivot = i
                break
        if pivot is None:
            off = None
            for i in active:
                for j in active:
                    if i != j and not H[i][j].is_zero():
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break  # remaining block is zero: done
            i, j = off
            v = {i: -H[i][j], j: ONE}
            return "indefinite", back_substitute(v)
        p = H[pivot][pivot]
        u = {j: H[j][pivot] / p for j in active}
        squares.append((p.re, u))
        pivots.append((pivot, u))
        active.remove(pivot)
        # p * u[a] is H[a][pivot], which the update leaves as it is.
        for a in active:
            col = H[a][pivot]
            for b in active:
                H[a][b] = H[a][b] - col * u[b].conjugate()
    return "psd", squares


def gram_certificate(g: CPolynomial) -> PSCertificate:
    """Structural positivity proof: exhibit g as a positive combination of
    squared moduli of holomorphic polynomials, or an indefinite direction.

    One pass over the terms of g decides both preconditions: a term whose
    conjugate key does not hold the conjugate coefficient raises
    NotRealError at once, and a pure term (holomorphic, antiholomorphic or
    constant) raises ValueError once the pass has found every term real.
    A certificate is checked before it is returned: the sum of w * f *
    conj(f) over its squares (algebra.weighted_square_terms) must give the
    terms of g exactly, or SolveGraphError is raised."""
    terms = g.terms
    pure = False
    for key, coeff in terms.items():
        if terms.get(key_conjugate(key), ZERO) != coeff.conjugate():
            raise NotRealError("Gram certification needs a real-valued polynomial")
        if not pure and key_is_pure(key):
            pure = True
    if pure:
        raise ValueError("Gram certification applies to mixed-only polynomials")
    monomials, H = gram_matrix(g)
    status, data = _psd_decompose(monomials, H)
    if status == "psd":
        n = g.nvars
        zero = (0,) * n
        squares = tuple(
            (d, CPolynomial(n, {(monomials[j], zero): c for j, c in u.items()}))
            for d, u in data
        )
        if weighted_square_terms(squares) != terms:
            raise SolveGraphError("sum-of-squares reconstruction mismatch")
        return PSCertificate("certified", "gram", squares=squares)
    direction = tuple(
        sorted(
            ((monomials[j], c) for j, c in data.items() if not c.is_zero()),
            key=lambda kv: (sum(kv[0]), kv[0]),
        )
    )
    return PSCertificate("inconclusive", "gram", indefinite_direction=direction)


def torus_positive(p: CPolynomial) -> bool:
    """Whether p > 0 at every point whose coordinates are all nonzero, read
    off gram_certificate(p): p is a sum of w_k |f_k|^2 with every w_k > 0,
    so p >= 0 everywhere, and when one f_k is a single term c z^m its square
    |c|^2 |z^m|^2 is > 0 wherever no coordinate is zero.  False when p is
    not real-valued and mixed-only (gram_certificate's ValueError), when it
    is not certified, or when no square is a single term; False proves
    nothing."""
    try:
        cert = gram_certificate(p)
    except ValueError:
        return False
    return cert.verdict == "certified" and any(len(f.terms) == 1 for _w, f in cert.squares)


def _gram_seed_curves(g: CPolynomial, direction) -> list[CurveJet]:
    """Turn an indefinite Gram direction into candidate curves when each
    indexing monomial is a power of a single distinct variable."""
    if not direction:
        return []
    n = g.nvars
    entries = []
    for mono, value in direction:
        nz = [i for i, e in enumerate(mono) if e]
        if len(nz) != 1:
            return []
        entries.append((nz[0], mono[nz[0]], value))
    vars_used = [e[0] for e in entries]
    if len(set(vars_used)) != len(vars_used):
        return []
    lcm = 1
    for _, e, _v in entries:
        lcm = lcm * e // gcd(lcm, e)
    exps = [0] * n
    solved = [ZERO] * n
    raw = [ZERO] * n
    for i, e, v in entries:
        exps[i] = lcm // e
        raw[i] = v
        root = None
        for c in SEED_COEFFS:
            if c ** e == v:
                root = c
                break
        solved[i] = root if root is not None else v
    out = [CurveJet.monomial(exps, solved)]
    if solved != raw:
        out.append(CurveJet.monomial(exps, raw))
    return out


def _ps_candidates(g: CPolynomial, bounds: SearchBudget, gram: PSCertificate):
    """The candidate stream of ps_search, curve by curve: monomial curves
    over the seed coefficients, seeds from the indefinite direction of gram,
    then one-unknown coefficient scans.  ps_search walks it in exponent
    groups (_ps_suspects)."""
    yield from monomial_curves(g.nvars, bounds.max_degree)
    yield from _gram_seed_curves(g, gram.indefinite_direction)
    yield from cancellation_scan_curves(g.nvars, bounds.max_degree, bounds.coeff_height)


def _ps_suspects(g: CPolynomial, bounds: SearchBudget, gram: PSCertificate):
    """The curves of _ps_candidates, in stream order, less those whose
    leading slice proves that they pass (ps_search gives the argument).
    One memo of lead powers serves both grouped stages."""
    powers: dict = {}
    yield from _group_suspects(g, monomial_choices(g.nvars, bounds.max_degree), powers)
    yield from _gram_seed_curves(g, gram.indefinite_direction)
    yield from _group_suspects(
        g, cancellation_scan_choices(g.nvars, bounds.max_degree, bounds.coeff_height),
        powers)


def _group_suspects(g: CPolynomial, groups, powers: dict):
    for exps, _count, vectors in groups:
        found = leading_rows(g, exps)
        if found is None:
            continue
        d, rows = found
        # A pass is read off the balanced coefficient alone; for odd d no
        # row lands on mid, which has degree d - 1.
        mid = ((d // 2,), (d // 2,))
        if slice_torus_positive(rows, mid):
            continue
        for v in vectors:
            if slice_positive_at(rows, mid, v, powers):
                continue
            yield CurveJet.monomial(exps, v)


def ps_search(g: CPolynomial, bounds: SearchBudget, gram: PSCertificate) -> PSCertificate:
    """Bounded search for a curve violating positivity.

    gram is the caller's `gram_certificate(g)`.  Candidates in deterministic
    order (_ps_candidates): monomial curves over the seed coefficients,
    seeds from its indefinite direction, then one-unknown coefficient scans.
    The first violation wins; its witness is canonicalized by
    reparametrization and re-verified.

    The monomial curves and the scans are read one exponent group at a time
    through curve.leading_rows, which gives once per group the rows whose
    sum over a curve's leading coefficients is the degree-d slice S of its
    pullback.  Three kinds of candidate cannot be violations and are skipped
    without building a curve:
    - every candidate of a group that leading_rows leaves undecided (no
      row, or d above the truncation): its pullback has no term of degree
      <= its truncation, so ps_test_single finds it "infinite" or
      "indeterminate";
    - a candidate whose S is nonzero with d even and a real positive
      coefficient at t^(d/2) conj(t)^(d/2): S is the lowest slice of its
      pullback, so ps_test_single finds it a "pass";
    - every candidate of a group whose balanced key holds a single row
      coeff * z^h * conj(z)^a with coeff real and > 0 and h_i = a_i in each
      of its slots (algebra.slice_torus_positive), unread.  A slot is an
      index with h_i or a_i nonzero, so exps[i] is nonzero there, and every
      candidate of both grouped stages has a nonzero leading coefficient
      c_i at such an index: the seed coefficients and the scan grid hold no
      zero, and a scan fixes its other present components to 1.  So the
      coefficient at t^(d/2) conj(t)^(d/2) is coeff * prod |c_i|^(2 h_i),
      real and > 0, S is nonzero, and the candidate passes as above.  The
      rule reads one group of rows once per exponent tuple.
    Every other candidate (S cancels, d is odd, or the middle coefficient
    is missing, not real or <= 0) and every Gram seed goes through
    ps_test_single, which alone decides a violation or raises on a middle
    coefficient that is not real.  The stream order is kept, so the first
    violation is the same as along _ps_candidates.
    """
    for z in _ps_suspects(g, bounds, gram):
        result = ps_test_single(g, z)
        if result.is_violation:
            witness = canonicalize_curve(z)
            verified = ps_test_single(g, witness)
            if not verified.is_violation:  # pragma: no cover - invariant guard
                witness, verified = z, result
            return PSCertificate(
                "violation",
                "search",
                witness=witness,
                witness_result=verified,
                bounds=bounds,
            )
    return PSCertificate("no_violation_up_to_bounds", "search", bounds=bounds)


# ---------------------------------------------------------------------------
# Germ-level stabilization check


@dataclass(frozen=True)
class StabilizationEntry:
    k: int
    restricted: CPolynomial
    certificate: PSCertificate


@dataclass(frozen=True)
class StabilizationReport:
    """Per-jet-order positivity verdicts and the observed stabilization order.

    The verdict is empirical: sound only up to k_max and the search bounds,
    and always for the canonical defining-function choice produced by the
    decomposition pipeline (not for every possible choice).
    """

    k_min: int
    k_max: int
    entries: tuple[StabilizationEntry, ...]
    k0: int | None
    bounds: SearchBudget
    note: str = (
        "empirical up to k_max and bounds; evaluates the canonical "
        "defining-function choice only"
    )

    def entry(self, k: int) -> StabilizationEntry:
        return self.entries[k - self.k_min]


def germ_ps_check(
    r: DefiningFunction,
    k_min: int,
    k_max: int,
    bounds: SearchBudget,
) -> StabilizationReport:
    """Run the truncate / decompose / solve / restrict pipeline for each jet
    order and combine the positivity verdicts.

    _restricted_jets gives each order's restricted jet.  For a rigid r
    (_rigid_graph, which gives the argument) that is the degree-<= k filter
    of its g, truncated at 2k, with no graph solve or restriction: what the
    pipeline gives, since its linear frame leaves each mixed term in place,
    h = z_n, phi = 0 exactly, and substituting (zeta, 0) drops the pure
    terms and the last slot.

    The Gram certificate is kept while the restricted terms equal the
    previous order's: gram_certificate reads the terms alone.  ps_search
    reads the truncation too, so it runs at every order whose certificate
    is not certified.
    """
    if not (2 <= k_min <= k_max):
        raise ValueError("need 2 <= k_min <= k_max")
    entries = []
    gres = gram = None
    for k, restricted in _restricted_jets(r, k_min, k_max):
        if gres is None or restricted.terms != gres.terms:
            gram = gram_certificate(restricted)
        gres = restricted
        cert = gram if gram.verdict == "certified" else ps_search(gres, bounds, gram)
        entries.append(StabilizationEntry(k, gres, cert))
    k0 = None
    for entry in reversed(entries):
        if entry.certificate.is_violation:
            break
        k0 = entry.k
    return StabilizationReport(k_min, k_max, tuple(entries), k0, bounds)


def _restricted_jets(r: DefiningFunction, k_min: int, k_max: int):
    """(k, the k-jet of r restricted to its graph, truncated at 2k) for k =
    k_min..k_max.

    The k-jet of r in the linear frame is read as an exact polynomial in its
    own right, without the jet marker, so that violations of order between
    k and 2k stay decidable.  When that exact copy is rigid
    (_rigid_graph, which gives the argument), the restricted k-jet is the
    degree-<= k filter of its g, truncated at 2k: filtering r's terms by
    degree keeps the rigid form, and g does not depend on the order.

    Otherwise the jet is split into (h, g) once, not once per k:
    truncation commutes with the pure/mixed split and with taking the
    holomorphic part, since all three keep or drop each term by its key
    alone (by degree, by whether it is pure, by whether its antiholomorphic
    exponent is zero).  So the h and g of the k-jet are exactly the terms of
    degree <= k of the h and g of the whole, and the checks of
    decompose_pure_mixed on the whole (conjugate-paired pure terms, a linear
    term in h) hold for every jet of order >= 1 with it.

    An order forms only what differs from the previous order's work; a
    jet of h or g is unchanged when it has as many terms as the previous
    one, since both are degree filters of one split.
    - phi is kept while h's jet is unchanged and phi is exact: solve_graph
      then takes its exact branch, whose phi does not depend on the order,
      and its machine check found h(zeta, phi) to have no term at all.
    - The untruncated restriction of g's jet to the graph is kept while
      that jet and phi are unchanged, and truncated at 2k for each order.
    """
    rigid = _rigid_graph(r.r)
    if rigid is not None:
        for k in range(k_min, k_max + 1):
            yield k, rigid.select(lambda key: key_degree(key) <= k).truncate(2 * k)
        return
    normalized, _images = _linear_frame(r)
    h, g = decompose_pure_mixed(CPolynomial(normalized.nvars, normalized.terms))
    hk = gk = phi = full = None
    for k in range(k_min, k_max + 1):
        work = 2 * k
        h_next = h.select(lambda key: key_degree(key) <= k)
        if phi is None or phi.truncation is not None or len(h_next.terms) != len(hk.terms):
            hk, phi, full = h_next, solve_graph(h_next, work), None
        g_next = g.select(lambda key: key_degree(key) <= k)
        if full is None or len(g_next.terms) != len(gk.terms):
            gk, full = g_next, restrict(g_next, phi)
        yield k, full.truncate(work)
