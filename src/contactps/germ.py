"""Hypersurface germ representation and positivity certification.

Every command reads a germ in one graph frame, decided once per
DefiningFunction from its linear frame (DefiningFunction.frame): a linear
change makes the linear part of r exactly 2Re(z_n), and r there is 2Re(h) +
mixed, h the holomorphic half of its pure part.  The change is read off
one pass over the linear slice that validate checked, and is no
substitution at all when the linear part is 2Re(z_n) already; one pass
over the terms of r in the frame (CPolynomial.graph_split) then forms the
pure and mixed parts, h, and the exact rule's g.  On the graph h = 0,
2Re(h) vanishes and g is the mixed part restricted to that graph, by one
rule:
- Exact rule: when no mixed term carries z_n or conj(z_n), g is the mixed
  part with its last slot dropped, exact for every degree bound, and each
  germ-ps jet is a degree filter of it.  Rigid germs (2Re(c*z_n) plus a
  mixed part free of z_n, the form of the paper's type-4 examples) are one
  case; germs whose pure part makes the graph a series are another.
- Series rule: otherwise solve_graph solves h = 0 for z_n through the degree
  bound, and only the mixed part is restricted to that graph: a jet unless
  the graph is exact, and its truncation says so.
D'Angelo's type (Ann. Math. 115, 1982) belongs to the true germ, not to a
jet, so a jet frame yields only lower bounds (typecalc.reg_type).
Positivity of g is certified structurally (an exact Hermitian
sum-of-squares decomposition, checked by summing its squares back to g in
raw integer arithmetic) or refuted by a bounded curve search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .algebra import (
    ONE,
    ZERO,
    CPolynomial,
    GaussianRational,
    balanced_key,
    key_conjugate,
    key_degree,
    key_is_pure,
    slice_positive_at,
    slice_torus_positive,
    term_table,
    weighted_square_terms,
)
from .curve import CurveJet, PSTestResult, leading_rows, ps_test_single
from .search import (
    SEED_COEFFS,
    SearchBudget,
    canonicalize_curve,
    cancellation_scan_choices,
    cancellation_scan_curves,
    check_search_size,
    monomial_choices,
    monomial_curves,
    monomial_vectors,
    scan_vectors,
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

    @cached_property
    def linear(self) -> CPolynomial:
        """The linear slice of r, which validate checks and the frame reads."""
        return self.r.homogeneous_slice(1)

    @cached_property
    def frame(self) -> LinearFrame:
        """The linear-frame split of r, shared by every graph frame and
        germ-ps run on this r."""
        return _linear_frame(self)


def validate(r: CPolynomial) -> DefiningFunction:
    if not r.is_real_valued():
        raise NotRealError("defining function must be real-valued")
    if not r.constant_term().is_zero():
        raise NonzeroConstantError("defining function must vanish at the origin")
    df = DefiningFunction(r)
    if df.linear.is_zero():
        raise NoLinearPartError("defining function must have dr(0) != 0")
    return df


def _check_holomorphic_half(pure: CPolynomial, h: CPolynomial) -> None:
    """Raise unless pure = 2Re(h) and h has a linear term."""
    if (h + h.conjugate()) != pure:
        raise NotRealError("input is not real-valued: pure terms are not conjugate-paired")
    if h.homogeneous_slice(1).is_zero():
        raise DegenerateLinearPartError("holomorphic half has no linear part")


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
    zeta = list(_zeta(n - 1))
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


def restrict(g: CPolynomial, phi: CPolynomial) -> CPolynomial:
    """Substitute the last variable by phi (and its conjugate)."""
    n = g.nvars
    if phi.nvars != n - 1:
        raise ValueError("graph series has wrong variable count")
    return g.substitute(_zeta(n - 1) + (phi,), n - 1)


# ---------------------------------------------------------------------------
# Graph normal form


@dataclass(frozen=True)
class LinearFrame:
    """r split in the coordinates where its linear part is 2Re(z_n): r is
    pure + mixed there, h is the holomorphic half of pure, and images gives
    the original variables there.  g is the exact rule's g, or None when
    n < 2 or a mixed term carries z_n or conj(z_n): substituting (zeta, phi)
    moves each mixed term free of z_n to its own key without the last slot,
    times 1, whatever phi is.  graphs memoizes graph(K)."""

    images: tuple[CPolynomial, ...]
    pure: CPolynomial
    mixed: CPolynomial
    h: CPolynomial
    g: CPolynomial | None
    graphs: dict = field(default_factory=dict, compare=False, repr=False)

    def graph(self, K: int) -> tuple[CPolynomial, ...]:
        """The variables of the linear frame along w = 0 as polynomials in
        zeta: (zeta, phi), phi = solve_graph(h, K)."""
        found = self.graphs.get(K)
        if found is None:
            m = self.h.nvars - 1
            phi = solve_graph(self.h, K)
            found = self.graphs[K] = _zeta(m) + (phi,)
        return found


def _zeta(m: int) -> tuple[CPolynomial, ...]:
    return tuple(CPolynomial.variable(m, j) for j in range(m))


@dataclass(frozen=True)
class GraphForm:
    """A germ in the graph frame r = 2Re(w) + g(zeta) + O(w).

    g is r restricted to the graph h = 0, mixed-only through degree
    pure_order_bound; it is exact (truncation None) under the exact rule or
    when the graph is exact, and otherwise decides only what its terms
    decide.  frame is r's linear frame, or None for a mixed-only entry, which
    is g itself in the frame w = 0.  graph gives the linear frame's variables
    along w = 0 in zeta, and lift the original ones (exact when the graph
    is); only a sing-search witness reads them, so both are formed on first
    read."""

    g: CPolynomial
    pure_order_bound: int
    frame: LinearFrame | None = None

    @property
    def images(self) -> tuple[CPolynomial, ...]:
        if self.frame is not None:
            return self.frame.images
        return _zeta(self.g.nvars + 1)

    @cached_property
    def graph(self) -> tuple[CPolynomial, ...]:
        if self.frame is not None:
            return self.frame.graph(self.pure_order_bound)
        return _zeta(self.g.nvars) + (CPolynomial.zero(self.g.nvars),)

    @cached_property
    def lift(self) -> tuple[CPolynomial, ...]:
        return tuple(im.substitute(self.graph, self.g.nvars) for im in self.images)

    def lift_curve(self, eta: CurveJet) -> CurveJet:
        """Map a curve in the zeta-frame (w = 0) back to original coordinates."""
        return CurveJet(tuple(x.substitute(eta.components, 1) for x in self.lift))


def _linear_images(r: DefiningFunction) -> tuple[CPolynomial, ...]:
    """The original variables in new coordinates where the linear part of r
    is exactly 2Re(z_n): the variables themselves (_zeta(n)) when the
    holomorphic linear part of r is z_n already."""
    n = r.nvars
    a = [ZERO] * n
    for (h, anti), c in r.linear.terms.items():
        if not any(anti):
            a[h.index(1)] = c
    if a[-1] == ONE and all(c.is_zero() for c in a[:-1]):
        return _zeta(n)
    pivot = max(i for i in range(n) if not a[i].is_zero())
    others = [i for i in range(n) if i != pivot]
    images: list[CPolynomial | None] = [None] * n
    expr = CPolynomial.variable(n, n - 1)
    for new_idx, old_idx in enumerate(others):
        images[old_idx] = CPolynomial.variable(n, new_idx)
        if not a[old_idx].is_zero():
            expr = expr - images[old_idx].scale(a[old_idx])
    images[pivot] = expr.scale(ONE / a[pivot])
    return tuple(images)


def _linear_frame(r: DefiningFunction) -> LinearFrame:
    """The linear-frame split of r, in one pass over the terms of r in the
    linear frame (CPolynomial.graph_split), which also decides the exact
    rule and forms its g.  When the linear part of r is 2Re(z_n) already,
    r is split as it is: substituting the identity images would give the
    same terms in the same order, with the same truncation."""
    n = r.nvars
    images = _linear_images(r)
    normalized = r.r if images == _zeta(n) else r.r.substitute(images, n)
    return LinearFrame(images, *normalized.graph_split())


def normalize_to_graph(r: DefiningFunction, K: int) -> GraphForm:
    """The graph frame of r through degree K, read off r.frame: the exact
    rule's g, or the mixed part restricted to the graph solved through K,
    which agrees with r's restriction through K since 2Re(h) vanishes
    there."""
    frame = r.frame
    if frame.g is not None:
        return GraphForm(frame.g, K, frame)
    return GraphForm(restrict(frame.mixed, frame.graph(K)[-1]), K, frame)


# ---------------------------------------------------------------------------
# Positivity certificates


class PSCertificate(NamedTuple):
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
    then one-unknown coefficient scans.  ps_search walks it tuple by tuple
    (_ps_suspects)."""
    yield from monomial_curves(g.nvars, bounds.max_degree)
    yield from _gram_seed_curves(g, gram.indefinite_direction)
    yield from cancellation_scan_curves(g.nvars, bounds.max_degree, bounds.coeff_height)


def _ps_suspects(g: CPolynomial, bounds: SearchBudget, gram: PSCertificate):
    """The curves of _ps_candidates, in stream order, less those whose
    leading slice proves that they pass (ps_search gives the argument).
    One term_table of g, one memo of each tuple's rows and one memo of lead
    powers serve both grouped stages."""
    shared = term_table(g), {}, {}
    yield from _stage_suspects(g, bounds, False, *shared)
    yield from _gram_seed_curves(g, gram.indefinite_direction)
    yield from _stage_suspects(g, bounds, True, *shared)


def _stage_suspects(g: CPolynomial, bounds: SearchBudget, scan: bool, table: tuple,
                    memo: dict, powers: dict):
    """The suspects of the monomial stage, or of the scan stage if scan."""
    for exps, _count in (cancellation_scan_choices(g.nvars, bounds.max_degree,
                                                   bounds.coeff_height) if scan
                         else monomial_choices(g.nvars, bounds.max_degree)):
        if exps not in memo:
            memo[exps] = _suspect_rows(g, table, exps)
        found = memo[exps]
        if found is None:
            continue
        rows, mid = found
        for v in scan_vectors(exps, bounds.coeff_height) if scan else monomial_vectors(exps):
            if not slice_positive_at(rows, mid, v, powers):
                yield CurveJet.monomial(exps, v)


def _suspect_rows(g: CPolynomial, table: tuple, exps: tuple[int, ...]):
    """(rows, mid) of the tuple exps, mid its balanced bidegree, or None
    when every candidate of the tuple passes unread."""
    found = leading_rows(g, table, exps)
    if found is None:
        return None
    d, rows = found
    # A pass is read off the balanced coefficient alone; for odd d no row
    # lands on mid.
    mid = balanced_key(d)
    return None if slice_torus_positive(rows, mid) else (rows, mid)


def ps_search(g: CPolynomial, bounds: SearchBudget, gram: PSCertificate) -> PSCertificate:
    """Bounded search for a curve violating positivity.

    gram is the caller's `gram_certificate(g)`.  Candidates in deterministic
    order (_ps_candidates): monomial curves over the seed coefficients,
    seeds from its indefinite direction, then one-unknown coefficient scans.
    The first violation wins; its witness is canonicalized by
    reparametrization and re-verified.

    The monomial curves and the scans are read one exponent tuple at a time
    through curve.leading_rows, which gives, from one term_table of g, the
    rows whose sum over a curve's leading coefficients is the degree-d
    slice S of its pullback; a memo keeps them for both stages, so each
    tuple's rows are formed once per search.  Three kinds of candidate
    cannot be violations and are skipped without building a curve:
    - every candidate of a tuple that leading_rows leaves undecided (no
      row, or d above the truncation): its pullback has no term of degree
      <= its truncation, so ps_test_single finds it "infinite" or
      "indeterminate";
    - a candidate whose S is nonzero with d even and a real positive
      coefficient at t^(d/2) conj(t)^(d/2): S is the lowest slice of its
      pullback, so ps_test_single finds it a "pass";
    - every candidate of a tuple whose balanced key holds a single row
      coeff * z^h * conj(z)^a with coeff real and > 0 and h_i = a_i in each
      of its slots (algebra.slice_torus_positive), unread.  A slot is an
      index with h_i or a_i nonzero, so exps[i] is nonzero there, and every
      candidate of both grouped stages has a nonzero leading coefficient
      c_i at such an index: the seed coefficients and the scan grid hold no
      zero, and a scan fixes its other present components to 1.  So the
      coefficient at t^(d/2) conj(t)^(d/2) is coeff * prod |c_i|^(2 h_i),
      real and > 0, S is nonzero, and the candidate passes as above.  The
      rule reads the rows of a tuple once per search.
    Every other candidate (S cancels, d is odd, or the middle coefficient
    is missing, not real or <= 0) and every Gram seed goes through
    ps_test_single, which alone decides a violation or raises on a middle
    coefficient that is not real.  The stream order is kept, so the first
    violation is the same as along _ps_candidates.
    """
    check_search_size(g.nvars, bounds)
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


class StabilizationEntry(NamedTuple):
    k: int
    restricted: CPolynomial
    certificate: PSCertificate


class StabilizationReport(NamedTuple):
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
    certify,
) -> StabilizationReport:
    """Certify or search the restricted jet of each order
    (_restricted_jets) and combine the positivity verdicts.

    certify(g) gives gram_certificate(g), so a caller can form one per term
    set and share it (report.GermAnalysis).  ps_search reads the truncation
    too, so it runs at every order whose certificate is not certified.
    """
    if not (2 <= k_min <= k_max):
        raise ValueError("need 2 <= k_min <= k_max")
    entries = []
    for k, restricted in _restricted_jets(r, k_min, k_max):
        gram = certify(restricted)
        cert = gram if gram.verdict == "certified" else ps_search(restricted, bounds, gram)
        entries.append(StabilizationEntry(k, restricted, cert))
    k0 = None
    for entry in reversed(entries):
        if entry.certificate.is_violation:
            break
        k0 = entry.k
    return StabilizationReport(k_min, k_max, tuple(entries), k0, bounds)


def _restricted_jets(r: DefiningFunction, k_min: int, k_max: int):
    """(k, the k-jet of r restricted to its graph, truncated at 2k) for k =
    k_min..k_max, read off the split of r.frame.

    The k-jet is read as an exact polynomial, without the jet marker, so
    that violations of order between k and 2k stay decidable.  Truncation
    commutes with the pure/mixed split and with taking the holomorphic
    part, which keep or drop each term by its key alone, so the k-jet's h
    and mixed part are the degree-<= k filters of the frame's, and the
    checks of _check_holomorphic_half on the whole hold for every such jet.
    Under the exact rule the restricted k-jet is thus the degree-<= k
    filter of the frame's g.

    Otherwise an order forms only what differs from the previous order's
    work; a filter is unchanged when it has as many terms as the previous
    one.  phi is kept while h's jet is unchanged and phi is exact
    (solve_graph's exact branch, whose phi does not depend on the order and
    solves h = 0 exactly), and the untruncated restriction of the mixed
    jet while it and phi are unchanged.
    """
    frame = r.frame
    _check_holomorphic_half(frame.pure, frame.h)
    if frame.g is not None:
        g = CPolynomial(frame.g.nvars, frame.g.terms)
        for k in range(k_min, k_max + 1):
            yield k, g.select(lambda key: key_degree(key) <= k).truncate(2 * k)
        return
    h, g = (CPolynomial(p.nvars, p.terms) for p in (frame.h, frame.mixed))
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
