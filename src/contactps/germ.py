"""Hypersurface germ representation and positivity certification.

Every command reads a germ in one graph frame, built by one pipeline: a
linear change makes the linear part of r exactly 2Re(z_n), solve_graph
solves h = 0 for z_n, where h is the holomorphic half of r, and r is
restricted to that graph, where 2Re(h) vanishes and the mixed part g is left.
normalize_to_graph does this once through a degree bound; germ_ps_check
does it for each jet order.  Positivity of g is then certified structurally
(an exact Hermitian sum-of-squares decomposition) or refuted by a bounded
curve search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import ONE, ZERO, CPolynomial, GaussianRational
from .curve import CurveJet, PSTestResult, ps_test_single
from .search import (
    SEED_COEFFS,
    SearchBudget,
    canonicalize_curve,
    cancellation_scan_curves,
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

    Write h = c*z_n + rest.  When rest is free of z_n and has degree at most
    order, phi = -rest/c is the exact graph.  Otherwise phi is found by
    iterated jet refinement; each pass fixes one more degree.  The
    postcondition is machine-checked on every call.
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
    rest = h - CPolynomial(n, {lin_key: c})
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
    if not check.truncate(order).is_zero():
        raise SolveGraphError("graph series does not annihilate h to the required order")
    return phi


def restrict(g: CPolynomial, phi: CPolynomial, order: int) -> CPolynomial:
    """Substitute the last variable by phi (and its conjugate) and truncate."""
    n = g.nvars
    if phi.nvars != n - 1:
        raise ValueError("graph series has wrong variable count")
    zeta = [CPolynomial.variable(n - 1, j) for j in range(n - 1)]
    return g.substitute(zeta + [phi], n - 1).truncate(order)


# ---------------------------------------------------------------------------
# Graph normal form


@dataclass(frozen=True)
class GraphForm:
    """A germ in the graph frame r = 2Re(w) + g(zeta) + O(w).

    g is r restricted to the complex graph h = 0 of its holomorphic half, so
    it is mixed-only through degree pure_order_bound.  lift gives the
    original variables as polynomials in zeta along w = 0, so curves found
    in the graph frame map back exactly.
    """

    g: CPolynomial
    pure_order_bound: int
    lift: tuple[CPolynomial, ...]

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
        expr = expr - CPolynomial.variable(n, new_idx).scale(a[old_idx])
    images[pivot] = expr.scale(ONE / a[pivot])
    return images


def normalize_to_graph(r: DefiningFunction, K: int) -> GraphForm:
    """The graph frame of r through degree K.

    The same pipeline as germ_ps_check: a linear change makes the linear part
    2Re(z_n), solve_graph solves h = 0 for z_n, where h is the holomorphic
    half of r in the new coordinates, and r is restricted to that graph.
    There 2Re(h) vanishes, so the restriction is the mixed part g.
    """
    n = r.nvars
    images = _linear_images(r)
    normalized = r.r.substitute(images, n)
    phi = solve_graph(normalized.holomorphic_part(), K)
    graph = [CPolynomial.variable(n - 1, j) for j in range(n - 1)] + [phi]
    lift = tuple(im.substitute(graph, n - 1) for im in images)
    return GraphForm(normalized.substitute(graph, n - 1), K, lift)


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
            if d.im != 0:
                raise NotRealError("Gram matrix is not Hermitian")
            if d.re < 0:
                return "indefinite", back_substitute({i: ONE})
        pivot = None
        for i in active:  # already in graded-lex order: ties break lowest
            if H[i][i].re > 0:
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
        d = H[pivot][pivot].re
        u = {j: H[j][pivot] / H[pivot][pivot] for j in active}
        squares.append((d, u))
        pivots.append((pivot, u))
        active.remove(pivot)
        dg = GaussianRational(d)
        for a in active:
            for b in active:
                H[a][b] = H[a][b] - dg * u[a] * u[b].conjugate()
    return "psd", squares


def gram_certificate(g: CPolynomial) -> PSCertificate:
    """Structural positivity proof: exhibit g as a positive combination of
    squared moduli of holomorphic polynomials, or an indefinite direction."""
    if not g.is_real_valued():
        raise NotRealError("Gram certification needs a real-valued polynomial")
    if not g.pure_mixed_split()[0].is_zero():
        raise ValueError("Gram certification applies to mixed-only polynomials")
    monomials, H = gram_matrix(g)
    status, data = _psd_decompose(monomials, H)
    n = g.nvars
    if status == "psd":
        squares = []
        recon = CPolynomial.zero(n)
        for d, u in data:
            f_terms = {(monomials[j], (0,) * n): c for j, c in u.items() if not c.is_zero()}
            f = CPolynomial(n, f_terms)
            squares.append((d, f))
            recon = recon + (f * f.conjugate()).scale(GaussianRational(d))
        if recon.terms != g.terms:
            raise SolveGraphError("sum-of-squares reconstruction mismatch")
        return PSCertificate("certified", "gram", squares=tuple(squares))
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


def ps_search(g: CPolynomial, bounds: SearchBudget, gram: PSCertificate) -> PSCertificate:
    """Bounded search for a curve violating positivity.

    gram is the caller's `gram_certificate(g)`.  Candidates in deterministic
    order: monomial curves over the seed coefficients, seeds from its
    indefinite direction, then one-unknown coefficient scans.  The first
    violation wins; its witness is canonicalized by reparametrization and
    re-verified.
    """

    def candidates():
        yield from monomial_curves(g.nvars, bounds.max_degree)
        yield from _gram_seed_curves(g, gram.indefinite_direction)
        yield from cancellation_scan_curves(g.nvars, bounds.max_degree, bounds.coeff_height)

    for z in candidates():
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
    order and combine the positivity verdicts."""
    if not (2 <= k_min <= k_max):
        raise ValueError("need 2 <= k_min <= k_max")
    normalized = r.r.substitute(_linear_images(r), r.nvars)
    entries = []
    for k in range(k_min, k_max + 1):
        # The k-jet is an exact polynomial in its own right; drop the jet
        # marker so that violations of order between k and 2k stay decidable.
        jk = CPolynomial(normalized.nvars, normalized.truncate(k).terms)
        h, gk = decompose_pure_mixed(jk)
        work = 2 * k
        phi = solve_graph(h, work)
        gres = restrict(gk, phi, work)
        gram = gram_certificate(gres)
        cert = gram if gram.verdict == "certified" else ps_search(gres, bounds, gram)
        entries.append(StabilizationEntry(k, gres, cert))
    k0 = None
    for entry in reversed(entries):
        if entry.certificate.is_violation:
            break
        k0 = entry.k
    return StabilizationReport(k_min, k_max, tuple(entries), k0, bounds)
