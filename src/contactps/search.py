"""Curve candidate enumeration shared by the positivity and type searches.

All enumerations are deterministic: exponent tuples in graded-lex order,
coefficients in a fixed seed order, randomized candidates driven by an
explicit seed.  The regular and singular type searches read one stream
(monomial curves, then cancellation scans, then random curves; see
typecalc._candidates) through one loop (typecalc._best_contact) that filters
it by multiplicity: 1 for the regular type, up to max_multiplicity for the
singular type.  germ.ps_search keeps its
own order, with Gram-derived seeds between the monomial curves and the scans
and no random part.  Every search keeps the first witness its order reaches,
so witnesses are reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ONE, ZERO, GaussianRational
from .curve import CurveJet


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for curve searches; the seed makes randomized parts reproducible."""

    max_multiplicity: int = 4
    max_degree: int = 6
    coeff_height: int = 2
    random_trials: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("max_multiplicity", "max_degree", "coeff_height", "random_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


# Seed coefficients for exact searches, in canonical order.
SEED_COEFFS: tuple[GaussianRational, ...] = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(2),
    GaussianRational(-2),
)


def grid_coefficients(height: int) -> tuple[GaussianRational, ...]:
    """Nonzero (p + q*i)/s with |p|, |q| <= height and 1 <= s <= height."""
    seen = set()
    out = []
    for s in range(1, height + 1):
        for p in range(-height, height + 1):
            for q in range(-height, height + 1):
                if p == 0 and q == 0:
                    continue
                c = GaussianRational(Fraction(p, s), Fraction(q, s))
                key = (c.re, c.im)
                if key not in seen:
                    seen.add(key)
                    out.append(c)
    return tuple(out)


def exponent_tuples(nvars: int, max_degree: int):
    """Tuples in {0..max_degree}^nvars, graded-lex, skipping the zero tuple.

    A zero entry means the corresponding component is absent (identically 0).
    """
    tuples = [
        t
        for t in itertools.product(range(max_degree + 1), repeat=nvars)
        if any(t)
    ]
    tuples.sort(key=lambda t: (sum(t), t))
    return tuples


def monomial_curves(nvars: int, max_degree: int, coeffs=SEED_COEFFS):
    """All curves with single-monomial components over the seed coefficients."""
    for exps in exponent_tuples(nvars, max_degree):
        slots = [i for i, e in enumerate(exps) if e]
        for choice in itertools.product(coeffs, repeat=len(slots)):
            full = [ZERO] * nvars
            for i, c in zip(slots, choice):
                full[i] = c
            yield CurveJet.monomial(exps, full)


def cancellation_scan_curves(nvars: int, max_degree: int, coeff_height: int):
    """Monomial curves with one coefficient scanned over a bounded rational
    grid (solving one-unknown leading-term cancellations by exhaustion) and
    the remaining coefficients fixed to 1."""
    grid = grid_coefficients(coeff_height)
    for exps in exponent_tuples(nvars, max_degree):
        slots = [i for i, e in enumerate(exps) if e]
        for unknown in slots:
            for value in grid:
                coeffs = [ONE if i in slots else ZERO for i in range(nvars)]
                coeffs[unknown] = value
                yield CurveJet.monomial(exps, coeffs)


_RANDOM_POOL = tuple(
    GaussianRational(v)
    for v in (0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3)
) + tuple(GaussianRational(a, b) for a, b in ((0, 1), (0, -1), (1, 1), (-1, 1)))


def random_curves(nvars: int, budget: SearchBudget):
    """Seeded random polynomial curves with bounded multiplicity and degree."""
    rng = random.Random(budget.seed)
    produced = 0
    while produced < budget.random_trials:
        mult = rng.randint(1, budget.max_multiplicity)
        if mult > budget.max_degree:
            continue
        deg = rng.randint(mult, budget.max_degree)
        coeffs = []
        for _ in range(nvars):
            comp = {}
            for d in range(mult, deg + 1):
                c = rng.choice(_RANDOM_POOL)
                if not c.is_zero():
                    comp[d] = c
            coeffs.append(comp)
        lead = [cd.get(mult) for cd in coeffs]
        if all(c is None for c in lead):
            # Force the intended multiplicity.
            coeffs[rng.randrange(nvars)][mult] = GaussianRational(rng.choice((1, -1)))
        if all(not cd for cd in coeffs):
            continue
        produced += 1
        yield CurveJet.from_coeffs(coeffs)


_CANON_SCALES = SEED_COEFFS + tuple(GaussianRational(a, b) for a in (1, -1) for b in (1, -1))


def canonicalize_curve(z: CurveJet) -> CurveJet:
    """Normalize a witness modulo reparametrization t -> lam*t.

    Picks the lowest (degree, component) nonzero coefficient and rescales t,
    when a suitable Gaussian-rational lam exists, to make it 1.  Positivity
    verdicts are invariant under this rescaling.
    """
    best = None
    for i, comp in enumerate(z.components):
        for (h, _a), c in comp.terms.items():
            key = (h[0], i)
            if best is None or key < best[0]:
                best = (key, c)
    if best is None:
        return z
    (deg, _i), coeff = best
    if coeff == ONE:
        return z
    for lam in _CANON_SCALES:
        if coeff * lam ** deg == ONE:
            return z.reparametrize(lam)
    return z
