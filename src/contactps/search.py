"""Curve candidate enumeration shared by the positivity and type searches.

All enumerations are deterministic: exponent tuples in graded-lex order,
coefficients in a fixed seed order, randomized candidates driven by an
explicit seed.  A search first checks the size of what it would enumerate
(check_search_size): more than MAX_EXPONENT_TUPLES exponent tuples or
MAX_GRID_POINTS scan grid points is refused with a SearchTooLargeError
before anything is built.

Each stage has one definition, a light stream without curves:
monomial_choices and cancellation_scan_choices yield, per exponent tuple,
the tuple and its number of candidates, and monomial_vectors and
scan_vectors yield a tuple's coefficient vectors, in stream order, only
when a search asks for them; random_draws yields, per seeded random
curve, its leading exponents, its leading coefficient vector and its
coefficient dicts, drawn straight from one generator's getrandbits by a
rejection rule this module owns.  monomial_curves, cancellation_scan_curves
and random_curves are the CurveJet expansions of these streams, so the
order and the random sequence each have one definition.  The streams give
every present component a nonzero coefficient; only absent components get
ZERO.

The regular and singular type searches read one stream (monomial curves,
then cancellation scans, then random curves; see typecalc._candidates),
filtered by multiplicity: 1 for the regular type, up to max_multiplicity
for the singular type.  Their loop (typecalc._best_contact) walks the
exponent tuples of the monomial stream, scoring each tuple once from one
term table of the searched polynomial, then those of the scan stream,
where a tuple that the leading terms decide only adds its count, in
stream order; it asks for a tuple's vectors only when some candidate's
leading slice may cancel, and builds a curve only where the leading terms
do not decide the order.  A random draw is read through the score of its
leading exponents, and the loop skips the random stream altogether when
the other two stages leave it nothing to decide.  germ.ps_search keeps
its own order, with Gram-derived seeds between the monomial curves and the
scans and no random part (germ._ps_candidates); it reads the monomial and
scan streams tuple by tuple as well, with one term table and one memo of
each tuple's rows for both, and builds a curve only for a candidate whose
leading terms leave it able to fail, and for each Gram seed.  Every
search keeps the first witness its order reaches, so witnesses are
reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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


# The largest enumerations a search builds; at either limit the structure
# builds in about a second and well under 200 MB.
MAX_EXPONENT_TUPLES = 1_000_000
MAX_GRID_POINTS = 100_000


class SearchTooLargeError(ValueError):
    """A budget whose enumeration is above MAX_EXPONENT_TUPLES or
    MAX_GRID_POINTS over the variables searched."""


def search_sizes(nvars: int, budget: SearchBudget) -> tuple[int, int]:
    """(exponent tuples, grid points) that the monomial and scan stages
    enumerate over nvars variables under budget, computed without building
    either: (max_degree + 1)^nvars - 1 tuples (exponent_tuples) and
    coeff_height * (2 * coeff_height + 1)^2 points (grid_coefficients)."""
    h = budget.coeff_height
    return (budget.max_degree + 1) ** nvars - 1, h * (2 * h + 1) ** 2


def check_search_size(nvars: int, budget: SearchBudget) -> None:
    """Raise SearchTooLargeError when search_sizes is above either limit."""
    tuples, points = search_sizes(nvars, budget)
    if tuples > MAX_EXPONENT_TUPLES:
        raise SearchTooLargeError(
            f"search too large: {nvars} variables up to degree {budget.max_degree} give more "
            f"than {MAX_EXPONENT_TUPLES} exponent tuples")
    if points > MAX_GRID_POINTS:
        raise SearchTooLargeError(
            f"search too large: coefficient height {budget.coeff_height} gives more than "
            f"{MAX_GRID_POINTS} grid points")


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


@cache
def grid_coefficients(height: int) -> tuple[GaussianRational, ...]:
    """Nonzero (p + q*i)/s with |p|, |q| <= height and 1 <= s <= height,
    built once per height: every scan stage of a process shares the tuple,
    whose scalars are immutable."""
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


@cache
def exponent_tuples(nvars: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """Tuples in {0..max_degree}^nvars, graded-lex, skipping the zero tuple;
    formed once per (nvars, max_degree) in a process.  product yields them
    in lex order, so a stable sort by degree alone makes them graded-lex.

    A zero entry means the corresponding component is absent (identically 0).
    """
    tuples = [t for t in itertools.product(range(max_degree + 1), repeat=nvars) if any(t)]
    tuples.sort(key=sum)
    return tuple(tuples)


def monomial_choices(nvars: int, max_degree: int):
    """The monomial curves over the seed coefficients, one exponent tuple at
    a time: (exps, count) per tuple of exponent_tuples, where count is the
    number of coefficient vectors that monomial_vectors(exps) yields."""
    for exps in exponent_tuples(nvars, max_degree):
        yield exps, len(SEED_COEFFS) ** (nvars - exps.count(0))


def monomial_vectors(exps: tuple[int, ...]):
    """The coefficient vectors of the monomial curves with exponents exps, in
    product order: the seed coefficients in the present components, ZERO in
    the absent ones."""
    slots = [i for i, e in enumerate(exps) if e]
    for choice in itertools.product(SEED_COEFFS, repeat=len(slots)):
        full = [ZERO] * len(exps)
        for i, c in zip(slots, choice):
            full[i] = c
        yield full


def cancellation_scan_choices(nvars: int, max_degree: int, coeff_height: int):
    """The cancellation scans, one exponent tuple at a time: (exps, count)
    per tuple of exponent_tuples, where count is the number of coefficient
    vectors that scan_vectors(exps, coeff_height) yields."""
    grid = len(grid_coefficients(coeff_height))
    for exps in exponent_tuples(nvars, max_degree):
        yield exps, (nvars - exps.count(0)) * grid


def scan_vectors(exps: tuple[int, ...], coeff_height: int):
    """The coefficient vectors of the cancellation scans with exponents exps:
    one present component scanned over the grid, the other present
    components 1, the absent ones ZERO."""
    slots = [i for i, e in enumerate(exps) if e]
    for unknown in slots:
        for value in grid_coefficients(coeff_height):
            coeffs = [ONE if e else ZERO for e in exps]
            coeffs[unknown] = value
            yield coeffs


def monomial_curves(nvars: int, max_degree: int):
    """All curves with single-monomial components over the seed coefficients."""
    for exps, _count in monomial_choices(nvars, max_degree):
        for v in monomial_vectors(exps):
            yield CurveJet.monomial(exps, v)


def cancellation_scan_curves(nvars: int, max_degree: int, coeff_height: int):
    """Monomial curves with one coefficient scanned over a bounded rational
    grid (solving one-unknown leading-term cancellations by exhaustion) and
    the remaining coefficients fixed to 1."""
    for exps, _count in cancellation_scan_choices(nvars, max_degree, coeff_height):
        for v in scan_vectors(exps, coeff_height):
            yield CurveJet.monomial(exps, v)


# The pool of random coefficients; its first _POOL_ZEROS entries are zero,
# so a drawn index below _POOL_ZEROS leaves the degree out.
_POOL_ZEROS = 3
_RANDOM_POOL = (ZERO,) * _POOL_ZEROS + tuple(
    GaussianRational(v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3)
) + tuple(GaussianRational(a, b) for a, b in ((0, 1), (0, -1), (1, 1), (-1, 1)))
_SIGNS = (ONE, -ONE)


def draw_below(bits, n: int) -> int:
    """A number in range(n), n > 0, from bits, the getrandbits of a
    random.Random, by the rule of its randint, randrange and choice: k =
    n.bit_length() bits, drawn again until they read less than n.  So it
    consumes the generator exactly as those calls do."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_draws(nvars: int, budget: SearchBudget):
    """The seeded random curves: (exps, lead, coeffs) per curve, where
    coeffs is one {degree: nonzero coefficient} dict per component, not all
    empty, exps the components' leading degrees (0 for an empty one) and
    lead their leading coefficients (ZERO for an empty one).

    Every number comes from one generator seeded with budget.seed, by one
    rule (draw_below, inlined for the pool indices).  A draw takes its
    multiplicity in 1..max_multiplicity (drawn again while above
    max_degree) and its degree in mult..max_degree, then one pool index per
    degree and component, component by component.  When no component starts
    at mult, a sign and then a component index force the multiplicity: the
    sign is drawn first, and its key goes last in that component's dict."""
    bits = random.Random(budget.seed).getrandbits
    pool = _RANDOM_POOL
    npool = len(pool)
    kpool = npool.bit_length()
    max_mult, max_deg = budget.max_multiplicity, budget.max_degree
    for _ in range(budget.random_trials):
        mult = 1 + draw_below(bits, max_mult)
        while mult > max_deg:
            mult = 1 + draw_below(bits, max_mult)
        deg = mult + draw_below(bits, max_deg - mult + 1)
        coeffs, exps, lead = [], [0] * nvars, [ZERO] * nvars
        for i in range(nvars):
            comp = {}
            for d in range(mult, deg + 1):
                r = bits(kpool)
                while r >= npool:
                    r = bits(kpool)
                if r >= _POOL_ZEROS:
                    c = pool[r]
                    if not comp:
                        exps[i], lead[i] = d, c
                    comp[d] = c
            coeffs.append(comp)
        if mult not in exps:
            sign = _SIGNS[draw_below(bits, 2)]
            i = draw_below(bits, nvars)
            coeffs[i][mult] = sign
            exps[i], lead[i] = mult, sign
        yield tuple(exps), lead, coeffs


def random_curves(nvars: int, budget: SearchBudget):
    """Seeded random polynomial curves with bounded multiplicity and degree."""
    for _exps, _lead, coeffs in random_draws(nvars, budget):
        yield CurveJet.from_coeffs(coeffs)


_CANON_SCALES = SEED_COEFFS + tuple(GaussianRational(a, b) for a in (1, -1) for b in (1, -1))


def canonicalize_curve(z: CurveJet) -> CurveJet:
    """Normalize a witness modulo reparametrization t -> lam*t.

    Picks the leading coefficient of the first component of least order
    (CurveJet.leading_terms) and rescales t, when a suitable
    Gaussian-rational lam exists, to make it 1.  Positivity verdicts are
    invariant under this rescaling.
    """
    exps, lead = z.leading_terms()
    deg = z.multiplicity()
    coeff = lead[exps.index(deg)]
    if coeff == ONE:
        return z
    for lam in _CANON_SCALES:
        if coeff * lam ** deg == ONE:
            return z.reparametrize(lam)
    return z
