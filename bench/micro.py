"""Microbenchmarks of the algebra layer on recorded operand mixes.

The operands are recorded, not invented: GaussianRational and CPolynomial
methods are swapped for recording wrappers while the falsify hot path (the
pullback of a falsify germ along a sample of its sing-search candidates) or
the Gram certificates of the corpus run, and the originals are put back
before anything is timed.  Each figure is the median over repetitions of the
per-operation time, with the cost of the bare loop subtracted.
"""

from __future__ import annotations

import statistics
import time

from contactps.algebra import CPolynomial, GaussianRational
from contactps.curve import pullback
from contactps.expr import parse_problem
from contactps.germ import gram_certificate, normalize_to_graph, validate
from contactps.search import SearchBudget, cancellation_scan_curves, monomial_curves, random_curves

REPS = 7
MAX_PAIRS = 3000


def _record(cls, name: str, action) -> list[tuple]:
    """Operand pairs of cls.name while action() runs, evenly thinned."""
    original = cls.__dict__[name]
    seen: list[tuple] = []

    def recorder(a, b):
        seen.append((a, b))
        return original(a, b)

    setattr(cls, name, recorder)
    try:
        action()
    finally:
        setattr(cls, name, original)
    step = max(1, len(seen) // MAX_PAIRS)
    return seen[::step][:MAX_PAIRS]


def _noop(a, b):
    return None


def _per_op_seconds(pairs, op) -> float:
    """Median over REPS of (loop calling op - loop calling a no-op) / len(pairs)."""
    samples = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        t1 = time.perf_counter()
        for a, b in pairs:
            _noop(a, b)
        t2 = time.perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / len(pairs))
    return statistics.median(samples)


def _falsify_sample(source: str, every: int = 100):
    """A falsify germ's graph-frame g and every `every`-th candidate of its
    sing-search enumeration under the falsify budget."""
    g = normalize_to_graph(validate(parse_problem(source).entry), 8).g
    budget = SearchBudget(max_multiplicity=4, max_degree=8, coeff_height=2,
                          random_trials=3000, seed=11)
    curves = []
    for gen in (monomial_curves(g.nvars, 8), cancellation_scan_curves(g.nvars, 8, 2),
                random_curves(g.nvars, budget)):
        curves.extend(z for z in gen if z.multiplicity() <= 4)
    return g, curves[::every]


def run(falsify_source: str, gram_sources: list[str]) -> dict[str, float]:
    g, curves = _falsify_sample(falsify_source)

    def pullbacks(sample):
        return lambda: [pullback(g, z) for z in sample]

    scalar_sample = curves[::10]
    mul = _record(GaussianRational, "__mul__", pullbacks(scalar_sample))
    add = _record(GaussianRational, "__add__", pullbacks(scalar_sample))
    poly = _record(CPolynomial, "__mul__", pullbacks(curves[::4]))

    def grams():
        for source in gram_sources:
            entry = parse_problem(source).entry
            if not entry.homogeneous_slice(1).is_zero():
                entry = normalize_to_graph(validate(entry), max(4, entry.total_degree())).g
            gram_certificate(entry)

    div = _record(GaussianRational, "__truediv__", grams)
    subst = [(g, list(z.components)) for z in curves]
    return {
        "algebra.gr_mul_ns": _per_op_seconds(mul, lambda a, b: a * b) * 1e9,
        "algebra.gr_add_ns": _per_op_seconds(add, lambda a, b: a + b) * 1e9,
        "algebra.gr_div_ns": _per_op_seconds(div, lambda a, b: a / b) * 1e9,
        "algebra.poly_mul_us": _per_op_seconds(poly, lambda a, b: a * b) * 1e6,
        "algebra.substitute_us": _per_op_seconds(subst, lambda p, im: p.substitute(im, 1)) * 1e6,
    }
