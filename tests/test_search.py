"""Candidate streams: the seeded random stage against its reference, the
scan grid, the exponent tuples, and the size limits of a search, which
every search of the benchmark's ops stays below."""

import itertools
import pathlib
import random
import runpy
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactps.algebra import ZERO, GaussianRational
from contactps.cli import _parse
from contactps.expr import parse_problem
from contactps.report import GermAnalysis
from contactps.search import (MAX_EXPONENT_TUPLES, MAX_GRID_POINTS, SearchBudget,
                              SearchTooLargeError, check_search_size, exponent_tuples,
                              grid_coefficients, random_draws, search_sizes)
from contactps.typecalc import reg_budget

from conftest import random_draws_reference


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(nvars=st.integers(1, 4), max_mult=st.integers(1, 7), max_deg=st.integers(1, 9),
       trials=st.integers(1, 60), seed=st.integers(0, 65535))
@example(nvars=3, max_mult=4, max_deg=8, trials=60, seed=0)
@example(nvars=2, max_mult=7, max_deg=2, trials=60, seed=1)
def test_random_draws_match_the_reference(nvars, max_mult, max_deg, trials, seed):
    """random_draws, on getrandbits and its own rejection rule, yields the
    curves of the reference drawn through random.Random's choice, randint
    and randrange: the same dicts with the same key order, for budgets
    whose multiplicity may exceed max_degree (those draws are skipped).
    The forced-multiplicity assignment of the reference evaluates its right
    side first, so the sign is drawn before the component index; the other
    order diverges at the first forced draw.  exps and lead are the
    leading degrees and coefficients of the yielded dicts."""
    budget = SearchBudget(max_multiplicity=max_mult, max_degree=max_deg,
                          random_trials=trials, seed=seed)
    draws = list(random_draws(nvars, budget))
    reference = list(random_draws_reference(nvars, budget))
    assert [coeffs for _exps, _lead, coeffs in draws] == reference
    for (exps, lead, coeffs), ref in zip(draws, reference):
        assert [list(cd) for cd in coeffs] == [list(cd) for cd in ref]
        assert exps == tuple(min(cd, default=0) for cd in coeffs)
        assert lead == [cd[e] if e else ZERO for cd, e in zip(coeffs, exps)]


def test_grid_coefficients_are_built_once_per_height():
    """Every call at a height returns the one tuple built for it, holding
    the nonzero (p + q*i)/s with |p|, |q| <= height and 1 <= s <= height,
    first-seen order, each value once."""
    for height in (1, 2, 3):
        grid = grid_coefficients(height)
        assert grid_coefficients(height) is grid
        span = range(-height, height + 1)
        assert grid == tuple(dict.fromkeys(
            GaussianRational(Fraction(p, s), Fraction(q, s))
            for s in range(1, height + 1) for p in span for q in span if p or q))
    assert len(grid_coefficients(1)) == 8


@pytest.mark.parametrize("nvars, max_degree", [(1, 5), (2, 4), (3, 3), (4, 1), (3, 6)])
def test_exponent_tuples_are_graded_lex(nvars, max_degree):
    reference = sorted((t for t in itertools.product(range(max_degree + 1), repeat=nvars)
                        if any(t)), key=lambda t: (sum(t), t))
    assert exponent_tuples(nvars, max_degree) == tuple(reference)


def test_search_sizes_count_what_the_stages_build():
    """search_sizes gives the number of exponent tuples, and a bound on the
    scalars of the grid, which keeps each value once."""
    for nvars, max_degree, height in ((1, 3, 1), (2, 4, 2), (3, 2, 3)):
        budget = SearchBudget(max_degree=max_degree, coeff_height=height)
        tuples, points = search_sizes(nvars, budget)
        assert tuples == len(exponent_tuples(nvars, max_degree))
        assert len(grid_coefficients(height)) < points


@pytest.mark.parametrize("nvars, budget, allowed", [
    (7, SearchBudget(), True),  # n = 8 at the default --max-deg 6
    (8, SearchBudget(), False),
    (6, SearchBudget(max_degree=9), True),
    (19, SearchBudget(max_degree=1), True),
    (20, SearchBudget(max_degree=1), False),
    (2, SearchBudget(coeff_height=28), True),
    (2, SearchBudget(coeff_height=29), False),
    (100_000, SearchBudget(), False),
])
def test_check_search_size_refuses_above_either_limit(nvars, budget, allowed):
    tuples, points = search_sizes(nvars, budget)
    assert (tuples <= MAX_EXPONENT_TUPLES and points <= MAX_GRID_POINTS) is allowed
    if allowed:
        check_search_size(nvars, budget)
    else:
        with pytest.raises(SearchTooLargeError, match="^search too large: "):
            check_search_size(nvars, budget)


def _benchmark_ops():
    """Every op that bench/workloads.py forms for each workload, over a few
    seeds: its rounds, warm-up sets and determinism sets."""
    workloads = runpy.run_path(str(pathlib.Path(__file__).resolve().parent.parent
                                   / "bench" / "workloads.py"))
    for workload in ("falsify", "report_all", "certify"):
        yield from workloads["warmup_ops"](workload)
        for seed in range(8):
            rng = random.Random(seed)
            yield from workloads["make_round"](workload, rng)
            yield from workloads["determinism_ops"](workload, rng)


def test_benchmark_searches_stay_below_the_size_limits():
    """A limit that refused a benchmark op would fail it: every command of
    every op is parsed as the CLI parses it, and each budget it searches
    with (the search options, and reg-type's budget under --max) has
    search_sizes below both limits over the entry's n variables, at least
    as many as any search of the command reads."""
    checked = set()
    for op in _benchmark_ops():
        for argv in op.commands:
            _command, file, options, _json = _parse("contactps", list(argv))
            analysis = GermAnalysis(None, options)
            budgets = ([analysis.budget] if "max_deg" in options else []) + \
                ([reg_budget(analysis.cap)] if "max" in options else [])
            if budgets:
                nvars = parse_problem(pathlib.Path(file).read_text(encoding="utf-8")).nvars
                checked.update(search_sizes(nvars, b) for b in budgets)
    assert len(checked) > 3
    assert [s for s in checked if s[0] > MAX_EXPONENT_TUPLES or s[1] > MAX_GRID_POINTS] == []
