"""Candidate streams: the seeded random stage against its reference, and
the scan grid."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactps.algebra import ZERO, GaussianRational
from contactps.search import SearchBudget, grid_coefficients, random_draws

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
