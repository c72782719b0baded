"""Candidate streams: the seeded random stage against its reference."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactps.algebra import ZERO
from contactps.search import SearchBudget, random_draws

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
