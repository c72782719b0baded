import random
from fractions import Fraction

import pytest

from contactps.algebra import CPolynomial, GaussianRational
from contactps.search import _RANDOM_POOL


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def random_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


def random_poly(rng, nvars=2, max_deg=3, nterms=4, truncation=None):
    terms = {}
    for _ in range(nterms):
        holo = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        anti = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[(holo, anti)] = random_scalar(rng)
    return CPolynomial(nvars, terms, truncation)


def product_rule_check(p, q, index, anti):
    """d(pq) == dp*q + p*dq for the Wirtinger derivative in z_index (or its
    conjugate)."""
    lhs = (p * q).wirtinger(index, anti)
    rhs = p.wirtinger(index, anti) * q + p * q.wirtinger(index, anti)
    return lhs == rhs


def initial_coefficients_reference(rows, coeffs):
    """The GaussianRational-object evaluation of the lowest slice that
    algebra.initial_coefficients replaced: each row's leading product built
    from scalar products and powers, summed per bidegree key, zeros
    dropped."""
    conjs = [c.conjugate() for c in coeffs]
    out = {}
    for key, h, a, coeff in rows:
        c = coeff
        for e, f, ci, cj in zip(h, a, coeffs, conjs):
            if e:
                c = c * (ci if e == 1 else ci ** e)
            if f:
                c = c * (cj if f == 1 else cj ** f)
        old = out.get(key)
        out[key] = c if old is None else old + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def random_draws_reference(nvars, budget):
    """The coefficient dicts of search.random_draws as drawn through
    random.Random's choice, randint and randrange, which search.random_draws
    replaced by its own rejection rule on getrandbits."""
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
        yield coeffs


@pytest.fixture
def rng():
    return random.Random(20260824)
