import random
from fractions import Fraction
from functools import cache

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


@cache
def _gaussian_field():
    """Q(i) as sympy's algebraic field Q<I>, built once per process."""
    from sympy import QQ_I

    return QQ_I.as_AlgebraicField()


def gaussian_common_roots_reference(polys):
    """The factorization over Q<I> that typecalc.gaussian_common_roots
    replaced by the rational norm: the gcd over QQ_I, split square-free,
    each part of degree > 1 factored over the algebraic field Q<I> (Trager's
    norm method); linear factors give the roots, and a factor of degree > 1
    makes the list incomplete."""
    from sympy import Poly, QQ_I, Symbol

    x = Symbol("x")
    sym = [Poly.from_dict({(e,): QQ_I(c.re, c.im) for e, c in p.items()}, x, domain=QQ_I)
           for p in polys if p]
    if not sym:
        return [], True
    g = sym[0]
    for p in sym[1:]:
        g = g.gcd(p)
    if g.degree() == 0:
        return [], True
    complete = True
    roots = []
    factors = []
    for part in [part for part, _m in g.sqf_list()[1]] if g.degree() > 1 else [g]:
        factors += ([part] if part.degree() == 1
                    else [f for f, _m in part.set_domain(_gaussian_field()).factor_list()[1]])
    for factor in factors:
        if factor.degree() == 1:
            # The factor is x + c.
            c = QQ_I.convert_from(factor.monic().rep.TC(), factor.domain)
            re, im = (Fraction(q.numerator, q.denominator) for q in (c.x, c.y))
            roots.append(-GaussianRational(re, im))
        elif factor.degree() > 1:
            complete = False
    roots.sort(key=lambda c: (c.re, c.im))
    return roots, complete


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
