"""Invariant suite for the exact polynomial arithmetic layer."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactps.algebra import (
    CPolynomial,
    GaussianRational,
    I_UNIT,
    ONE,
    TruncationError,
    ZERO,
    initial_coefficients,
    key_conjugate,
    key_is_pure,
    slice_positive_at,
    slice_torus_positive,
    slice_vanishes,
    term_table,
    weighted_square_terms,
)
from contactps.search import _RANDOM_POOL, SEED_COEFFS, grid_coefficients

from conftest import (
    gr,
    initial_coefficients_reference,
    product_rule_check,
    random_poly,
    random_scalar,
    substitute_reference,
)


class TestGaussianRational:
    def test_field_ops(self):
        a = gr(Fraction(1, 2), 3)
        b = gr(-2, Fraction(1, 3))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (ONE / a) == ONE
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_norm_and_pow(self):
        a = gr(3, 4)
        assert a * a.conjugate() == gr(25)
        assert a ** 0 == ONE
        assert a ** 3 == a * a * a
        assert I_UNIT ** 2 == gr(-1)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestRingAxioms:
    def test_random_instances(self, rng):
        for _ in range(100):
            p = random_poly(rng)
            q = random_poly(rng)
            s = random_poly(rng)
            assert (p + q) + s == p + (q + s)
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * s == p * (q * s)
            assert p * (q + s) == p * q + p * s
            assert p + (-p) == CPolynomial.zero(2)
            assert p * CPolynomial.one(2) == p

    def test_pow_matches_repeated_mul(self, rng):
        for _ in range(20):
            p = random_poly(rng, nterms=3)
            acc = CPolynomial.one(2)
            for k in range(5):
                assert p ** k == acc
                acc = acc * p


class TestConjugation:
    def test_involution_and_homomorphism(self, rng):
        for _ in range(100):
            p = random_poly(rng)
            q = random_poly(rng)
            assert p.conjugate().conjugate() == p
            assert (p + q).conjugate() == p.conjugate() + q.conjugate()
            assert (p * q).conjugate() == p.conjugate() * q.conjugate()

    def test_real_valued_detection(self):
        z1 = CPolynomial.variable(2, 0)
        g = z1 * z1.conjugate()
        assert g.is_real_valued()
        assert not (z1 * z1).is_real_valued()


class TestWirtinger:
    def test_product_rule(self, rng):
        for _ in range(100):
            p = random_poly(rng, nterms=3)
            q = random_poly(rng, nterms=3)
            idx = rng.randrange(2)
            anti = rng.random() < 0.5
            assert product_rule_check(p, q, idx, anti)

    def test_derivative_of_monomial(self):
        p = CPolynomial.monomial(1, (3,), (2,), gr(5))
        dp = p.wirtinger(0)
        assert dp.coeff(((2,), (2,))) == gr(15)
        dpb = p.wirtinger(0, anti=True)
        assert dpb.coeff(((3,), (1,))) == gr(10)

    def test_holomorphic_kills_anti(self):
        p = CPolynomial.variable(2, 0)
        assert p.wirtinger(0, anti=True).is_zero()


class TestOrderOfVanishing:
    def test_additive_under_multiplication(self, rng):
        for _ in range(100):
            p = random_poly(rng, nterms=3)
            q = random_poly(rng, nterms=3)
            if p.is_zero() or q.is_zero():
                continue
            op = p.order_of_vanishing().value
            oq = q.order_of_vanishing().value
            assert (p * q).order_of_vanishing().value == op + oq

    def test_zero_and_jet_orders(self):
        assert CPolynomial.zero(1).order_of_vanishing().kind == "zero"
        jet = CPolynomial.zero(1, truncation=5)
        o = jet.order_of_vanishing()
        assert o.kind == "at_least" and o.value == 6


class TestTruncation:
    def test_propagates_min(self, rng):
        p = random_poly(rng, truncation=4)
        q = random_poly(rng, truncation=6)
        assert (p + q).truncation == 4
        assert (p * q).truncation == 4
        exact = random_poly(rng)
        assert (p * exact).truncation == 4

    def test_truncate_drops_high_terms(self):
        p = CPolynomial.monomial(1, (3,), (2,)) + CPolynomial.monomial(1, (1,), (0,))
        t = p.truncate(2)
        assert t.truncation == 2
        assert t.coeff(((1,), (0,))) == ONE
        assert t.coeff(((3,), (2,))) == ZERO

    def test_substitute_rejects_constant_images_into_jets(self):
        p = CPolynomial.variable(1, 0).truncate(3)
        image = CPolynomial.one(1)
        with pytest.raises(TruncationError):
            p.substitute([image], 1)

    def test_jet_arithmetic_consistent_with_exact(self, rng):
        """Truncating before or after an operation agrees below the bound."""
        for _ in range(50):
            p = random_poly(rng)
            q = random_poly(rng)
            k = rng.randint(1, 5)
            assert (p.truncate(k) * q.truncate(k)).truncate(k) == (p * q).truncate(k)
            assert (p.truncate(k) + q.truncate(k)) == (p + q).truncate(k)


class TestSubstitution:
    def test_composition_on_monomials(self):
        # p(z1, z2) = z1 * conj(z2); z1 -> w^2, z2 -> 3w
        p = CPolynomial.monomial(2, (1, 0), (0, 1))
        w2 = CPolynomial.monomial(1, (2,), (0,))
        w3 = CPolynomial.monomial(1, (1,), (0,), gr(3))
        out = p.substitute([w2, w3], 1)
        assert out == CPolynomial.monomial(1, (2,), (1,), gr(3))

    def test_real_valued_is_preserved(self, rng):
        z1 = CPolynomial.variable(2, 0)
        z2 = CPolynomial.variable(2, 1)
        g = (z1 + z2 * z2) * (z1 + z2 * z2).conjugate()
        img = [CPolynomial.monomial(1, (1,), (0,), gr(2)),
               CPolynomial.monomial(1, (3,), (0,), gr(0, 1))]
        assert g.substitute(img, 1).is_real_valued()

    def test_purity_preserved_for_mixed_only(self, rng):
        """Pullback of a mixed-only polynomial has no pure terms."""
        for _ in range(100):
            f = random_poly(rng, nvars=2, max_deg=2, nterms=3).graph_split()[2]
            if f.is_zero():
                continue
            g = f * f.conjugate()
            _pure, mixed = g.pure_mixed_split()
            assert g == mixed
            img = [CPolynomial.monomial(1, (rng.randint(1, 3),), (0,), random_scalar(rng))
                   for _ in range(2)]
            out = g.substitute(img, 1)
            assert all(any(k[0]) and any(k[1]) for k in out.terms)


def test_pure_mixed_split_partition(rng):
    for _ in range(50):
        p = random_poly(rng)
        pure, mixed = p.pure_mixed_split()
        assert pure + mixed == p
        assert all(key_is_pure(k) for k in pure.terms)
        assert not any(key_is_pure(k) for k in mixed.terms)


def test_key_conjugate_involution():
    key = ((2, 0), (1, 3))
    assert key_conjugate(key_conjugate(key)) == key


# ---------------------------------------------------------------------------
# Properties over random operands in 1 to 3 variables, exact and jet

scalars = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
)


@st.composite
def keys(draw, nvars, max_deg):
    """An exponent key of total degree at most max_deg."""
    holo, anti = [0] * nvars, [0] * nvars
    for _ in range(draw(st.integers(0, max_deg))):
        side = anti if draw(st.booleans()) else holo
        side[draw(st.integers(0, nvars - 1))] += 1
    return tuple(holo), tuple(anti)


@st.composite
def polys(draw, nvars, max_deg=4, max_terms=4):
    """A polynomial with conjugate terms, sometimes zero, sometimes a jet."""
    terms = draw(st.dictionaries(keys(nvars, max_deg), scalars, max_size=max_terms))
    truncation = draw(st.one_of(st.none(), st.integers(0, 6)))
    return CPolynomial(nvars, terms, truncation)


def image_lists(nvars, nvars_out):
    return st.lists(polys(nvars_out, max_deg=3, max_terms=3), min_size=nvars, max_size=nvars)


def reference_substitute(p, images, nvars_out):
    """The term-by-term composition that CPolynomial.substitute replaced: a
    constant polynomial per term of p, multiplied by cached image powers (and
    their conjugates) and added to a running total."""
    used = [any(h[i] or a[i] for (h, a) in p.terms) for i in range(p.nvars)]
    limit = None
    if p.truncation is not None:
        orders = [im.order_of_vanishing() for im in images]
        dmin = min((o.value for o in orders if o.kind != "zero"), default=None)
        if dmin == 0:
            raise TruncationError(
                "cannot soundly substitute images with constant terms "
                "into a jet-truncated polynomial"
            )
        if dmin is not None:
            limit = (p.truncation + 1) * dmin - 1
    for i, im in enumerate(images):
        if used[i] and im.truncation is not None:
            limit = im.truncation if limit is None else min(limit, im.truncation)

    power_cache = {}

    def image_power(i, e):
        if (i, e) not in power_cache:
            q = images[i] ** e
            if limit is not None and (q.truncation is None or q.truncation > limit):
                q = q.truncate(limit)
            power_cache[(i, e)] = q
        return power_cache[(i, e)]

    total = CPolynomial.zero(nvars_out, limit)
    for (h, a), coeff in p.terms.items():
        term = CPolynomial.constant(nvars_out, coeff)
        if limit is not None:
            term = CPolynomial(nvars_out, term.terms, limit)
        for i in range(p.nvars):
            if h[i]:
                term = term * image_power(i, h[i])
            if a[i]:
                term = term * image_power(i, a[i]).conjugate()
        total = total + term
    return total


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3), nvars_out=st.integers(1, 3))
def test_substitute_matches_term_by_term_reference(data, nvars, nvars_out):
    p = data.draw(polys(nvars))
    ims = data.draw(image_lists(nvars, nvars_out))
    try:
        expected = reference_substitute(p, ims, nvars_out)
    except TruncationError as exc:
        with pytest.raises(TruncationError) as raised:
            p.substitute(ims, nvars_out)
        assert str(raised.value) == str(exc)
        return
    out = p.substitute(ims, nvars_out)
    assert out.terms == expected.terms
    assert out.truncation == expected.truncation


_JETS = st.one_of(st.none(), st.integers(0, 6))


@st.composite
def single_term_images(draw, nvars_out):
    """An image with one term, most often scaled, holomorphic,
    antiholomorphic or mixed, exact or a jet (a jet zero when the term lies
    above its truncation)."""
    c = draw(scalars.filter(lambda c: not c.is_zero()))
    return CPolynomial(nvars_out, {draw(keys(nvars_out, 3)): c}, draw(_JETS))


@st.composite
def substitution_cases(draw):
    """(p, images, nvars_out) with images of no, one or several terms.  Half
    the cases map two variables z_i and z_j to the same image and plant, next
    to a term of p, its swap in i and j with the opposite coefficient."""
    nvars, nvars_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    image = st.one_of(single_term_images(nvars_out),
                      st.builds(CPolynomial.zero, st.just(nvars_out), _JETS),
                      polys(nvars_out, max_deg=3, max_terms=3))
    images = [draw(image) for _ in range(nvars)]
    terms = draw(st.dictionaries(keys(nvars, 4), scalars, max_size=4))
    if nvars > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(nvars)))[:2]
        images[j] = images[i]
        order = [j if k == i else i if k == j else k for k in range(nvars)]
        for (h, a), c in list(terms.items())[:1]:
            terms[(tuple(h[k] for k in order), tuple(a[k] for k in order))] = -c
    return CPolynomial(nvars, terms, draw(_JETS)), images, nvars_out


def _substitution_kinds(p, images, expected):
    """The kinds of image that p uses, and whether the composite cancels:
    whether it has fewer terms than the composite with every coefficient 1,
    which forms the same keys and cannot cancel."""
    used = [i for i in range(p.nvars) if any(h[i] or a[i] for h, a in p.terms)]
    kinds = set()
    for i in used:
        im = images[i]
        if not im.terms:
            kinds.add("exact zero" if im.truncation is None else "jet zero")
        elif len(im.terms) == 1:
            (key, c), = im.terms.items()
            kinds.update(name for name, hit in (
                ("scaled single", c != ONE), ("antiholomorphic single", any(key[1])),
                ("jet single", im.truncation is not None)) if hit)
    sizes = {len(images[i].terms) > 1 for i in used}
    if sizes == {True, False}:
        kinds.add("single and multi")
    singles = [next(iter(images[i].terms)) for i in used if len(images[i].terms) == 1]
    if len(set(singles)) < len(singles):
        kinds.add("two variables on one monomial")

    def ones(q):
        return CPolynomial(q.nvars, dict.fromkeys(q.terms, ONE), q.truncation)

    if len(expected.terms) < len(substitute_reference(
            ones(p), [ones(im) for im in images], expected.nvars).terms):
        kinds.add("cancellation")
    return kinds


_SUBSTITUTION_KINDS = {
    "exact zero", "jet zero", "scaled single", "antiholomorphic single", "jet single",
    "single and multi", "two variables on one monomial", "cancellation", "TruncationError"}


def test_substitute_keeps_the_terms_and_their_order():
    """substitute gives the terms of its reference, in the same first-seen
    key order, and the same truncation, or the same TruncationError; the
    cases reach every kind of image that the term map treats on its own."""
    reached = set()

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(case=substitution_cases())
    def cases(case):
        p, images, nvars_out = case
        try:
            expected = substitute_reference(p, images, nvars_out)
        except TruncationError as exc:
            with pytest.raises(TruncationError) as raised:
                p.substitute(images, nvars_out)
            assert str(raised.value) == str(exc)
            reached.add("TruncationError")
            return
        out = p.substitute(images, nvars_out)
        assert list(out.terms.items()) == list(expected.terms.items())
        assert out.truncation == expected.truncation
        reached.update(_substitution_kinds(p, images, expected))

    cases()
    assert reached == _SUBSTITUTION_KINDS


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3), nvars_out=st.integers(1, 3))
def test_results_hold_the_constructor_invariant(data, nvars, nvars_out):
    """Every result equals its own rebuild by the validating constructor: no
    zero coefficient, every key of length nvars (the rebuild raises
    otherwise), no term above the truncation."""
    p, q = data.draw(polys(nvars)), data.draw(polys(nvars))
    c = data.draw(scalars)
    k = data.draw(st.integers(0, 6))
    results = [
        p + q, p - q, p - p, p * q, (p + q) * (p - q), p ** (k % 4), -p,
        p.scale(c), p.scale(ZERO), p.conjugate(), p.truncate(k),
        p.homogeneous_slice(k), p.wirtinger(k % nvars, anti=bool(k % 2)),
        *(part for part in p.graph_split() if part is not None), CPolynomial.constant(nvars, c),
        p.select(lambda key: sum(key[0]) >= sum(key[1])),
    ]
    try:
        results.append(p.substitute(data.draw(image_lists(nvars, nvars_out)), nvars_out))
    except TruncationError:
        pass
    for r in results:
        assert r == CPolynomial(r.nvars, dict(r.terms), r.truncation)


def _power_reference(p, k):
    """CPolynomial.__pow__ as it was: repeated squaring, starting from the
    constant 1 built by the validating constructor."""
    zero = (0,) * p.nvars
    out = CPolynomial(p.nvars, {(zero, zero): ONE}, p.truncation)
    base = p
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3), k=st.integers(0, 6))
def test_power_keeps_the_terms_and_their_order(data, nvars, k):
    """p ** k, a term move for a single term and repeated squaring from p
    itself otherwise, gives the terms, in their order, and the truncation
    of squaring from a validated 1."""
    p = data.draw(st.one_of(polys(nvars), single_term_images(nvars)))
    got, expected = p ** k, _power_reference(p, k)
    assert got == expected
    assert list(got.terms.items()) == list(expected.terms.items())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_weighted_square_terms_matches_the_polynomial_sum(data, nvars):
    """The raw-sum reconstruction gives the terms of the sum of
    w * f * conj(f) formed as polynomials, cancelling keys dropped, for
    any exact f and any rational weight, negative and zero included."""
    weights = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    squares = data.draw(st.lists(st.tuples(weights, polys(nvars)), max_size=4))
    squares = [(w, CPolynomial(nvars, f.terms)) for w, f in squares]
    expected = CPolynomial.zero(nvars)
    for w, f in squares:
        expected = expected + (f * f.conjugate()).scale(GaussianRational(w))
    assert weighted_square_terms(squares) == expected.terms


def test_select_keeps_the_truncation_and_the_term_order():
    p = CPolynomial(2, {((1, 0), (0, 0)): ONE, ((0, 1), (1, 0)): gr(2),
                        ((2, 0), (0, 0)): gr(3)}, 3)
    low = p.select(lambda key: sum(key[0]) + sum(key[1]) <= 2)
    assert low.truncation == 3
    assert list(low.terms) == [((1, 0), (0, 0)), ((0, 1), (1, 0)), ((2, 0), (0, 0))]
    assert list(p.select(lambda key: key != ((0, 1), (1, 0))).terms) == [
        ((1, 0), (0, 0)), ((2, 0), (0, 0))]


def test_constant_of_zero_is_the_zero_polynomial():
    assert CPolynomial.constant(2, ZERO) == CPolynomial.zero(2)
    with pytest.raises(ValueError):
        CPolynomial.constant(0, ONE)


# ---------------------------------------------------------------------------
# The lowest-slice kernel against its scalar-object reference

def _gaussian_rationals(height):
    """a/p + (b/q)*i with |a|, |b| <= height and 1 <= p, q <= height."""
    num, den = st.integers(-height, height), st.integers(1, height)
    return st.builds(lambda a, b, p, q: GaussianRational(Fraction(a, p), Fraction(b, q)),
                     num, num, den, den)


# The leading coefficients the searches feed it, and random ones.
_LEADS = st.one_of(
    st.sampled_from(SEED_COEFFS + grid_coefficients(2)
                    + tuple(c for c in _RANDOM_POOL if not c.is_zero())),
    _gaussian_rationals(12),
)
_ROW_COEFFS = _gaussian_rationals(6).filter(lambda c: not c.is_zero())
# Few bidegrees, so that rows with different denominators share a key.
_BIDEGREES = st.tuples(st.tuples(st.integers(0, 2)), st.tuples(st.integers(0, 2)))


@st.composite
def slice_cases(draw):
    """(rows, coeffs) in 1-3 variables with exponents 0-4, some rows paired
    with a negated copy (a planted cancellation)."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    rows = draw(st.lists(st.tuples(_BIDEGREES, exps, exps, _ROW_COEFFS), max_size=8))
    if rows:
        for key, h, a, coeff in draw(st.lists(st.sampled_from(rows), max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), (key, h, a, -coeff))
    return rows, draw(st.lists(_LEADS, min_size=nvars, max_size=nvars))


_K = ((1,), (1,))


def _group_rows(rows):
    """The terms (key, h, a, coeff) as the slice readers sum them: each
    one's row from term_table, grouped by key in first-seen order."""
    grouped = {}
    for key, h, a, coeff in rows:
        (*_entry, row), = term_table(CPolynomial(len(h), {(h, a): coeff}))
        grouped.setdefault(key, []).append(row)
    return grouped


def _check_slice_readers(rows, lead, powers):
    """The three readers of the grouped rows against the scalar-object
    reference."""
    grouped = _group_rows(rows)
    ref = initial_coefficients_reference(rows, lead)
    out = initial_coefficients(grouped, lead, powers)
    assert list(out.items()) == list(ref.items())
    assert all(type(c) is GaussianRational for c in out.values())
    assert slice_vanishes(grouped, lead, powers) == (not ref)
    for key in [*grouped, ((5,), (5,))]:
        c = ref.get(key)
        assert slice_positive_at(grouped, key, lead, powers) == \
            (c is not None and c.is_positive_real())
        slots = {i for k, h, a, _c in rows if k == key for i in range(len(h)) if h[i] or a[i]}
        if slice_torus_positive(grouped, key) and all(not lead[i].is_zero() for i in slots):
            assert c is not None and c.is_positive_real()


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(cases=st.lists(slice_cases(), min_size=1, max_size=3))
@example(cases=[([(_K, (1,), (0,), gr(Fraction(1, 2))), (_K, (1,), (0,), gr(Fraction(-1, 2)))],
                 [gr(3, 1)])])
@example(cases=[([(_K, (2,), (1,), gr(Fraction(1, 2))), (_K, (2,), (1,), gr(Fraction(1, 3))),
                  (_K, (2,), (1,), gr(Fraction(-5, 6)))], [gr(Fraction(1, 2), 1)])])
@example(cases=[([(_K, (1, 3), (0, 1), gr(Fraction(1, 4), 2)), (_K, (2, 0), (2, 0), gr(-1, 1)),
                  (((0,), (2,)), (0, 1), (4, 0), gr(1, Fraction(1, 6)))],
                 [gr(Fraction(-2, 3), Fraction(1, 5)), gr(0, Fraction(-1, 2))])])
@example(cases=[([(_K, (0, 1), (1, 0), gr(1))], [ZERO, gr(2, 1)])])
# Leads that differ only in their denominator, with balanced rows whose
# slice is real and positive, then a lead with a real negative slice.
@example(cases=[([(_K, (1,), (1,), gr(2))], [gr(1, 1)]),
                ([(_K, (1,), (1,), gr(2))], [gr(Fraction(1, 2), Fraction(1, 2))]),
                ([(_K, (1,), (1,), gr(-2))], [gr(3, 1)])])
def test_initial_coefficients_matches_the_object_reference(cases):
    """The reduced slice has the same keys, in the same order, and equal
    canonical values as the scalar-object evaluation, also where rows cancel
    across denominators; "vanishes" and "positive real at a key" agree with
    it.  One memo of lead powers serves the whole sequence of cases, as one
    serves a whole search."""
    powers = {}
    for rows, coeffs in cases:
        # Fresh leads that die after the call, so that the next case's
        # leads may take their addresses with other values.
        _check_slice_readers(rows, [GaussianRational(c.re, c.im) for c in coeffs], powers)
