"""Curve jets, pullbacks, contact orders, and the single-curve positivity test."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactps import curve
from contactps.algebra import CPolynomial, GaussianRational, ONE
from contactps.curve import (
    ConstantCurveError,
    CurveJet,
    InsufficientJetError,
    contact_order,
    laplacian_power,
    lowest_term_profile,
    ps_test_single,
    pullback,
    pullback_lowest,
)
from contactps.expr import parse_curve, parse_expression, parse_problem

from conftest import gr, random_poly


def test_constant_curve_rejected():
    with pytest.raises(ConstantCurveError):
        CurveJet.from_coeffs([{}, {}])


def test_monomial_curve_needs_one_coefficient_per_exponent():
    assert CurveJet.monomial([2, 0], [ONE, ONE]).nvars == 2
    with pytest.raises(ValueError):
        CurveJet.monomial([1, 1], [ONE])


def test_components_must_be_holomorphic_and_vanish():
    bad = CPolynomial.monomial(1, (0,), (1,))
    with pytest.raises(ValueError):
        CurveJet((bad,))
    const = CPolynomial.one(1)
    with pytest.raises(ValueError):
        CurveJet((const,))


def test_multiplicity_ignores_zero_components():
    z = parse_curve("(t^3, 0, t^2)")
    assert z.multiplicity() == 2
    assert not z.is_regular()
    assert parse_curve("(t, t^5)").is_regular()


def test_derivative_vector_is_factorial_times_coefficient():
    z = parse_curve("(2*t^3, t)")
    assert z.derivative_vector(3) == (gr(12), gr(0))
    assert z.derivative_vector(1) == (gr(0), gr(1))


def test_reparametrize_scales_coefficients():
    z = parse_curve("(t^2, t)")
    w = z.reparametrize(gr(0, 1))  # t -> i t
    assert w.coefficient(0, 2) == gr(-1)
    assert w.coefficient(1, 1) == gr(0, 1)
    with pytest.raises(ValueError):
        z.reparametrize(gr(0))


class TestPullback:
    def test_example_square_difference(self):
        g = parse_expression("abs2(z1^2 - z2^3)", 2)
        z = parse_curve("(t^3, t^2)")
        assert pullback(g, z).is_zero()

    def test_simple_modulus(self):
        g = parse_expression("abs2(z1)", 1)
        z = parse_curve("(t^4)")
        u = pullback(g, z)
        assert u == CPolynomial.monomial(1, (4,), (4,))

    def test_contact_ratio(self):
        r = parse_expression("abs2(z1^2 - z2^3)", 2)
        order, ratio = contact_order(r, parse_curve("(t^3, t^2 + t^3)"))
        assert order.kind == "exact"
        assert ratio == Fraction(order.value, 2)
        order, ratio = contact_order(r, parse_curve("(t^3, t^2)"))
        assert order.kind == "zero" and ratio is None


class TestLowestTermProfile:
    def test_balanced_coefficient(self):
        g = parse_expression("abs2(z1 + z2^2) + abs2(z2)^2", 2)
        u = pullback(g, parse_curve("(-t^2, t)"))
        prof = lowest_term_profile(u)
        assert prof.order == 4  # the |t|^2 leading terms cancel exactly
        assert prof.is_even and prof.ck == 1

    def test_odd_order(self):
        u = parse_expression("abs2(z1)", 1)  # placeholder to build |t|^2 * Re t
        z1 = CPolynomial.variable(1, 0)
        p = z1 * z1.conjugate() * (z1 + z1.conjugate())
        prof = lowest_term_profile(p)
        assert prof.order == 3 and not prof.is_even and prof.ck is None


class TestPSTestSingle:
    def test_pass(self):
        g = parse_expression("abs2(z1)^2", 2)
        res = ps_test_single(g, parse_curve("(t, 0)"))
        assert res.status == "pass"
        assert res.order.value == 4 and res.ck == 1

    def test_fail_nonpositive(self):
        g = parse_expression("abs2(z1)^2 - abs2(z2)^2", 2)
        res = ps_test_single(g, parse_curve("(0, t)"))
        assert res.status == "fail_nonpositive"
        assert res.ck == -1 and res.is_violation

    def test_fail_odd(self):
        z1 = CPolynomial.variable(1, 0)
        g = z1 * z1.conjugate() * (z1 + z1.conjugate())
        res = ps_test_single(g, parse_curve("(t)"))
        assert res.status == "fail_odd" and res.is_violation

    def test_infinite_is_not_a_violation(self):
        g = parse_expression("abs2(z1^2 - z2^3)", 2)
        res = ps_test_single(g, parse_curve("(t^3, t^2)"))
        assert res.status == "infinite"
        assert not res.is_violation

    def test_indeterminate_on_thin_jets(self):
        g = parse_expression("abs2(z1)^2", 1).truncate(3)
        res = ps_test_single(g, parse_curve("(t)"))
        assert res.status == "indeterminate"
        assert not res.is_violation


class TestLaplacianPower:
    def test_identity_with_balanced_coefficient(self, rng):
        """(L^k u)(0) = (k!)^2 * (coefficient of t^k tbar^k), on random pullbacks."""
        checked = 0
        while checked < 100:
            u = random_poly(rng, nvars=1, max_deg=4, nterms=4)
            k = rng.randint(1, 3)
            expect = u.coeff(((k,), (k,))) * gr(factorial(k) ** 2)
            assert laplacian_power(u, k) == expect
            checked += 1

    def test_profile_form(self):
        g = parse_expression("abs2(z1)^2", 1)
        u = pullback(g, parse_curve("(t)"))
        prof = lowest_term_profile(u)
        assert prof.order == 4 and prof.ck == 1
        assert laplacian_power(u, 2) == gr(factorial(2) ** 2 * prof.ck)

    def test_insufficient_jet(self):
        u = parse_expression("abs2(z1)", 1).truncate(1)
        with pytest.raises(InsufficientJetError):
            laplacian_power(u, 1)


# ---------------------------------------------------------------------------
# pullback_lowest: the order and lowest slice of pullback, at capped cost

scalars = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
).filter(lambda c: not c.is_zero())


@st.composite
def germs(draw, nvars):
    """A random polynomial in nvars paired variables, sometimes a jet (the
    restricted graph functions of germ-ps carry a truncation)."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(st.tuples(exps, exps), scalars, min_size=1, max_size=6))
    truncation = draw(st.one_of(st.none(), st.integers(2, 12)))
    return CPolynomial(nvars, terms, truncation)


@st.composite
def curves(draw, nvars):
    """A curve of multiplicity m in 1..4; its other components start at
    orders up to m + 8, so that pullbacks often vanish beyond 4m + 1."""
    m = draw(st.integers(1, 4))
    lead = draw(st.integers(0, nvars - 1))
    comps = []
    for i in range(nvars):
        if i != lead and draw(st.integers(0, 3)) == 0:
            comps.append(CPolynomial.zero(1))
            continue
        low = m if i == lead else draw(st.integers(m, m + 8))
        coeffs = draw(st.lists(scalars, min_size=1, max_size=4))
        terms = {((low + j,), (0,)): c for j, c in enumerate(coeffs)}
        comps.append(CPolynomial(1, terms))
    z = CurveJet(tuple(comps))
    assert z.multiplicity() == m
    return z


def _same_lowest(fast: CPolynomial, exact: CPolynomial) -> None:
    order = exact.order_of_vanishing()
    assert fast.order_of_vanishing() == order
    if order.kind == "exact":
        d = order.value
        assert fast.homogeneous_slice(d).terms == exact.homogeneous_slice(d).terms


def _count_pullbacks(monkeypatch) -> list:
    calls = []

    def counted(p, z):
        calls.append(z)
        return pullback(p, z)

    monkeypatch.setattr(curve, "pullback", counted)
    return calls


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_pullback_lowest_matches_pullback(data, nvars):
    g = data.draw(germs(nvars))
    z = data.draw(curves(nvars))
    _same_lowest(pullback_lowest(g, z), pullback(g, z))


class TestPullbackLowest:
    def test_zero_pullback_takes_the_fallback(self, monkeypatch):
        r = parse_problem("n = 3\nr = 2*Re(z3) + abs2(z1^2 - z2^3)\n").entry
        z = parse_curve("(t^3, t^2, 0)")
        calls = _count_pullbacks(monkeypatch)
        u = pullback_lowest(r, z)
        assert u.order_of_vanishing().kind == "zero"
        assert calls[-1] is z and len(calls) == 2

    def test_order_beyond_the_cap_takes_the_fallback(self, monkeypatch):
        g = parse_expression("abs2(z2)", 2)
        z = parse_curve("(t, t^6)")  # order 12 > 4*1 + 1
        calls = _count_pullbacks(monkeypatch)
        u = pullback_lowest(g, z)
        assert len(calls) == 2 and u == pullback(g, z)
        assert str(u.order_of_vanishing()) == "12"

    def test_jet_germ_vanishing_below_its_truncation_takes_the_fallback(self, monkeypatch):
        g = parse_expression("abs2(z1)^2", 1).truncate(3)
        z = parse_curve("(t)")
        calls = _count_pullbacks(monkeypatch)
        assert str(pullback_lowest(g, z).order_of_vanishing()) == ">=4"
        assert len(calls) == 2

    def test_order_below_the_cap_needs_one_capped_pullback(self, monkeypatch):
        g = parse_expression("abs2(z1 + z2^2) + abs2(z2)^2", 2)
        z = parse_curve("(-t^2 + t^9, t)")
        calls = _count_pullbacks(monkeypatch)
        u = pullback_lowest(g, z)
        assert len(calls) == 1 and u.truncation == 5
        _same_lowest(u, pullback(g, z))
