"""Curve jets, pullbacks, contact orders, and the single-curve positivity test."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactps import curve
from contactps.algebra import (ONE, ZERO, CPolynomial, GaussianRational, balanced_key,
                               initial_coefficients, initial_form, term_table)
from contactps.curve import (
    ConstantCurveError,
    CurveJet,
    InsufficientJetError,
    contact_order,
    laplacian_power,
    leading_rows,
    lowest_term_profile,
    ps_test_single,
    pullback,
    pullback_lowest,
)
from contactps.expr import parse_curve, parse_expression, parse_problem
from contactps.search import exponent_tuples

from conftest import gr, initial_form_reference, leading_rows_reference, random_poly


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
    assert parse_curve("(t, t^5)").multiplicity() == 1


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
def curves(draw, nvars, spread=8):
    """A curve of multiplicity m in 1..4; its other components start at
    orders up to m + spread, so that pullbacks often vanish beyond 4m + 1."""
    m = draw(st.integers(1, 4))
    lead = draw(st.integers(0, nvars - 1))
    comps = []
    for i in range(nvars):
        if i != lead and draw(st.integers(0, 3)) == 0:
            comps.append(CPolynomial.zero(1))
            continue
        low = m if i == lead else draw(st.integers(m, m + spread))
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


def _leading_slice(g: CPolynomial, z: CurveJet):
    """The lowest slice that leading_rows and initial_coefficients read off
    the leading terms of z, or None when they give none: no row, d above
    the truncation, or a slice that cancels."""
    exps, lead = z.leading_terms()
    found = leading_rows(g, term_table(g), exps)
    return None if found is None else initial_coefficients(found[1], lead, {}) or None


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
        # The weight-4 slice cancels, and the exact order 18 lies above the
        # first cap 4*1 + 1 and the next, 11.  With a t^20 term the reach
        # of the exact pullback is 4*20, so the caps grow to 23, which has
        # the lowest term; with deg z = 9 the reach is 36, below twice 23,
        # so the exact pullback comes after the cap 11.
        g = parse_expression("abs2(z1 + z2^2)", 2)
        for z, caps in (("(-t^2 + t^9 + t^20, t)", [5, 11, 23]), ("(-t^2 + t^9, t)", [5, 11, None])):
            z = parse_curve(z)
            assert _leading_slice(g, z) is None
            calls = _count_pullbacks(monkeypatch)
            u = pullback_lowest(g, z)
            assert [w.truncation for w in calls] == caps and calls[-1].truncation == u.truncation
            assert str(u.order_of_vanishing()) == "18"
            _same_lowest(u, pullback(g, z))

    def test_jet_germ_vanishing_below_its_truncation_takes_the_fallback(self, monkeypatch):
        g = parse_expression("abs2(z1)^2", 1).truncate(3)
        z = parse_curve("(t)")
        calls = _count_pullbacks(monkeypatch)
        assert str(pullback_lowest(g, z).order_of_vanishing()) == ">=4"
        assert len(calls) == 2

    def test_order_below_the_cap_needs_one_capped_pullback(self, monkeypatch):
        # The weight-4 slice of abs2(z1 + z2^2) cancels; the added term
        # gives the pullback order 5, which the cap 4*1 + 1 reaches.
        g = parse_expression("abs2(z1 + z2^2) + 2*Re(z1*conj(z2)^3)", 2)
        z = parse_curve("(-t^2 + t^9, t)")
        assert _leading_slice(g, z) is None
        calls = _count_pullbacks(monkeypatch)
        u = pullback_lowest(g, z)
        assert len(calls) == 1 and u.truncation == 5
        assert str(u.order_of_vanishing()) == "5"
        _same_lowest(u, pullback(g, z))

    @pytest.mark.parametrize("g, z", [
        ("abs2(z2)", "(t, t^6)"),
        ("abs2(z1 + z2^2) + abs2(z2)^2", "(-t^2 + t^9, t)"),
        ("2*Re(z3) + abs2(z1 + i*z2^2) + abs2(z2)^2", "(t^3, 0, 0)"),
    ])
    def test_leading_slice_needs_no_pullback(self, monkeypatch, g, z):
        g = parse_expression(g, 3 if "z3" in g else 2)
        z = parse_curve(z)
        calls = _count_pullbacks(monkeypatch)
        u = pullback_lowest(g, z)
        assert calls == []
        d = u.order_of_vanishing().value
        assert u.truncation == d and u.terms == u.homogeneous_slice(d).terms
        _same_lowest(u, pullback(g, z))

    @pytest.mark.parametrize("g, z", [
        # A jet germ: its unknown terms of degree 3 reach t^3 along z1 = t,
        # below the weight-4 slice of abs2(z2).
        (parse_expression("abs2(z2)", 2).truncate(2), parse_curve("(t, t^2)")),
        # A jet component: substitute knows abs2(z1) only to degree 2.
        (parse_expression("abs2(z1)", 1),
         CurveJet.from_coeffs([{2: ONE}], truncation=2)),
    ])
    def test_leading_slice_above_the_jet_order_is_not_accepted(self, monkeypatch, g, z):
        # A jet curve takes the capped pullbacks without reading its
        # leading terms; an exact one reads no slice above the truncation.
        if z.truncation is None:
            assert _leading_slice(g, z) is None
        exact = pullback(g, z)
        assert exact.order_of_vanishing().kind == "at_least"
        calls = _count_pullbacks(monkeypatch)
        assert pullback_lowest(g, z).order_of_vanishing() == exact.order_of_vanishing()
        assert calls


_TABLE_COEFFS = st.sampled_from([gr(1), gr(-1), gr(2), gr(0, 1), gr(Fraction(1, 2), -1),
                                 gr(Fraction(-3, 4), Fraction(2, 3))])


@st.composite
def table_polys(draw):
    """A polynomial in 1-3 variables with up to 6 terms of exponents 0-3 on
    each side, exact or a jet truncated at 1, 2, 3 or 5."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(st.tuples(exps, exps), _TABLE_COEFFS, max_size=6))
    return CPolynomial(nvars, terms, draw(st.sampled_from([None, 1, 2, 3, 5])))


def _as_reference_rows(found):
    """(d, rows) of leading_rows with each raw row (x, y, den, slots) read
    back as the (coeff, slots) of leading_rows_reference."""
    if found is None:
        return None
    d, rows = found
    return d, [(key, [(GaussianRational(Fraction(x, den), Fraction(y, den)), slots)
                      for x, y, den, slots in group]) for key, group in rows.items()]


def test_table_rows_match_the_reference():
    """The leading rows read off one term_table equal the reference body,
    which forms them from the terms anew for every tuple: the same d, the
    same keys and rows in the same order, and None in the same places.
    Every exponent tuple up to degree 4 is read, so dead components occur,
    and the inputs reach no row, d above a jet's truncation and a row."""
    reached = set()

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(p=table_polys())
    def every_tuple(p):
        table = term_table(p)
        for exps in exponent_tuples(p.nvars, 4):
            ref = leading_rows_reference(p, exps)
            if ref is not None:
                ref = ref[0], list(ref[1].items())
            assert _as_reference_rows(leading_rows(p, table, exps)) == ref
            if ref is not None:
                reached.add("row")
            elif leading_rows_reference(CPolynomial(p.nvars, p.terms), exps) is None:
                reached.add("no row")
            else:
                reached.add("above truncation")
            if 0 in exps and ref is not None:
                reached.add("dead component")

    every_tuple()
    assert reached == {"row", "no row", "above truncation", "dead component"}


def test_initial_form_matches_the_reference():
    """The initial form at every key of the leading rows, and at the
    balanced key, equals the reference filter over the terms of p: the
    same terms in the same order, with the same coefficients, and None
    where no term lands, for every exponent tuple up to degree 4."""
    reached = set()

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(p=table_polys())
    def every_tuple(p):
        table = term_table(p)
        for exps in exponent_tuples(p.nvars, 4):
            found = leading_rows(p, table, exps)
            if found is None:
                continue
            d, rows = found
            for key in [*rows, balanced_key(d)]:
                form = initial_form(rows, key, p.nvars)
                ref = initial_form_reference(p, exps, key)
                if ref is None:
                    assert form is None
                    reached.add("none")
                    continue
                assert list(form.terms.items()) == list(ref.terms.items())
                assert form.truncation is None
                reached.add("form")

    every_tuple()
    assert reached == {"form", "none"}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_leading_terms_are_the_least_term_of_each_component(data, nvars):
    z = data.draw(curves(nvars))
    exps, lead = z.leading_terms()
    for i, c in enumerate(z.components):
        low = min((h[0] for (h, _a) in c.terms), default=0)
        assert exps[i] == low
        assert lead[i] == (c.coeff(((low,), (0,))) if low else ZERO)
    assert z.multiplicity() == min(e for e in exps if e)


@st.composite
def cancelling_germs(draw, z):
    """(f * h, f) where f = C_b * z_i^mu_j - C_a * z_j^mu_i for two nonzero
    components z_i = c_i t^mu_i + ..., z_j = c_j t^mu_j + ... of z, with
    C_a = c_i^mu_j and C_b = c_j^mu_i.  Both monomials of f have weighted
    degree mu_i * mu_j and their leading products cancel, so f vanishes on
    the leading terms of z, and so does f * h for any h: the leading slice
    of every such germ cancels by construction."""
    leads = [(min((k[0][0] for k in c.terms), default=0), c) for c in z.components]
    nonzero = [i for i, (_mu, c) in enumerate(leads) if c.terms]
    i, j = draw(st.lists(st.sampled_from(nonzero), min_size=2, max_size=2, unique=True))
    (mu_i, zi), (mu_j, zj) = leads[i], leads[j]
    c_i, c_j = zi.coeff(((mu_i,), (0,))), zj.coeff(((mu_j,), (0,)))
    n = z.nvars
    zi_pow = CPolynomial.variable(n, i) ** mu_j
    zj_pow = CPolynomial.variable(n, j) ** mu_i
    f = zi_pow.scale(c_j ** mu_i) - zj_pow.scale(c_i ** mu_j)
    if draw(st.booleans()):
        f = f.conjugate()
    return f * draw(germs(n)), f


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nvars=st.integers(2, 3))
def test_pullback_lowest_matches_pullback_when_the_leading_slice_cancels(data, nvars):
    z = data.draw(curves(nvars, spread=3))
    assume(sum(1 for c in z.components if c.terms) >= 2)
    g, f = data.draw(cancelling_germs(z))
    assert _leading_slice(f, z) is None
    assert _leading_slice(g, z) is None
    _same_lowest(pullback_lowest(g, z), pullback(g, z))
