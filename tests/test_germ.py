"""Germ validation, graph normal form, and positivity certification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactps import germ
from contactps.algebra import CPolynomial
from contactps.curve import CurveJet, ps_test_single, pullback
from contactps.expr import format_curve, parse_curve, parse_expression
from contactps.germ import (
    DegenerateLinearPartError,
    NoLinearPartError,
    NonzeroConstantError,
    NotRealError,
    decompose_pure_mixed,
    germ_ps_check,
    gram_certificate,
    normalize_to_graph,
    ps_search,
    restrict,
    solve_graph,
    taylor_truncate,
    validate,
)
from contactps.search import SearchBudget

from conftest import gr


def _germ(text, n=3):
    return validate(parse_expression(text, n))


class TestValidate:
    def test_accepts_canonical_form(self):
        r = _germ("2*Re(z3) + abs2(z1)^2")
        assert r.nvars == 3

    def test_rejects_non_real(self):
        with pytest.raises(NotRealError):
            _germ("z3 + abs2(z1)")

    def test_rejects_constant(self):
        with pytest.raises(NonzeroConstantError):
            _germ("1 + 2*Re(z3)")

    def test_rejects_no_linear_part(self):
        with pytest.raises(NoLinearPartError):
            _germ("abs2(z1)")


class TestDecompose:
    def test_splits_into_2re_h_plus_mixed(self):
        r = _germ("2*Re(z3) + abs2(z1 + z2^2)")
        jk = taylor_truncate(r, 4)
        h, g = decompose_pure_mixed(jk)
        assert (h + h.conjugate()) + g == jk
        assert not g.pure_mixed_split()[0].terms  # g is mixed-only
        assert not h.homogeneous_slice(1).is_zero()

    def test_degenerate_linear_part(self):
        p = parse_expression("abs2(z1)", 2).truncate(3)
        with pytest.raises(DegenerateLinearPartError):
            decompose_pure_mixed(p)


class TestSolveGraph:
    def test_annihilates_h_to_order(self):
        # h = z3 + z1^2 + z2^3: graph phi = -(z1^2 + z2^3)
        h = parse_expression("z3 + z1^2 + z2^3", 3)
        phi = solve_graph(h, 6)
        expect = parse_expression("0 - z1^2 - z2^3", 2)
        assert phi.truncate(6) == expect.truncate(6)

    def test_exact_graph_when_rest_is_free_of_last_variable(self):
        h = parse_expression("z3 + z1^2 + z2^3", 3)
        phi = solve_graph(h, 6)
        assert phi == parse_expression("0 - z1^2 - z2^3", 2)
        assert phi.truncation is None

    def test_nonlinear_self_reference(self):
        # h = z2 + z1^2 + z2^2 needs iteration: phi = -z1^2 - z1^4 - ...
        h = parse_expression("z2 + z1^2 + z2^2", 2)
        phi = solve_graph(h, 8)
        check = h.substitute([CPolynomial.variable(1, 0), phi], 1)
        assert check.truncate(8).is_zero()

    def test_restrict_substitutes_last_variable(self):
        g = parse_expression("abs2(z2)", 2)
        phi = parse_expression("0 - z1^2", 1)
        out = restrict(g, phi, 6)
        assert out.truncate(4) == parse_expression("abs2(z1^2)", 1).truncate(4)


class TestNormalizeToGraph:
    def test_already_normal(self):
        gf = normalize_to_graph(_germ("2*Re(z3) + abs2(z1)^2 + abs2(z2)^2"), 6)
        assert gf.g == parse_expression("abs2(z1)^2 + abs2(z2)^2", 2)

    def test_absorbs_pure_terms(self):
        gf = normalize_to_graph(_germ("2*Re(z3) + 2*Re(z1^2) + abs2(z1)^2"), 6)
        assert gf.g == parse_expression("abs2(z1)^2", 2)

    def test_linear_change_to_last_variable(self):
        # linear part 2Re(z1): the pivot is moved to the last coordinate
        gf = normalize_to_graph(_germ("2*Re(z1) + abs2(z2)^2"), 6)
        assert gf.g == parse_expression("abs2(z1)^2", 2)

    def test_lift_curve_reverifies_in_original_frame(self):
        r = _germ("2*Re(z3) + abs2(z1^2 - z2^3)")
        gf = normalize_to_graph(r, 8)
        eta = parse_curve("(t^3, t^2)")
        lifted = gf.lift_curve(eta)
        assert lifted.nvars == 3
        assert pullback(r.r, lifted).is_zero()


_COEFFS = [gr(1), gr(-1), gr(2), gr(0, 1), gr(1, -1), gr(-1, 2)]


@st.composite
def _germs(draw):
    """A real germ in 2-3 variables: random linear part, pure terms that
    involve z_n, mixed terms; with a bound K in [deg, deg + 3]."""
    n = draw(st.integers(2, 3))
    zero = (0,) * n

    def monomial():
        e = [draw(st.integers(0, 2)) for _ in range(n)]
        if not any(e):
            e[draw(st.integers(0, n - 1))] = 1
        return tuple(e)

    lin = [draw(st.sampled_from([gr(0)] + _COEFFS)) for _ in range(n)]
    if all(c.is_zero() for c in lin):
        lin[-1] = gr(1)
    holo = {}
    for i, c in enumerate(lin):
        holo[tuple(int(j == i) for j in range(n))] = c
    for _ in range(draw(st.integers(0, 3))):
        e = list(monomial())
        e[-1] += draw(st.integers(0, 1))
        if sum(e) >= 2:
            holo[tuple(e)] = draw(st.sampled_from(_COEFFS))
    terms = {}
    for e, c in holo.items():
        terms[(e, zero)] = c
        terms[(zero, e)] = c.conjugate()
    for _ in range(draw(st.integers(1, 3))):
        a, b = monomial(), monomial()
        c = draw(st.sampled_from(_COEFFS))
        if a == b:
            terms[(a, a)] = gr(c.re)
        else:
            terms[(a, b)] = c
            terms[(b, a)] = c.conjugate()
    r = CPolynomial(n, terms)
    return validate(r), r.total_degree() + draw(st.integers(0, 3))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(germ=_germs(), exps=st.lists(st.integers(1, 3), min_size=2, max_size=2),
       coeffs=st.lists(st.sampled_from(_COEFFS), min_size=2, max_size=2))
def test_graph_frame_restricts_r_to_the_graph(germ, exps, coeffs):
    r, K = germ
    gf = normalize_to_graph(r, K)
    assert gf.g.pure_mixed_split()[0].is_zero()
    m = r.nvars - 1
    eta = CurveJet.monomial(exps[:m], coeffs[:m])
    u = pullback(r.r, gf.lift_curve(eta))
    v = pullback(gf.g, eta)
    caps = [p.truncation for p in (u, v) if p.truncation is not None]
    if caps:
        assert u.truncate(min(caps)).terms == v.truncate(min(caps)).terms
    else:
        assert u == v


class TestGramCertificate:
    def test_certifies_sum_of_squares(self):
        g = parse_expression("abs2(z1 + z2^2) + abs2(z2)^2", 2)
        cert = gram_certificate(g)
        assert cert.verdict == "certified"
        # reconstruction: sum of weight * |f|^2 equals g exactly
        recon = CPolynomial.zero(2)
        for d, f in cert.squares:
            assert d > 0
            recon = recon + (f * f.conjugate()).scale(gr(d))
        assert recon == g

    def test_indefinite_direction_is_negative(self):
        g = parse_expression("abs2(z1)^2 - abs2(z2)^2", 2)
        cert = gram_certificate(g)
        assert cert.verdict == "inconclusive"
        assert cert.indefinite_direction

    def test_rejects_pure_terms(self):
        with pytest.raises(ValueError):
            gram_certificate(parse_expression("z1^2 + conj(z1)^2", 1))


class TestPSSearch:
    def test_finds_violation_with_canonical_witness(self):
        g = parse_expression("abs2(z1) + z1*conj(z2)^2 + z2^2*conj(z1)", 2)
        cert = ps_search(g, SearchBudget(max_degree=4), gram_certificate(g))
        assert cert.verdict == "violation"
        assert format_curve(cert.witness) == "(-t^2, t)"
        assert cert.witness_result.profile.ck == -1
        # re-verification from the certificate alone
        assert ps_test_single(g, cert.witness).is_violation

    @pytest.mark.parametrize("max_degree", [4, 6])
    def test_gram_seed_stage_finds_violation(self, monkeypatch, max_degree):
        # The null direction (5/24, 1) of the indefinite Gram matrix is out
        # of reach of the seed coefficients and the scan grid, so only the
        # Gram-seed stage finds the violation.
        g = parse_expression(
            "24*abs2(z2) - 5*z2*conj(z1) - 5*z1*conj(z2) + abs2(z1)", 2)
        budget, gram = SearchBudget(max_degree=max_degree), gram_certificate(g)
        cert = ps_search(g, budget, gram)
        assert cert.verdict == "violation"
        assert format_curve(cert.witness) == "(t, 5/24*t)"
        assert cert.witness_result.profile.ck == Fraction(-1, 24)
        monkeypatch.setattr(germ, "_gram_seed_curves", lambda g, direction: [])
        assert ps_search(g, budget, gram).verdict == "no_violation_up_to_bounds"

    def test_no_violation_within_bounds(self):
        g = parse_expression("abs2(z1)^2 + abs2(z2)^2", 2)
        cert = ps_search(g, SearchBudget(max_degree=3, random_trials=20), gram_certificate(g))
        assert cert.verdict == "no_violation_up_to_bounds"
        assert cert.bounds is not None


class TestGermPSCheck:
    def test_stabilization_for_cancelling_square(self):
        r = _germ("2*Re(z3) + abs2(z1 + z2^2)")
        rep = germ_ps_check(r, 2, 6, SearchBudget(max_degree=4, random_trials=10))
        assert rep.k0 == 4
        verdicts = {e.k: e.certificate.verdict for e in rep.entries}
        assert verdicts[3] == "violation"
        assert verdicts[4] == "certified"
        assert rep.entry(3).certificate.witness_result.profile.ck == -1

    def test_note_labels_empirical_scope(self):
        r = _germ("2*Re(z3) + abs2(z1)^2")
        rep = germ_ps_check(r, 2, 4, SearchBudget(max_degree=3, random_trials=5))
        assert "empirical" in rep.note
        assert rep.k0 == 2

    def test_bad_range(self):
        r = _germ("2*Re(z3) + abs2(z1)^2")
        with pytest.raises(ValueError):
            germ_ps_check(r, 5, 4, SearchBudget())
