"""Germ validation, graph normal form, and positivity certification."""

import pytest

from contactps.algebra import CPolynomial
from contactps.curve import ps_test_single, pullback
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
        assert not gf.residual_flag

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
