"""Regular/singular type computation, desingularization, and inference rules."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactps.algebra import CPolynomial
from contactps.curve import CurveJet, pullback
from contactps.expr import format_curve, parse_curve, parse_expression
from contactps.germ import germ_ps_check, gram_certificate, normalize_to_graph, validate
from contactps.search import SearchBudget
from contactps.typecalc import (
    ContactNotFourMError,
    ContradictoryEvidenceError,
    CurveFrameError,
    Evidence,
    PSViolationError,
    TypeClaim,
    _hermitian_quadratic_definite,
    _regular_contact_ideal,
    desingularize,
    gaussian_common_roots,
    infer_type,
    reg_type,
    sing_type_search,
)

from conftest import gr


def _graph(text, K=8, n=3):
    return normalize_to_graph(validate(parse_expression(text, n)), K)


class TestGaussianRoots:
    def test_linear_and_quadratic(self):
        # x^2 + 1 factors over the Gaussian rationals
        roots, complete = gaussian_common_roots([{2: gr(1), 0: gr(1)}])
        assert complete and {(c.re, c.im) for c in roots} == {(-0, -1), (0, 1)} or \
            sorted((c.re, c.im) for c in roots) == [(0, -1), (0, 1)]

    def test_irrational_roots_flagged_incomplete(self):
        roots, complete = gaussian_common_roots([{2: gr(1), 0: gr(-2)}])
        assert roots == [] and not complete

    def test_common_roots_of_two_polys(self):
        # (x-1)(x-2) and (x-1)(x+3) share x=1 only
        p1 = {2: gr(1), 1: gr(-3), 0: gr(2)}
        p2 = {2: gr(1), 1: gr(2), 0: gr(-3)}
        roots, complete = gaussian_common_roots([p1, p2])
        assert complete and [(c.re, c.im) for c in roots] == [(1, 0)]


_ROOT_POOL = [gr(re, im) for re in (-2, Fraction(-1, 2), 0, 1, Fraction(3, 2))
              for im in (-1, 0, Fraction(1, 3), 2)]
_X = CPolynomial.variable(1, 0)
# Irreducible over Q(i): their roots are +-sqrt(2), +-i*sqrt(2), (-1 +- i*sqrt(3))/2.
_IRREDUCIBLE = [_X ** 2 - CPolynomial.constant(1, gr(2)),
                _X ** 2 + CPolynomial.constant(1, gr(2)),
                _X ** 2 + _X + CPolynomial.one(1)]


@st.composite
def _planted_root_systems(draw):
    """1-3 polynomials with planted Gaussian-rational roots and
    multiplicities, some times one shared factor irreducible over Q(i).
    Returns (polys, common roots, whether every poly carries the factor)."""
    roots_of = st.lists(st.sampled_from(_ROOT_POOL), max_size=3, unique=True)
    shared = draw(roots_of)
    irreducible = draw(st.sampled_from(_IRREDUCIBLE))
    carry_all = draw(st.booleans())
    polys, root_sets, carried = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        roots = set(shared) | set(draw(roots_of))
        unit = draw(st.sampled_from([gr(1), gr(-3), gr(Fraction(1, 2), 1)]))
        p = CPolynomial.constant(1, unit)
        for x in sorted(roots, key=lambda c: (c.re, c.im)):
            p = p * (_X - CPolynomial.constant(1, x)) ** draw(st.integers(1, 3))
        carries = carry_all or draw(st.booleans())
        if carries:
            p = p * irreducible
        polys.append({h[0]: c for (h, _anti), c in p.terms.items()})
        root_sets.append(roots)
        carried.append(carries)
    return polys, set.intersection(*root_sets), all(carried)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(system=_planted_root_systems())
def test_gaussian_common_roots_recovers_planted_roots(system):
    polys, common, all_carry = system
    roots, complete = gaussian_common_roots(polys)
    assert roots == sorted(common, key=lambda c: (c.re, c.im))
    assert complete == (not all_carry)


_Z = (CPolynomial.variable(2, 0), CPolynomial.variable(2, 1))
_BRANCH_COEFFS = [gr(1), gr(-1), gr(2), gr(0, 1), gr(Fraction(1, 2), -1)]


@st.composite
def _ideal_factor(draw):
    """A factor of a 2-variable generator: a Gaussian-rational branch
    z_q = c*z_p^k, an irrational one z_q^2 = r*z_p^(2k), or a binomial."""
    p = draw(st.sampled_from([0, 1]))
    zp, zq = _Z[p], _Z[1 - p]
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["branch", "irrational", "binomial"]))
    if kind == "branch":
        return zq - (zp ** k).scale(draw(st.sampled_from(_BRANCH_COEFFS)))
    if kind == "irrational":
        return zq ** 2 - (zp ** (2 * k)).scale(gr(draw(st.sampled_from([2, -2, 3]))))
    e = [draw(st.integers(0, 3)) for _ in range(4)]
    return (_Z[0] ** e[0] * _Z[1] ** e[1]
            + (_Z[0] ** e[2] * _Z[1] ** e[3]).scale(draw(st.sampled_from(_BRANCH_COEFFS))))


@st.composite
def _generator(draw):
    f = CPolynomial.one(2)
    for factor in draw(st.lists(_ideal_factor(), min_size=1, max_size=3)):
        f = f * factor
    # Generators vanish at the origin, so drop the constant term.
    return CPolynomial(2, {key: c for key, c in f.terms.items() if any(key[0])})


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(fs=st.lists(_generator(), min_size=1, max_size=3),
       cap=st.sampled_from([6, 8, 12]))
def test_dfs_witness_matches_exact_pullback(fs, cap):
    """The DFS witness is checked against the exact pullback: it annihilates
    every generator when the result is infinite, and otherwise its least
    generator order is the value (exact) or at least the value (bound)."""
    assume(any(not f.is_zero() for f in fs))
    res, witness = _regular_contact_ideal(fs, cap)
    pulled = [pullback(f, witness) for f in fs]
    if res.infinite:
        assert all(u.is_zero() for u in pulled)
        return
    order = min(u.order_of_vanishing().value for u in pulled if not u.is_zero())
    assert order == res.value if res.exact else order >= res.value


@pytest.mark.parametrize("text, n, definite", [
    ("abs2(z1) + 2*abs2(z2) + z1*conj(z2) + z2*conj(z1)", 2, True),
    ("-abs2(z1) - abs2(z2) + abs2(z1)^2", 2, True),
    ("abs2(z1 + z2)", 2, False),
    ("abs2(z1) - abs2(z2)", 2, False),
    ("abs2(z1) + abs2(z2)^2", 2, False),
    ("z1*conj(z2) + z2*conj(z1)", 2, False),
    ("abs2(z1) + abs2(z2) + abs2(z3) + 1/2*i*z1*conj(z3) - 1/2*i*z3*conj(z1)", 3, True),
    ("abs2(z1 + z2) + abs2(z2 - z3) + abs2(z1 - z3)", 3, True),
    ("abs2(z1 + z2) + abs2(z2 - z3) + abs2(z1 + z3)", 3, False),
])
def test_hermitian_quadratic_definite(text, n, definite):
    """Positive or negative definite degree-2 parts only; a null direction,
    an indefinite form, a variable missing from the quadratic part or a
    zero diagonal all fail.  Terms of other degrees are ignored."""
    assert _hermitian_quadratic_definite(parse_expression(text, n)) is definite


class TestRegType:
    def test_definite_quadratic_gives_two(self):
        gf = _graph("2*Re(z2) + abs2(z1)", 8, 2)
        claim = reg_type(gf, 8, gram_certificate(gf.g))
        assert claim.kind == "exact" and claim.value == 2

    def test_cubic_square_difference_gives_six(self):
        gf = _graph("2*Re(z3) + abs2(z1^2 - z2^3)")
        claim = reg_type(gf, 8, gram_certificate(gf.g))
        assert claim.kind == "exact" and claim.value == 6
        assert claim.witness is not None
        g = _graph("2*Re(z3) + abs2(z1^2 - z2^3)").g
        order = pullback(g, claim.witness).order_of_vanishing()
        assert order.kind == "exact" and order.value == 6

    def test_cancelling_square_gives_four(self):
        gf = _graph("2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2")
        claim = reg_type(gf, 8, gram_certificate(gf.g))
        assert claim.kind == "exact" and claim.value == 4

    def test_fourth_powers_give_four(self):
        gf = _graph("2*Re(z3) + abs2(z1)^2 + abs2(z2)^2")
        claim = reg_type(gf, 8, gram_certificate(gf.g))
        assert claim.kind == "exact" and claim.value == 4

    def test_witness_always_reverifies(self):
        for text in (
            "2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2",
            "2*Re(z3) + abs2(z1^2 + z2^2) + abs2(z1*z2)",
        ):
            gf = _graph(text)
            claim = reg_type(gf, 8, gram_certificate(gf.g))
            order = pullback(gf.g, claim.witness).order_of_vanishing()
            assert order.kind == "exact" and order.value == claim.value

    def test_cap_enforced_by_normalization_bound(self):
        gf = _graph("2*Re(z3) + abs2(z1)^2 + abs2(z2)^2", K=4)
        with pytest.raises(ValueError):
            reg_type(gf, 8, gram_certificate(gf.g))

    @pytest.mark.parametrize("text", [
        "2*Re(z3) + abs2(z1*(z2^2 - 2*z1^4)) + abs2(z2^6)",
        "2*Re(z3) + abs2(z2*(z1^2 - 2*z2^4)) + abs2(z1^6)",
    ])
    def test_irrational_branch_is_not_exact(self, text):
        # Along (t, sqrt(2)*t^2) (or its mirror) the first generator vanishes
        # and the pullback is 64|t|^24, so 12 is only a lower bound.
        gf = _graph(text, 16)
        claim = reg_type(gf, 16, gram_certificate(gf.g))
        assert claim.kind == "at_least" and claim.value == 12


def _planted_germ(swap, q, k, e, m):
    a, b = ("z2", "z1") if swap else ("z1", "z2")
    return f"2*Re(z3) + abs2({a}^{e}*({b}^2 - {q}*{a}^{2 * k})) + abs2({b}^{m})"


def _planted_branch_order(q, k, e, m):
    """Order of |f1|^2 + |f2|^2 along (a, b) = (t, sqrt(q)*t^k), by sympy."""
    import sympy

    t = sympy.Symbol("t", positive=True)
    a, b = t, sympy.sqrt(q) * t**k
    f1 = a**e * (b**2 - q * a**(2 * k))
    f2 = b**m
    h = sympy.expand(f1 * sympy.conjugate(f1) + f2 * sympy.conjugate(f2))
    return min(sympy.Poly(h, t).monoms())[0]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(swap=st.booleans(), q=st.sampled_from([2, 3, 5]), k=st.sampled_from([1, 2]),
       e=st.sampled_from([1, 2]), m=st.sampled_from([3, 4, 6]))
def test_exact_reg_type_never_below_planted_branch(swap, q, k, e, m):
    """The planted branch b = sqrt(q)*a^k is irrational over Q(i); the
    regular type is at least the order along it, so no exact claim may be
    smaller."""
    gf = _graph(_planted_germ(swap, q, k, e, m), 32)
    claim = reg_type(gf, 32, gram_certificate(gf.g))
    if claim.kind == "exact":
        assert claim.value >= _planted_branch_order(q, k, e, m)


class TestSingTypeSearch:
    def test_infinite_certificate(self):
        gf = _graph("2*Re(z3) + abs2(z1^2 - z2^3)")
        res = sing_type_search(gf, SearchBudget(max_degree=4, random_trials=20))
        assert res.kind == "infinite"
        assert format_curve(res.witness) == "(t^3, t^2)"
        assert pullback(gf.g, res.witness).is_zero()

    def test_ratio_lower_bound(self):
        gf = _graph("2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2")
        res = sing_type_search(gf, SearchBudget(max_degree=4, random_trials=50))
        assert res.kind == "lower_bound"
        assert res.ratio == 4
        assert res.candidates_tested > 0

    def test_simple_fourth_power(self):
        gf = _graph("2*Re(z2) + abs2(z1)^2", 8, 2)
        res = sing_type_search(gf, SearchBudget(max_degree=4, random_trials=20))
        assert res.ratio == 4  # achieved by (t) and (t^2) alike

    def test_budget_monotonicity(self):
        gf = _graph("2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2")
        small = sing_type_search(gf, SearchBudget(max_degree=3, random_trials=10))
        big = sing_type_search(gf, SearchBudget(max_degree=6, random_trials=100))
        assert big.ratio >= small.ratio


class TestDesingularize:
    def test_cancelling_square(self):
        gf = _graph("2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2")
        res = desingularize(gf, parse_curve("(-t^4, t^2)"))
        assert format_curve(res.eta) == "(-t^2, t)"
        order = pullback(gf.g, res.eta).order_of_vanishing()
        assert order.kind == "exact" and order.value == 4

    def test_pure_fourth_power_m2_m3(self):
        gf = _graph("2*Re(z2) + abs2(z1)^2", 8, 2)
        for m in (2, 3):
            res = desingularize(gf, parse_curve(f"(t^{m})"))
            assert format_curve(res.eta) == "(t)"
            assert res.transcript["contact"] == 4 * m

    def test_coefficient_transfer_identity(self):
        gf = _graph("2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2")
        z = parse_curve("(-t^4, t^2)")
        res = desingularize(gf, z)
        u = pullback(gf.g, z)
        v = pullback(gf.g, res.eta)
        assert v.coeff(((2,), (2,))) == u.coeff(((4,), (4,)))
        # every coefficient of total degree < 4 vanishes
        assert v.order_of_vanishing().value == 4

    def test_rejects_wrong_contact(self):
        gf = _graph("2*Re(z3) + abs2(z1^2 - z2^3)")
        with pytest.raises(ContactNotFourMError):
            desingularize(gf, parse_curve("(t^3, t^2)"))  # infinite contact
        with pytest.raises(ContactNotFourMError):
            desingularize(gf, parse_curve("(t, 0)"))  # regular input

    def test_rejects_ps_violation_along_curve(self):
        # negative balanced coefficient at exact order 4m
        g = parse_expression("0 - abs2(z1)^2 + abs2(z1^3)", 1)
        from contactps.germ import GraphForm
        from contactps.algebra import CPolynomial
        gf2 = GraphForm(g, 8, (CPolynomial.variable(1, 0), CPolynomial.zero(1)))
        with pytest.raises(PSViolationError):
            desingularize(gf2, parse_curve("(t^2)"))

    def test_rejects_nonzero_last_coordinate(self):
        gf = _graph("2*Re(z3) + abs2(z1)^2 + abs2(z2)^2")
        with pytest.raises(CurveFrameError):
            desingularize(gf, parse_curve("(t^2, 0, t^2)"))
        # a zero last coordinate is accepted and stripped
        res = desingularize(gf, parse_curve("(t^2, 0, 0)"))
        assert format_curve(res.eta) == "(t, 0)"


class TestInferType:
    def _evidence_for(self, text, n=3, kmax=6):
        r = validate(parse_expression(text, n))
        gf = normalize_to_graph(r, 8)
        budget = SearchBudget(max_degree=4, random_trials=50)
        reg = reg_type(gf, 8, gram_certificate(gf.g))
        sing = sing_type_search(gf, budget)
        ps = germ_ps_check(r, 2, kmax, budget)
        return r, Evidence(reg=reg, sing=sing, ps=ps)

    def test_rule_i_infinite_dominates(self):
        r, ev = self._evidence_for("2*Re(z3) + abs2(z1^2 - z2^3)")
        rep = infer_type(r, ev)
        assert rep.sing_type.kind == "infinite"
        assert any("rule (i)" in step for step in rep.trail)

    def test_rule_ii_type_two(self):
        r, ev = self._evidence_for("2*Re(z2) + abs2(z1)", 2)
        rep = infer_type(r, ev)
        assert rep.sing_type.kind == "exact" and rep.sing_type.value == 2
        assert any("rule (ii)" in step for step in rep.trail)

    def test_rule_iii_multiplicity_reduction(self):
        r, ev = self._evidence_for("2*Re(z3) + abs2(z1)^2 + abs2(z2)^2")
        rep = infer_type(r, ev)
        assert rep.sing_type.kind == "exact" and rep.sing_type.value == 4
        assert any("rule (iii)" in step for step in rep.trail)

    def test_rule_iii_refuses_search_evidence_without_flag(self):
        reg = TypeClaim("exact", 4)
        from contactps.germ import PSCertificate
        ps = PSCertificate("no_violation_up_to_bounds", "search")
        rep = infer_type(None, Evidence(reg=reg, ps=ps))
        assert rep.sing_type.kind == "at_least"

    def test_contradiction_surfaced(self):
        from contactps.germ import PSCertificate
        reg = TypeClaim("exact", 4)
        ps = PSCertificate("certified", "gram")
        bad_sing = sing_type_search(
            _graph("2*Re(z3) + abs2(z1^2 - z2^3)"),
            SearchBudget(max_degree=4, random_trials=10),
        )
        with pytest.raises(ContradictoryEvidenceError):
            infer_type(None, Evidence(reg=reg, sing=bad_sing, ps=ps))
