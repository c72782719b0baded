"""Regular/singular type computation, desingularization, and inference rules."""

import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactps import algebra, typecalc
from contactps.algebra import CPolynomial
from contactps.curve import CurveJet, contact_order, leading_rows, pullback, pullback_lowest
from contactps.expr import format_curve, parse_curve, parse_expression, parse_problem
from contactps.germ import germ_ps_check, gram_certificate, normalize_to_graph, validate
from contactps.report import GermAnalysis
from contactps.search import (
    SearchBudget,
    cancellation_scan_choices,
    monomial_choices,
    monomial_vectors,
    random_draws,
    scan_vectors,
)
from contactps.typecalc import (
    ContactNotFourMError,
    ContradictoryEvidenceError,
    CurveFrameError,
    Evidence,
    PSViolationError,
    TypeClaim,
    _best_contact,
    _candidates,
    _hermitian_quadratic_definite,
    _regular_contact_ideal,
    desingularize,
    gaussian_common_roots,
    infer_type,
    reg_type,
    sing_type_search,
)

from conftest import (
    gaussian_common_roots_norm_reference,
    gaussian_common_roots_reference,
    gr,
    hermitian_quadratic_definite_reference,
    leading_rows_reference,
)


def _graph(text, K=8, n=3):
    return normalize_to_graph(validate(parse_expression(text, n)), K)


class TestGaussianRoots:
    def test_linear_and_quadratic(self):
        # x^2 + 1 factors over the Gaussian rationals
        roots, complete = gaussian_common_roots([{2: gr(1), 0: gr(1)}])
        assert complete
        assert roots == [gr(0, -1), gr(0, 1)]

    def test_irrational_roots_flagged_incomplete(self):
        roots, complete = gaussian_common_roots([{2: gr(1), 0: gr(-2)}])
        assert roots == [] and not complete

    def test_common_roots_of_two_polys(self):
        # (x-1)(x-2) and (x-1)(x+3) share x=1 only
        p1 = {2: gr(1), 1: gr(-3), 0: gr(2)}
        p2 = {2: gr(1), 1: gr(2), 0: gr(-3)}
        roots, complete = gaussian_common_roots([p1, p2])
        assert complete and [(c.re, c.im) for c in roots] == [(1, 0)]


@pytest.mark.parametrize("coeffs, roots, complete", [
    ({2: gr(1), 0: gr(-2)}, [], False),  # x^2 - 2
    ({2: gr(1), 1: gr(0, -3), 0: gr(-2)}, [gr(0, 1), gr(0, 2)], True),  # (x - i)(x - 2i)
    ({2: gr(1), 1: gr(1), 0: gr(1)}, [], False),  # x^2 + x + 1
    ({4: gr(1), 2: gr(-2), 0: gr(9)}, [], False),  # two quadratic factors over Q(i)
    # (x - 1)^2 (x + i): a repeated root is listed once
    ({3: gr(1), 2: gr(-2, 1), 1: gr(1, -2), 0: gr(0, 1)}, [gr(0, -1), gr(1)], True),
    # (x - i)^2: a quadratic with a repeated root
    ({2: gr(1), 1: gr(0, -2), 0: gr(-1)}, [gr(0, 1)], True),
    # (x - i)^3 (x^2 + x + 1): a repeated root beside an irreducible quadratic
    ({5: gr(1), 4: gr(1, -3), 3: gr(-2, -3), 2: gr(-3, -2), 1: gr(-3, 1), 0: gr(0, 1)},
     [gr(0, 1)], False),
])
def test_gaussian_common_roots_on_higher_degree_factors(coeffs, roots, complete):
    assert gaussian_common_roots([coeffs]) == (roots, complete)


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


# None splits over Q(i): _IRREDUCIBLE, x^2 + ix + 1 (roots (-i +- i*sqrt(5))/2)
# and x^4 - 2x^2 + 9 = (x^2 - 2ix - 3)(x^2 + 2ix - 3), irreducible over Q.
_NOT_SPLIT = _IRREDUCIBLE + [
    _X ** 2 + _X.scale(gr(0, 1)) + CPolynomial.one(1),
    _X ** 4 - (_X ** 2).scale(gr(2)) + CPolynomial.constant(1, gr(9)),
]


@st.composite
def _root_systems(draw):
    """1-3 polynomials, each a nonzero Gaussian scalar times planted
    Gaussian-rational roots of multiplicity 1-3, sometimes with the
    conjugate of a root (a factor that g shares with its conjugate), times
    factors that do not split over Q(i); a shared part makes the gcd
    nontrivial, and a polynomial with nothing planted is a constant."""
    def part():
        roots = draw(st.lists(st.sampled_from(_ROOT_POOL), max_size=3, unique=True))
        if roots and draw(st.booleans()):
            roots.append(roots[0].conjugate())
        p = CPolynomial.one(1)
        for x in dict.fromkeys(roots):
            p = p * (_X - CPolynomial.constant(1, x)) ** draw(st.integers(1, 3))
        for f in draw(st.lists(st.sampled_from(_NOT_SPLIT), max_size=2)):
            p = p * f
        return p

    shared = part()
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        unit = draw(st.sampled_from([gr(1), gr(-3), gr(Fraction(1, 2), 1), gr(0, 2)]))
        p = (shared * part()).scale(unit)
        polys.append({h[0]: c for (h, _anti), c in p.terms.items()})
    return polys


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(polys=_root_systems())
def test_gaussian_common_roots_matches_factoring_over_gaussian_field(polys):
    """The root finder gives the roots and the complete flag of the
    factorization over Q<I> that the rational norm replaced."""
    assert gaussian_common_roots(polys) == gaussian_common_roots_reference(polys)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(polys=st.one_of(_planted_root_systems().map(lambda system: system[0]), _root_systems()))
def test_gaussian_common_roots_are_roots_of_every_input(polys):
    """Every returned root zeroes every input polynomial exactly, for 1-3
    polynomials with planted shared and unshared roots, so a caller needs
    no check of its own."""
    roots, _complete = gaussian_common_roots(polys)
    for x in roots:
        assert all(typecalc._eval_univariate(phi, x).is_zero() for phi in polys)


_HEIGHT = 10 ** 6
# Roots that collide mod 5, mod 13 or both: the lifting prime must pass them.
_COLLIDING = [[gr(0), gr(5), gr(65)], [gr(0, 1), gr(5, 1)]]
_NOT_SPLIT_FACTORS = [(2, _X ** 2 - CPolynomial.constant(1, gr(2))),
                      (4, _X ** 4 - (_X ** 2).scale(gr(2)) + CPolynomial.constant(1, gr(9)))]


def _planted(unit, roots, factor=None):
    """unit * prod (x - r)^m over the (root, multiplicity) pairs, times factor."""
    p = CPolynomial.constant(1, unit)
    for x, m in roots:
        p = p * (_X - CPolynomial.constant(1, x)) ** m
    if factor is not None:
        p = p * factor
    return {h[0]: c for (h, _anti), c in p.terms.items()}


@st.composite
def _lifting_systems(draw):
    """1-2 polynomials of degree at most 6 with coefficient or root heights
    up to 10^6 and Gaussian leading coefficients: either dense with random
    coefficients, or a Gaussian scalar times planted Gaussian-rational roots
    of multiplicity 1-3 (sometimes a root with its conjugate, a factor that
    g shares with conj(g), or a set of roots that collide mod 5 and 13),
    sometimes times x^2 - 2 or x^4 - 2x^2 + 9, and sometimes a second
    polynomial that shares those roots and adds one of its own; or x (x - c)
    with a root c near Cauchy's bound."""
    height = draw(st.sampled_from([2, 1000, _HEIGHT]))
    part = st.integers(-height, height)
    gaussian = st.builds(gr, part, part).filter(lambda c: not c.is_zero())
    kind = draw(st.sampled_from(["dense", "planted", "edge"]))
    if kind == "edge":
        # x (x - c) for c = k or k*i has Cauchy's bound 1 + k, so the root
        # c has a part one below the bound.
        k = draw(st.integers(1, _HEIGHT))
        return [_planted(gr(1), [(gr(0), 1), (draw(st.sampled_from([gr(k), gr(0, k)])), 1)])]
    if kind == "dense":
        deg = draw(st.integers(2, 6))
        coeffs = draw(st.lists(st.builds(gr, part, part), min_size=deg, max_size=deg))
        return [dict(enumerate(coeffs + [draw(gaussian)]))]
    rational = st.builds(lambda a, b, d: gr(Fraction(a, d), Fraction(b, d)),
                         part, part, st.integers(1, 7))
    small = st.sampled_from(_ROOT_POOL)
    preset = draw(st.sampled_from([[]] * 3 + _COLLIDING))
    deg = len(preset)
    roots = [(x, 1) for x in preset]
    for _ in range(draw(st.integers(0 if preset else 1, 4))):
        x = draw(st.one_of(small, gaussian, rational))
        pair = [x, x.conjugate()] if not x.is_real() and draw(st.booleans()) else [x]
        for y in pair:
            if deg < 6 and y not in dict(roots):
                m = draw(st.integers(1, min(3, 6 - deg)))
                roots.append((y, m))
                deg += m
    factor = None
    if draw(st.booleans()):
        fdeg, factor = draw(st.sampled_from(_NOT_SPLIT_FACTORS))
        if deg + fdeg > 6:
            factor = None
    polys = [_planted(draw(gaussian), roots, factor)]
    if draw(st.booleans()):
        polys.append(_planted(draw(gaussian), roots + [(draw(gaussian), 1)],
                              factor if draw(st.booleans()) else None))
    return polys


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(polys=_lifting_systems())
def test_gaussian_common_roots_matches_the_norm_factoring(polys):
    """The p-adic lifting gives the roots and the complete flag of the
    rational-norm factoring that it replaced."""
    assert gaussian_common_roots(polys) == gaussian_common_roots_norm_reference(polys)


@pytest.mark.parametrize("roots, primes", [
    ([gr(0), gr(5), gr(65)], [5, 13, 17]),  # collide mod 5 and mod 13
    ([gr(0, 1), gr(5, 1)], [5, 13]),  # collide mod 5
], ids=["0,5,65", "i,5+i"])
def test_lifting_prime_passes_colliding_roots(monkeypatch, roots, primes):
    """A prime mod which planted roots collide gives an image with a
    multiple root, so the prime loop passes it."""
    tried = []
    split_primes = typecalc._split_primes

    def spy():
        for p in split_primes():
            tried.append(p)
            yield p

    monkeypatch.setattr(typecalc, "_split_primes", spy)
    poly = _planted(gr(1), [(x, 1) for x in roots])
    assert gaussian_common_roots([poly]) == (roots, True)
    assert tried == primes


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


_DEFINITE_CASES = [
    ("abs2(z1) + 2*abs2(z2) + z1*conj(z2) + z2*conj(z1)", 2, True),
    ("-abs2(z1) - abs2(z2) + abs2(z1)^2", 2, True),
    ("abs2(z1 + z2)", 2, False),
    ("abs2(z1) - abs2(z2)", 2, False),
    ("abs2(z1) + abs2(z2)^2", 2, False),
    ("z1*conj(z2) + z2*conj(z1)", 2, False),
    ("abs2(z1) + abs2(z2) + abs2(z3) + 1/2*i*z1*conj(z3) - 1/2*i*z3*conj(z1)", 3, True),
    ("abs2(z1 + z2) + abs2(z2 - z3) + abs2(z1 - z3)", 3, True),
    ("abs2(z1 + z2) + abs2(z2 - z3) + abs2(z1 + z3)", 3, False),
]


@pytest.mark.parametrize("text, n, definite", _DEFINITE_CASES)
def test_hermitian_quadratic_definite(text, n, definite):
    """Positive or negative definite degree-2 parts only; a null direction,
    an indefinite form, a variable missing from the quadratic part or a
    zero diagonal all fail.  Terms of other degrees are ignored."""
    g = parse_expression(text, n)
    assert _hermitian_quadratic_definite(g, gram_certificate) is definite


_FORM_COEFFS = [gr(1), gr(-1), gr(2), gr(0, 1), gr(1, -1)]


@st.composite
def _hermitian_sums(draw):
    """A real mixed-only polynomial in 1-3 variables: a sum of w * |f|^2
    over holomorphic f with a linear part and a quadratic term, w of either
    sign, and now and then a conjugate pair of mixed quartic terms."""
    n = draw(st.integers(1, 3))
    variables = [CPolynomial.variable(n, i) for i in range(n)]
    g = CPolynomial.zero(n)
    for _ in range(draw(st.integers(1, 3))):
        f = CPolynomial.zero(n)
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)):
            f = f + variables[i].scale(draw(st.sampled_from(_FORM_COEFFS)))
        if draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            f = f + (variables[i] * variables[j]).scale(draw(st.sampled_from(_FORM_COEFFS)))
        w = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]))
        g = g + (f * f.conjugate()).scale(gr(w))
    if draw(st.booleans()):
        c = draw(st.sampled_from(_FORM_COEFFS))
        pair = (variables[0] ** 2) * variables[-1].conjugate() * variables[0].conjugate()
        g = g + pair.scale(c) + pair.conjugate().scale(c.conjugate())
    return g


def test_definiteness_rule_matches_both_certificates():
    """Forming no certificate for an empty q, and none for -q when g's own
    certificate is certified, decides definiteness as certifying q and -q
    both does: on the parametrized forms above, on the graph frames of the
    corpus germs, and on random sums of squares of either sign; the inputs
    reach every case of the rule."""
    reached = set()

    def check(g):
        gram = gram_certificate(g)
        got = _hermitian_quadratic_definite(g, gram_certificate)
        assert got is hermitian_quadratic_definite_reference(g)
        reached.add((g.homogeneous_slice(2).is_zero(), gram.verdict, got))

    for text, n, _definite in _DEFINITE_CASES:
        check(parse_expression(text, n))
    for path in CORPUS:
        check(GermAnalysis(path.read_text(), {}).frame(8).g)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(g=_hermitian_sums())
    def random_sums(g):
        check(g)

    random_sums()
    assert reached >= {(True, "certified", False), (False, "certified", True),
                       (False, "certified", False), (False, "inconclusive", True),
                       (False, "inconclusive", False)}


class TestRegType:
    def test_definite_quadratic_gives_two(self):
        gf = _graph("2*Re(z2) + abs2(z1)", 8, 2)
        claim = reg_type(gf, 8, gram_certificate)
        assert claim.kind == "exact" and claim.value == 2

    def test_cubic_square_difference_gives_six(self):
        gf = _graph("2*Re(z3) + abs2(z1^2 - z2^3)")
        claim = reg_type(gf, 8, gram_certificate)
        assert claim.kind == "exact" and claim.value == 6
        assert claim.witness is not None
        g = _graph("2*Re(z3) + abs2(z1^2 - z2^3)").g
        order = pullback(g, claim.witness).order_of_vanishing()
        assert order.kind == "exact" and order.value == 6

    def test_cancelling_square_gives_four(self):
        gf = _graph("2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2")
        claim = reg_type(gf, 8, gram_certificate)
        assert claim.kind == "exact" and claim.value == 4

    def test_fourth_powers_give_four(self):
        gf = _graph("2*Re(z3) + abs2(z1)^2 + abs2(z2)^2")
        claim = reg_type(gf, 8, gram_certificate)
        assert claim.kind == "exact" and claim.value == 4

    def test_witness_always_reverifies(self):
        for text in (
            "2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2",
            "2*Re(z3) + abs2(z1^2 + z2^2) + abs2(z1*z2)",
        ):
            gf = _graph(text)
            claim = reg_type(gf, 8, gram_certificate)
            order = pullback(gf.g, claim.witness).order_of_vanishing()
            assert order.kind == "exact" and order.value == claim.value

    def test_cap_enforced_by_normalization_bound(self):
        gf = _graph("2*Re(z3) + abs2(z1)^2 + abs2(z2)^2", K=4)
        with pytest.raises(ValueError):
            reg_type(gf, 8, gram_certificate)

    @pytest.mark.parametrize("text", [
        "2*Re(z3) + abs2(z1*(z2^2 - 2*z1^4)) + abs2(z2^6)",
        "2*Re(z3) + abs2(z2*(z1^2 - 2*z2^4)) + abs2(z1^6)",
    ])
    def test_irrational_branch_is_not_exact(self, text):
        # Along (t, sqrt(2)*t^2) (or its mirror) the first generator vanishes
        # and the pullback is 64|t|^24, so 12 is only a lower bound.
        gf = _graph(text, 16)
        claim = reg_type(gf, 16, gram_certificate)
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
    claim = reg_type(gf, 32, gram_certificate)
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
        gf2 = GraphForm(g, 8)
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
        reg = reg_type(gf, 8, gram_certificate)
        sing = sing_type_search(gf, budget)
        ps = germ_ps_check(r, 2, kmax, budget, gram_certificate)
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

    def test_rule_ii_forces_only_type_two(self):
        """No route claims an odd exact regular type, and rule (ii) forces
        the singular type only at 2: an exact 3 stays a lower bound."""
        rep = infer_type(None, Evidence(reg=TypeClaim("exact", 3)))
        assert (rep.sing_type.kind, rep.sing_type.value) == ("at_least", 3)
        assert not any("rule (ii)" in step for step in rep.trail)
        assert rep.notes == ()

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

    def test_rule_i_takes_an_infinite_regular_claim(self):
        """A regular curve is a curve: an infinite regular claim (made only
        on an identically zero pullback) gives infinite singular type with
        its witness when the search's claim is a lower bound, and the
        search's own infinite claim stays when it has one."""
        reg = TypeClaim("infinite", witness=parse_curve("(-t - t^2, t)"))
        budget = SearchBudget(max_degree=4, random_trials=10)
        lower = typecalc.SingSearchResult("lower_bound", Fraction(4), parse_curve("(t, 0)"), 9,
                                          budget)
        rep = infer_type(None, Evidence(reg=reg, sing=lower))
        assert (rep.sing_type.kind, format_curve(rep.sing_type.witness)) == \
            ("infinite", "(-t - t^2, t)")
        assert rep.trail == ("rule (i): exhibited regular curve with identically zero "
                             "pullback dominates everything",)
        found = typecalc.SingSearchResult("infinite", None, parse_curve("(t^2, -t)"), 9, budget)
        rep = infer_type(None, Evidence(reg=reg, sing=found))
        assert rep.sing_type == found.claim
        assert rep.trail == ("rule (i): exhibited singular curve with identically zero "
                             "pullback dominates everything",)

    @pytest.mark.parametrize("text, exact_rule", [
        ("2*Re(z2) + abs2(z1)^2", True),
        ("2*Re(z2) + abs2(z1)^2 + 2*Re(z2)*abs2(z1)^2", False),
    ])
    def test_rule_iii_takes_stabilization_only_under_the_exact_rule(self, text, exact_rule):
        """Certificates from k0 through k_max >= deg r prove positivity only
        when every restricted jet is a degree filter of one exact g (the
        exact rule); when a mixed term carries z_n, the series rule's jets
        change with k and rule (iii) is not applied."""
        r = validate(parse_expression(text, 2))
        assert (r.frame.g is not None) is exact_rule
        from contactps.germ import PSCertificate, StabilizationEntry, StabilizationReport
        k_max = r.r.total_degree()
        jet = parse_expression("abs2(z1)^2", 1)
        entries = tuple(StabilizationEntry(k, jet, PSCertificate("certified", "gram"))
                        for k in range(2, k_max + 1))
        ps = StabilizationReport(2, k_max, entries, 2, SearchBudget())
        rep = infer_type(r, Evidence(reg=TypeClaim("exact", 4), ps=ps))
        if exact_rule:
            assert (rep.sing_type.kind, rep.sing_type.value) == ("exact", 4)
            assert rep.notes == ("positivity evidence: structural certificates from the "
                                 "stabilization order through the degree of r; higher "
                                 "truncations repeat the last",)
        else:
            assert (rep.sing_type.kind, rep.sing_type.value) == ("at_least", 4)
            assert rep.trail[0].startswith("rule (iii) not applied")

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


@pytest.mark.parametrize("text", [
    "2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 + i*z2^2) + abs2(z2)^2",
])
def test_pullback_lowest_on_the_first_search_candidates(text):
    """pullback_lowest gives the order and lowest slice of the exact
    pullback on the first candidates of the falsification search."""
    g = _graph(text).g
    budget = SearchBudget(max_multiplicity=4, max_degree=8, coeff_height=2,
                          random_trials=3000)
    for z in itertools.islice(_candidates(g.nvars, budget), 500):
        fast, exact = pullback_lowest(g, z), pullback(g, z)
        order = exact.order_of_vanishing()
        assert fast.order_of_vanishing() == order
        if order.kind == "exact":
            d = order.value
            assert fast.homogeneous_slice(d).terms == exact.homogeneous_slice(d).terms


def _reference_best_contact(g, budget, max_mult):
    """_best_contact as a plain loop of contact_order over the CurveJet
    stream _candidates."""
    best_ratio, best_witness, tested = None, None, 0
    for z in _candidates(g.nvars, budget):
        if z.multiplicity() > max_mult:
            continue
        tested += 1
        order, ratio = contact_order(g, z)
        if order.kind == "zero":
            return "infinite", None, z, tested
        if ratio is not None and (best_ratio is None or ratio > best_ratio):
            best_ratio, best_witness = ratio, z
    return "lower_bound", best_ratio, best_witness, tested


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "bench" / "corpus").glob("*.txt"))
_CRIT6 = pathlib.Path(__file__).resolve().parent.parent / "bench" / "corpus" / "crit6_type4.txt"
_ITEM3 = _CRIT6.with_name("item3_repro.txt")
_JET = "2*Re(z3) + abs2(z1 + z2^2) + 2*Re(z3*z1^4) + 2*Re(z1^9)"
# The corpus germs as the report's sing-search reads them (mixed-only germs
# stay in their own frame), two jets whose leading slices cancel, a jet
# whose leading slice mostly lies above its truncation, and a mixed-only
# germ whose witness ((1+i)*t^2, t) lies in the scan stage, after decided
# scan tuples, so its early return counts them in stream order.
_SCAN_RETURN = "abs2(z1 - (1+i)*z2^2)"
_SEARCH_GERMS = {
    **{path.stem: (lambda path=path: GermAnalysis(path.read_text(), {}).frame(8).g)
       for path in CORPUS},
    "jet_K8": lambda: _graph(_JET, 8).g,
    "jet_K12": lambda: _graph(_JET, 12).g,
    "jet_above_truncation": lambda: _graph("2*Re(z3) + abs2(z1*z2) + 2*Re(z3*z1^2)", 6).g,
    "scan_return": lambda: parse_expression(_SCAN_RETURN, 2),
}


def test_best_contact_budgets_cover_the_random_filter():
    """The 60-trial budget of test_best_contact_matches_the_candidate_loop
    has, in two variables (all search germs but one), random draws of
    multiplicity above and within 2, and draws whose multiplicity key was
    forced after the pool's keys."""
    budget = SearchBudget(max_multiplicity=4, max_degree=3, coeff_height=1,
                          random_trials=60, seed=1)
    draws = list(random_draws(2, budget))
    mults = {min(e for e in exps if e) for exps, _lead, _coeffs in draws}
    assert min(mults) <= 2 < max(mults)
    assert any(len(cd) > 1 and list(cd)[-1] == min(cd)
               for _exps, _lead, coeffs in draws for cd in coeffs)


def test_search_corpus_is_present():
    assert len(CORPUS) == 19


@pytest.mark.parametrize("name", sorted(_SEARCH_GERMS))
def test_best_contact_matches_the_candidate_loop(name):
    """The grouped search gives the kind, ratio, witness and tested count of
    the plain loop over every candidate, for the regular filter, the
    singular filter at 2 and 4, and three seeds.  Most germs with a square,
    crit4_cubic_square and mixed_indef_hermitian among them, stop early at
    an identically zero pullback, so the early-return count is compared
    too.  The filter at 2 with 60 random trials drops some random groups
    but not all, and some of its draws force their multiplicity."""
    g = _SEARCH_GERMS[name]()
    for max_mult, seed, trials in ((1, 0, 20), (2, 0, 20), (4, 0, 20), (4, 1, 20), (2, 1, 60)):
        budget = SearchBudget(max_multiplicity=4, max_degree=3, coeff_height=1,
                              random_trials=trials, seed=seed)
        found = _best_contact(g, budget, max_mult, gram_certificate)
        assert (found.kind, found.ratio, found.witness, found.candidates_tested) == \
            _reference_best_contact(g, budget, max_mult)


def test_a_scan_stage_return_counts_in_stream_order():
    """The witness of abs2(z1 - (1+i)*z2^2) pulls back to zero in the scan
    stage.  Its tested count holds the decided scan tuples before it and
    none after it: 1,466 at this budget, where adding the count of every
    decided scan tuple before the scan stage gives 2,546."""
    budget = SearchBudget(4, 4, 2, 50, 0)
    found = _best_contact(_SEARCH_GERMS["scan_return"](), budget, 4, gram_certificate)
    assert (found.kind, format_curve(found.witness), found.candidates_tested) == \
        ("infinite", "((1+i)*t^2, t)", 1466)
    assert found.candidates_tested == _reference_best_contact(
        _SEARCH_GERMS["scan_return"](), budget, 4)[3]


_FALSIFY = SearchBudget(4, 8, 2, 3000, 0)


def test_sing_search_forms_each_lead_power_once(monkeypatch):
    """A falsify-budget sing-search whose random stage runs (item3_repro,
    whose classes of |z1*(z2^2 - 2*z1^4)|^2 at mu = (1, 2) have one
    two-term square for their balanced coefficient, so rule 1 leaves them
    undecided) takes every power of a leading coefficient from one memo for
    the whole search: _lead_power runs once per distinct argument."""
    calls, draws = [], []
    lead_power, random_draws_ = algebra._lead_power, typecalc.random_draws

    def spy(*args):
        calls.append(args)
        return lead_power(*args)

    def spy_draws(*args):
        draws.append(args)
        return random_draws_(*args)

    monkeypatch.setattr(algebra, "_lead_power", spy)
    monkeypatch.setattr(typecalc, "random_draws", spy_draws)
    res = sing_type_search(GermAnalysis(_ITEM3.read_text(), {}).frame(8), _FALSIFY)
    assert len(draws) == 1
    assert 0 < len(calls) == len(set(calls))
    assert (res.candidates_tested, res.ratio, format_curve(res.witness)) == (10296, 12, "(0, t)")


@pytest.mark.parametrize("name, seed", [
    ("crit6_type4", 0), ("type4_gaussian", 1), ("irr_line", 2), ("item3_repro", 3),
])
def test_best_contact_matches_the_candidate_loop_at_the_falsify_budget(name, seed):
    """At the falsification budget the grouped search gives the kind, ratio,
    witness and tested count of the plain loop over every candidate: on
    crit6_type4 and type4_gaussian, whose random stages rule 2 leaves
    undrawn, and on irr_line and item3_repro, whose undecided classes keep
    theirs."""
    g = _SEARCH_GERMS[name]()
    budget = SearchBudget(4, 8, 2, 3000, seed)
    found = _best_contact(g, budget, 4, gram_certificate)
    assert (found.kind, found.ratio, found.witness, found.candidates_tested) == \
        _reference_best_contact(g, budget, 4)


def test_crit6_type4_search_reads_no_candidate(monkeypatch):
    """Rules 1 and 2 decide every class of the falsify-budget sing-search on
    crit6_type4: no random curve is drawn, and no candidate's slice is read
    or pulled back, for the CLI's 10,296 candidates, ratio 4 and witness."""
    spied = {"random_draws": 0, "slice_vanishes": 0, "contact_order": 0}
    for name in spied:
        original = getattr(typecalc, name)

        def spy(*args, name=name, original=original):
            spied[name] += 1
            return original(*args)

        monkeypatch.setattr(typecalc, name, spy)
    res = sing_type_search(GermAnalysis(_CRIT6.read_text(), {}).frame(8), _FALSIFY)
    assert spied == {"random_draws": 0, "slice_vanishes": 0, "contact_order": 0}
    assert (res.candidates_tested, res.ratio, format_curve(res.witness)) == (10296, 4, "(0, t)")


def test_crit6_type4_search_scores_each_tuple_once(monkeypatch):
    """The falsify-budget sing-search on crit6_type4 forms one term table
    of g and reads the leading rows of each of its 56 exponent tuples within
    the multiplicity filter once, for the monomial, scan and random stages
    together."""
    tables, read = [], []
    term_table_, leading_rows_ = typecalc.term_table, typecalc.leading_rows

    def spy_table(g):
        tables.append(g)
        return term_table_(g)

    def spy_rows(g, table, exps):
        read.append(exps)
        return leading_rows_(g, table, exps)

    monkeypatch.setattr(typecalc, "term_table", spy_table)
    monkeypatch.setattr(typecalc, "leading_rows", spy_rows)
    res = sing_type_search(GermAnalysis(_CRIT6.read_text(), {}).frame(8), _FALSIFY)
    assert len(tables) == 1
    assert len(read) == len(set(read)) == 56
    assert {min(e for e in exps if e) for exps in read} == {1, 2, 3, 4}
    assert res.candidates_tested == 10296


_SQUARE_TERMS = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
              st.sampled_from([(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (1, 1)])),
    min_size=1, max_size=3)


def _sum_of_squares(squares, negative):
    """sum |f|^2 over the holomorphic polynomials f of squares, less |f|^2
    over those of negative, each given by its (exponents, (re, im)) terms."""
    total = CPolynomial.zero(2)
    for sign, terms in [(1, t) for t in squares] + [(-1, t) for t in negative]:
        f = CPolynomial.zero(2)
        for exps, c in terms:
            f = f + CPolynomial(2, {(exps, (0, 0)): gr(*c)})
        total = total + (f * f.conjugate()).scale(gr(sign))
    return total


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(squares=st.lists(_SQUARE_TERMS, min_size=1, max_size=3),
       negative=st.lists(_SQUARE_TERMS, max_size=1))
def test_rule_1_decides_no_class_with_a_cancelling_candidate(squares, negative):
    """Wherever rule 1 finds the balanced coefficient torus-positive, no
    monomial or scan candidate of the class has a cancelling slice, and
    pullback_lowest gives order d on a sample of them; random germs that
    are sums of squares, some less one more square."""
    g = _sum_of_squares(squares, negative)
    assume(not g.is_zero())
    powers: dict = {}
    table = algebra.term_table(g)
    groups = itertools.chain(
        ((exps, monomial_vectors(exps)) for exps, _count in monomial_choices(2, 4)),
        ((exps, scan_vectors(exps, 1)) for exps, _count in cancellation_scan_choices(2, 4, 1)))
    for exps, vectors in groups:
        found = leading_rows(g, table, exps)
        if found is None or not typecalc._balanced_positive(found[1], found[0], g.nvars,
                                                            gram_certificate):
            continue
        d, rows = found
        mult = min(e for e in exps if e)
        assert typecalc._leading_score(g, table, exps, mult, gram_certificate)[2] is None
        for j, v in enumerate(vectors):
            assert not algebra.slice_vanishes(rows, v, powers)
            if j % 7 == 0:
                order = pullback_lowest(g, CurveJet.monomial(exps, v)).order_of_vanishing()
                assert order.kind == "exact" and order.value == d


def test_rule_1_keeps_the_cancelling_class_of_crit5_m2():
    """On crit5_m2 the (2, 1) class has the balanced coefficient
    |c1 + c2^2|^2, which cancels: rule 1 leaves it undecided, and the search
    still finds a curve of that class with zero pullback."""
    g = _SEARCH_GERMS["crit5_m2"]()
    d, _mult, rows = typecalc._leading_score(g, algebra.term_table(g), (2, 1), 1,
                                             gram_certificate)
    assert d == 4 and rows is not None
    assert not typecalc._balanced_positive(rows, d, g.nvars, gram_certificate)
    res = _best_contact(g, _FALSIFY, 4, gram_certificate)
    assert res.kind == "infinite" and format_curve(res.witness) == "(t^2, i*t)"
    assert pullback(g, res.witness).is_zero()
