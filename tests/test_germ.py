"""Germ validation, graph normal form, and positivity certification."""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactps import germ, report
from contactps.algebra import CPolynomial, slice_torus_positive, slice_vanishes, term_table
from contactps.curve import CurveJet, leading_rows, ps_test_single, pullback
from contactps.expr import format_curve, parse_curve, parse_expression, parse_problem
from contactps.germ import (
    DegenerateLinearPartError,
    NoLinearPartError,
    NonzeroConstantError,
    NotRealError,
    germ_ps_check,
    gram_certificate,
    normalize_to_graph,
    ps_search,
    restrict,
    solve_graph,
    validate,
)
from contactps.search import SearchBudget, canonicalize_curve, monomial_choices

from conftest import (
    decompose_pure_mixed,
    germ_ps_check_per_order_reference,
    germ_ps_check_reference,
    gr,
    gram_certificate_reference,
    normalize_to_graph_reference,
)


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
        jk = r.r.truncate(4)
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
        out = restrict(g, phi)
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


_RIGID_COEFFS = [gr(1), gr(2), gr(0, 1), gr(Fraction(1, 2), Fraction(1, 2))]
_NEAR_MISSES = (None,) * 5 + ("pure", "pure_zn", "mixed_zn", "jet")


@st.composite
def _rigid_germs(draw):
    """A germ in 1-3 variables that is rigid, c*z_n + conj(c)*conj(z_n)
    plus mixed terms free of z_n with c in _RIGID_COEFFS, unless one near
    miss is drawn: a pure term in the other variables, a pure term of
    degree >= 2 in z_n, a mixed term in z_n, or a jet of the germ; with a
    bound K in [deg, deg + 3]."""
    n = draw(st.sampled_from((3, 2, 3, 2, 1)))
    zero = (0,) * n
    last = tuple(int(j == n - 1) for j in range(n))

    def monomial(width):
        e = [draw(st.integers(0, 2)) for _ in range(width)] + [0] * (n - width)
        if not any(e):
            e[draw(st.integers(0, width - 1))] = 1
        return tuple(e)

    def with_z_n():
        e = list(monomial(n))
        e[-1] += 1
        return tuple(e)

    def pair(a, b, c):
        if a == b:
            return CPolynomial.monomial(n, a, a, gr(c.re))
        return CPolynomial.monomial(n, a, b, c) + CPolynomial.monomial(n, b, a, c.conjugate())

    r = pair(last, zero, draw(st.sampled_from(_RIGID_COEFFS)))
    for _ in range(draw(st.integers(1, 3)) if n > 1 else 0):
        r = r + pair(monomial(n - 1), monomial(n - 1), draw(st.sampled_from(_COEFFS)))
    miss = draw(st.sampled_from(_NEAR_MISSES))
    c = draw(st.sampled_from(_COEFFS))
    if miss == "pure" and n > 1:
        r = r + pair(monomial(n - 1), zero, c)
    elif miss == "pure_zn":
        r = r + pair(with_z_n(), zero, c)
    elif miss == "mixed_zn":
        r = r + pair(with_z_n(), monomial(n), c)
    elif miss == "jet":
        r = r.truncate(draw(st.integers(2, max(2, r.total_degree()))))
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


def _certificate_fields(cert):
    """What a certificate holds, with the term order of every square."""
    return (cert, [(d, f.truncation, list(f.terms.items())) for d, f in cert.squares])


def _gram_outcome(certify, g):
    try:
        return _certificate_fields(certify(g))
    except ValueError as exc:
        return type(exc), str(exc)


_PAIR_EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def _gram_inputs(draw):
    """A polynomial in 1-3 variables for gram_certificate: a sum of w *
    |f|^2 over holomorphic f with weights w > 0 (certified), or with a
    negative weight or extra conjugate-paired mixed terms (often
    indefinite), or no square (zero); exact or a jet; and now and then
    with a pure pair, or one term without its conjugate (errors)."""
    n = draw(st.integers(1, 3))
    zero = (0,) * n
    g = CPolynomial.zero(n)
    for _ in range(draw(st.integers(0, 3))):
        f = CPolynomial(n, {(draw(_PAIR_EXPONENTS)[:n], zero): draw(st.sampled_from(_COEFFS))
                            for _ in range(draw(st.integers(1, 3)))})
        w = draw(st.sampled_from([gr(1), gr(2), gr(Fraction(1, 3)), gr(-1)]))
        g = g + (f * f.conjugate()).scale(w)
    terms = dict(g.terms)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(_PAIR_EXPONENTS)[:n], draw(_PAIR_EXPONENTS)[:n]
        if any(a) and any(b) and a != b:
            c = draw(st.sampled_from(_COEFFS))
            terms[(a, b)], terms[(b, a)] = c, c.conjugate()
    flaw = draw(st.sampled_from([None] * 6 + ["pure", "unpaired"]))
    a = draw(_PAIR_EXPONENTS)[:n]
    if flaw == "pure":
        terms[(a, zero)], terms[(zero, a)] = gr(1, 1), gr(1, -1)
    elif flaw == "unpaired":
        terms[(a, draw(_PAIR_EXPONENTS)[:n])] = gr(0, 1)
    return CPolynomial(n, terms, draw(st.sampled_from([None, 2, 4, 6])))


def test_gram_certificate_matches_the_reference():
    """The one-pass check and the raw-sum reconstruction give what the
    reference gives: the verdict, the squares in their term order and the
    indefinite direction, or the same error, with NotRealError before the
    mixed-only error; the sample reaches every outcome on exact and jet
    inputs."""
    reached = set()

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(g=_gram_inputs())
    def check(g):
        got = _gram_outcome(gram_certificate, g)
        assert got == _gram_outcome(gram_certificate_reference, g)
        kind = got[0].verdict if isinstance(got[0], germ.PSCertificate) else got[0].__name__
        reached.add((kind, g.is_zero(), g.truncation is None))

    check()
    assert {kind for kind, _z, _e in reached} == {
        "certified", "inconclusive", "NotRealError", "ValueError"}
    assert {("certified", True, True), ("certified", True, False),
            ("inconclusive", False, True), ("inconclusive", False, False),
            ("certified", False, True), ("certified", False, False)} <= reached


@pytest.mark.parametrize("text, n, error", [
    ("z1*conj(z2)", 2, NotRealError),
    ("i*abs2(z1)", 1, NotRealError),
    ("z1^2 + conj(z1)^2", 1, ValueError),
    ("1 + abs2(z1)", 1, ValueError),
    # a real pure pair comes first, a non-real mixed term later
    ("z1 + conj(z1) + i*abs2(z2)", 2, NotRealError),
    ("z1 + abs2(z1)", 1, NotRealError),
])
def test_gram_certificate_errors_match_the_reference(text, n, error):
    g = parse_expression(text, n)
    with pytest.raises(error) as exc:
        gram_certificate(g)
    assert type(exc.value) is error
    assert _gram_outcome(gram_certificate, g) == _gram_outcome(gram_certificate_reference, g)


@pytest.mark.parametrize("corrupt", ["weight", "coefficient"])
def test_corrupted_square_fails_the_reconstruction(monkeypatch, corrupt):
    """A square that does not sum back to g is refused: the reconstruction
    check raises SolveGraphError."""
    decompose = germ._psd_decompose

    def corrupted(monomials, H):
        status, data = decompose(monomials, H)
        (d, u), *rest = data
        if corrupt == "weight":
            return status, [(2 * d, u), *rest]
        j = next(iter(u))
        return status, [(d, {**u, j: u[j] + gr(1)}), *rest]

    g = parse_expression("abs2(z1 + z2^2) + abs2(z2)^2", 2)
    assert gram_certificate(g).verdict == "certified"
    monkeypatch.setattr(germ, "_psd_decompose", corrupted)
    with pytest.raises(germ.SolveGraphError, match="reconstruction mismatch"):
        gram_certificate(g)


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
        rep = germ_ps_check(r, 2, 6, SearchBudget(max_degree=4, random_trials=10),
                            gram_certificate)
        assert rep.k0 == 4
        verdicts = {e.k: e.certificate.verdict for e in rep.entries}
        assert verdicts[3] == "violation"
        assert verdicts[4] == "certified"
        assert rep.entry(3).certificate.witness_result.profile.ck == -1

    def test_note_labels_empirical_scope(self):
        r = _germ("2*Re(z3) + abs2(z1)^2")
        rep = germ_ps_check(r, 2, 4, SearchBudget(max_degree=3, random_trials=5), gram_certificate)
        assert "empirical" in rep.note
        assert rep.k0 == 2

    def test_bad_range(self):
        r = _germ("2*Re(z3) + abs2(z1)^2")
        with pytest.raises(ValueError):
            germ_ps_check(r, 5, 4, SearchBudget(), gram_certificate)


# The germ-ps ranges k_min..k_max of the certify and report_all benchmark
# workloads (report_all runs k = 2..deg r), by corpus germ.
_GERM_PS_RANGES = {
    "crit4_cubic_square": 6, "crit4_mirror": 6, "crit4_plus": 6, "crit4_mirror_plus": 6,
    "crit5_m2": 5, "crit5_m3": 7, "crit5_m3_mirror": 6, "crit6_type4": 5,
    "type4_gaussian": 5, "type4_quartic": 4,
}
_CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "corpus"
_PS_BRANCHES = {"odd d", "above truncation", "no row, exact g", "no row, jet g",
                "torus-positive group", "cancelling slice", "Gram seed winner", "full walk"}


def _restricted_jets():
    for name, k_max in sorted(_GERM_PS_RANGES.items()):
        r = validate(parse_problem((_CORPUS_DIR / f"{name}.txt").read_text()).entry)
        rep = germ_ps_check(r, 2, k_max, SearchBudget(max_degree=1), gram_certificate)
        yield from (e.restricted for e in rep.entries)


def _branch(g, z):
    """The branch of the grouped search that a monomial curve z takes,
    read off the initial rows of g (of its terms as an exact polynomial, so
    that no row and d above the truncation differ)."""
    exps = [next(iter(c.terms))[0][0] if c.terms else 0 for c in z.components]
    found = leading_rows(CPolynomial(g.nvars, g.terms), term_table(g), exps)
    if found is None:
        return "no row, jet g" if g.truncation is not None else "no row, exact g"
    limit = g.composite_truncation(min(e for e in exps if e))
    if limit is not None and found[0] > limit:
        return "above truncation"
    if found[0] % 2:
        return "odd d"
    if slice_torus_positive(found[1], ((found[0] // 2,), (found[0] // 2,))):
        return "torus-positive group"
    lead = [z.coefficient(i, e) for i, e in enumerate(exps)]
    return "cancelling slice" if slice_vanishes(found[1], lead, {}) else None


def _reference_ps_search(g, bounds, gram, reached):
    """ps_search as the plain loop of ps_test_single over the CurveJet
    stream _ps_candidates; adds the branches its walk reaches to reached."""
    n_mono = sum(count for _e, count in monomial_choices(g.nvars, bounds.max_degree))
    seeds = range(n_mono, n_mono + len(germ._gram_seed_curves(g, gram.indefinite_direction)))
    for i, z in enumerate(germ._ps_candidates(g, bounds, gram)):
        if i not in seeds:
            reached.add(_branch(g, z))
        if ps_test_single(g, z).is_violation:
            if i in seeds:
                reached.add("Gram seed winner")
            witness = canonicalize_curve(z)
            return "violation", str(witness), ps_test_single(g, witness)
    reached.add("full walk")
    return "no_violation_up_to_bounds", "None", None


def _check_ps_search(g, bounds, reached):
    gram = gram_certificate(g)
    cert = ps_search(g, bounds, gram)
    assert (cert.verdict, str(cert.witness), cert.witness_result) == \
        _reference_ps_search(g, bounds, gram, reached)


@st.composite
def _mixed_germs(draw):
    """A real-valued mixed polynomial in 2 variables of degree <= 6, exact
    or truncated at 6, 8 or 10."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        a, b = ([draw(st.integers(0, 2)) for _ in range(2)] for _ in range(2))
        a[draw(st.integers(0, 1))] += 1
        b[draw(st.integers(0, 1))] += 1
        a, b = tuple(a), tuple(b)
        c = draw(st.sampled_from(_COEFFS))
        if a == b:
            terms[(a, a)] = gr(c.re)
        else:
            terms[(a, b)] = c
            terms[(b, a)] = c.conjugate()
    return CPolynomial(2, terms, draw(st.sampled_from([None, 6, 8, 10])))


_PS_BUDGETS = st.builds(SearchBudget, max_degree=st.integers(3, 5),
                        coeff_height=st.integers(1, 2))


def test_ps_search_reads_each_tuple_once(monkeypatch):
    """ps_search forms one term table of g and the leading rows of each
    exponent tuple once, for its monomial and scan stages together: a
    search with no violation runs both stages in full over the 15 tuples
    of two variables up to degree 3."""
    tables, read = [], []
    term_table_, leading_rows_ = germ.term_table, germ.leading_rows

    def spy_table(g):
        tables.append(g)
        return term_table_(g)

    def spy_rows(g, table, exps):
        read.append(exps)
        return leading_rows_(g, table, exps)

    monkeypatch.setattr(germ, "term_table", spy_table)
    monkeypatch.setattr(germ, "leading_rows", spy_rows)
    g = parse_expression("abs2(z1)^2 + abs2(z1 - z2^2)", 2)
    cert = ps_search(g, SearchBudget(max_degree=3), gram_certificate(g))
    assert cert.verdict == "no_violation_up_to_bounds"
    assert len(tables) == 1
    assert len(read) == len(set(read)) == 15


def test_ps_search_matches_the_candidate_loop():
    """The grouped ps_search gives the verdict, witness and witness result
    of the plain loop over every candidate, on the restricted jets of the
    benchmark's germ-ps runs and on random mixed germs, and those inputs
    reach every branch of the grouped search.  A jet with a Gram
    certificate has no violation to find, so it is searched at the least
    budget only; the others at every budget."""
    reached = set()
    for g in _restricted_jets():
        certified = gram_certificate(g).verdict == "certified"
        for max_degree in (3,) if certified else (3, 4, 5):
            for coeff_height in (1,) if certified else (1, 2):
                _check_ps_search(g, SearchBudget(max_degree=max_degree,
                                                 coeff_height=coeff_height), reached)

    # The null direction (5/24, 1) lies out of reach of the seed
    # coefficients and the scan grid (TestPSSearch).
    @example(g=parse_expression(
        "24*abs2(z2) - 5*z2*conj(z1) - 5*z1*conj(z2) + abs2(z1)", 2),
        bounds=SearchBudget(max_degree=3))
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(g=_mixed_germs(), bounds=_PS_BUDGETS)
    def random_germs(g, bounds):
        _check_ps_search(g, bounds, reached)

    random_germs()
    assert reached - {None} == _PS_BRANCHES


def test_ps_search_tests_only_the_winner_on_crit5_m3(monkeypatch):
    """On the germ-ps jets of crit5_m3 (k = 2..7, max degree 4) every
    candidate before the winner is a proven pass, so ps_test_single runs
    twice per search: the winner and its re-verification."""
    calls, searches = [], []
    monkeypatch.setattr(germ, "ps_test_single",
                        lambda g, z: calls.append(z) or ps_test_single(g, z))
    monkeypatch.setattr(germ, "ps_search",
                        lambda *args: searches.append(args) or ps_search(*args))
    r = validate(parse_problem((_CORPUS_DIR / "crit5_m3.txt").read_text()).entry)
    rep = germ_ps_check(r, 2, 7, SearchBudget(max_degree=4, random_trials=10), gram_certificate)
    assert rep.k0 == 6
    assert searches and len(calls) == 2 * len(searches)


@pytest.mark.parametrize("name, k_max, reads", [
    ("crit5_m2", 5, 3), ("crit5_m3", 7, 4), ("crit4_cubic_square", 6, 1)])
def test_germ_ps_reads_few_balanced_coefficients(monkeypatch, name, k_max, reads):
    """Over germ_ps_check(k = 2..k_max, max degree 4) of the certify
    workload's germs, ps_search skips unread every group whose balanced key
    holds a single positive row of moduli, so slice_positive_at runs 3, 4
    and 1 times, not 147, 692 and 145 (the count when each candidate of
    such a group is read)."""
    calls = []
    read = germ.slice_positive_at
    monkeypatch.setattr(germ, "slice_positive_at",
                        lambda *args: calls.append(args) or read(*args))
    r = validate(parse_problem((_CORPUS_DIR / f"{name}.txt").read_text()).entry)
    germ_ps_check(r, 2, k_max, SearchBudget(max_degree=4, random_trials=10), gram_certificate)
    assert len(calls) == reads


def _stabilization_fields(rep):
    """What a stabilization report holds, with the term order of every
    restricted jet and of every square."""
    return (rep, [(e.k, e.restricted.truncation, list(e.restricted.terms.items()),
                   _certificate_fields(e.certificate)) for e in rep.entries])


def test_germ_ps_check_matches_the_per_jet_split(monkeypatch):
    """Splitting r once and filtering each jet by degree, or reading each
    jet under the exact rule off the frame's g, gives what the reference
    gives by truncating and splitting anew for every k: the same restricted
    jets in the same term order, certificates and k0.  On the germ-ps ranges
    of the certify workload (max degree 4, 10 trials) and of report_all (k =
    2..deg r, max degree 4, 50 trials), on random germs, and on rigid germs
    and their near misses, which reach both rules."""
    solves = _spy_solves(monkeypatch)
    budgets = [SearchBudget(max_degree=4, random_trials=10, seed=3),
               SearchBudget(max_degree=4, random_trials=50, seed=5)]
    for name, k_max in sorted(_GERM_PS_RANGES.items()):
        r = validate(parse_problem((_CORPUS_DIR / f"{name}.txt").read_text()).entry)
        for budget in budgets:
            assert _stabilization_fields(germ_ps_check(r, 2, k_max, budget, gram_certificate)) == \
                _stabilization_fields(germ_ps_check_reference(r, 2, k_max, budget))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(germ=_germs(), k_min=st.integers(2, 3), width=st.integers(0, 3))
    def random_germs(germ, k_min, width):
        r, _K = germ
        budget = SearchBudget(max_degree=3, random_trials=5)
        k_max = k_min + width
        assert _stabilization_fields(germ_ps_check(r, k_min, k_max, budget, gram_certificate)) == \
            _stabilization_fields(germ_ps_check_reference(r, k_min, k_max, budget))

    random_germs()

    paths = set()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(germ=_rigid_germs(), k_min=st.integers(2, 3), width=st.integers(0, 3))
    def rigid_germs(germ, k_min, width):
        r, _K = germ
        budget = SearchBudget(max_degree=3, random_trials=5)
        k_max = k_min + width
        before = len(solves)
        got = _outcome(lambda: _stabilization_fields(
            germ_ps_check(r, k_min, k_max, budget, gram_certificate)))
        paths.add(_path(solves, before))
        assert got == _outcome(
            lambda: _stabilization_fields(germ_ps_check_reference(r, k_min, k_max, budget)))

    rigid_germs()
    assert paths == {"exact", "series"}


def _poly_fields(p):
    return p.nvars, p.truncation, list(p.terms.items())


def _frame_fields(g, K, exact, images, graph, lift):
    """What a graph frame through K holds: g's terms through K and whether g
    is exact, and the images, graph and lift (terms in order, truncation,
    nvars)."""
    return (g.nvars, exact, g.truncate(K).terms, [_poly_fields(p) for p in images],
            [_poly_fields(p) for p in graph], [_poly_fields(p) for p in lift])


def _graph_form_fields(gf):
    K = gf.pure_order_bound
    return _frame_fields(gf.g, K, gf.g.truncation is None, gf.images, gf.graph, gf.lift)


def _reference_frame_fields(r, K):
    """The fields of normalize_to_graph_reference(r, K), whose g is exact
    exactly when r is exact and either the exact rule applies (no mixed term
    of r in the linear frame has an exponent on z_n) or phi is exact."""
    g, images, graph, lift = normalize_to_graph_reference(r, K)
    n = r.nvars
    mixed = r.r.substitute(images, n).pure_mixed_split()[1]
    rule = not any(h[n - 1] or a[n - 1] for h, a in mixed.terms)
    exact = r.r.truncation is None and (rule or graph[-1].truncation is None)
    return _frame_fields(g, K, exact, images, graph, lift)


def _outcome(compute):
    """compute(), or the type and text of the ValueError it raises."""
    try:
        return compute()
    except ValueError as exc:
        return type(exc), str(exc)


def _spy_solves(monkeypatch):
    """The list of h that germ.solve_graph is called on from now on."""
    solves = []
    solve = germ.solve_graph
    monkeypatch.setattr(germ, "solve_graph",
                        lambda h, order: solves.append(h) or solve(h, order))
    return solves


def _path(solves, before):
    """The rule a call took: "series" when it solved a graph."""
    return "series" if len(solves) > before else "exact"


def _check_frame_reuse(r, K, k_min, k_max, budget, solves):
    """Check normalize_to_graph and germ_ps_check on r against the
    references that form everything anew, errors included; the rules that
    the two took (normalize_to_graph's before its lift is read)."""
    before = len(solves)
    gf = _outcome(lambda: normalize_to_graph(r, K))
    frame_path = _path(solves, before)
    frame = gf if isinstance(gf, tuple) else _outcome(lambda: _graph_form_fields(gf))
    assert frame == _outcome(lambda: _reference_frame_fields(r, K))
    before = len(solves)
    stab = _outcome(lambda: _stabilization_fields(
        germ_ps_check(r, k_min, k_max, budget, gram_certificate)))
    check_path = _path(solves, before)
    assert stab == _outcome(lambda: _stabilization_fields(
        germ_ps_check_per_order_reference(r, k_min, k_max, budget)))
    return frame_path, check_path


def test_frames_formed_once_match_the_per_order_pipeline(monkeypatch):
    """Splitting r once per defining function, taking g under the exact
    rule off the mixed part and restricting only the mixed part otherwise,
    returning r for an identity linear frame, forming the graph of the
    exact rule and the lift on first read, and keeping phi and the
    untruncated restriction across jet orders change nothing
    that the frame decides: normalize_to_graph gives the terms of g through
    K of the pipeline that restricts all of r anew, with g exact exactly
    when r is exact and the exact rule applies or phi is exact, and the
    same images, graph and lift (terms in order, truncation, nvars); and
    germ_ps_check the same entries and k0, errors included.  On the 19
    corpus germs (a mixed-only entry lifts by the identity with w = 0), on
    germs whose linear part is not 2Re(z_n) or whose graph is a series, on
    random germs, and on rigid germs and their near misses (jets, n = 1 and
    a linear part that is not real among them), which reach both rules of
    both functions."""
    solves = _spy_solves(monkeypatch)
    budget = SearchBudget(max_degree=4, random_trials=10, seed=3)
    for path in sorted(_CORPUS_DIR.glob("*.txt")):
        entry = parse_problem(path.read_text()).entry
        K = max(8, entry.total_degree())
        if entry.homogeneous_slice(1).is_zero():
            m = entry.nvars
            assert report.GermAnalysis(path.read_text(), {}).frame(K).lift == tuple(
                CPolynomial.variable(m, i) for i in range(m)) + (CPolynomial.zero(m),)
            continue
        _check_frame_reuse(validate(entry), K, 2, min(max(2, entry.total_degree()), 8), budget,
                           solves)

    @example(germ=(_germ("2*Re(2*z3 + z1) + abs2(z1)^2 + abs2(z2)^2"), 6), k_min=2, width=3)
    @example(germ=(_germ("2*Re(i*z3) + abs2(z1 + z2^2)"), 6), k_min=2, width=3)
    @example(germ=(_germ("2*Re(z3 + z3^2 - z1^2) + abs2(z1)^2 + abs2(z2^2)"), 8),
             k_min=2, width=4)
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(germ=_germs(), k_min=st.integers(2, 3), width=st.integers(0, 4))
    def random_germs(germ, k_min, width):
        r, K = germ
        _check_frame_reuse(r, K, k_min, k_min + width,
                           SearchBudget(max_degree=3, random_trials=5), solves)

    random_germs()

    paths = {"frame": set(), "check": set()}

    @example(germ=(_germ("2*Re(z3 + z1^2) + abs2(z1)^2 + abs2(z2)^2"), 6), k_min=2, width=3)
    @example(germ=(_germ("2*Re(z3) + 2*Re(z1^3) + abs2(z1 + z2)^2"), 6), k_min=2, width=3)
    @example(germ=(_germ("2*Re(z3) + abs2(z3 - z1^2)"), 6), k_min=2, width=3)
    @example(germ=(_germ("2*Re(z3 + z1) + abs2(z2)^2"), 6), k_min=2, width=3)
    @example(germ=(_germ("2*Re((1/2 + 1/2*i)*z3) + abs2(z1)^2 + abs2(z2^2)"), 8), k_min=2, width=4)
    @example(germ=(validate(parse_expression("2*Re(z3) + abs2(z1)^2 + abs2(z2)^3", 3)
                            .truncate(5)), 6), k_min=2, width=3)
    @example(germ=(validate(parse_expression("2*Re(2*z3) + abs2(z1^2 - z2)", 3)
                            .truncate(4)), 4), k_min=2, width=2)
    @example(germ=(germ.DefiningFunction(parse_expression("z3 + 2*conj(z3) + abs2(z1)", 3)), 4),
             k_min=2, width=1)
    @example(germ=(_germ("2*Re(z1)", 1), 4), k_min=2, width=1)
    @example(germ=(_germ("2*Re(z1) + abs2(z1)^2", 1), 4), k_min=2, width=1)
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(germ=_rigid_germs(), k_min=st.integers(2, 3), width=st.integers(0, 4))
    def rigid_germs(germ, k_min, width):
        r, K = germ
        frame_path, check_path = _check_frame_reuse(
            r, K, k_min, k_min + width, SearchBudget(max_degree=3, random_trials=5), solves)
        paths["frame"].add(frame_path)
        paths["check"].add(check_path)

    rigid_germs()
    assert paths == {"frame": {"exact", "series"}, "check": {"exact", "series"}}
