"""Acceptance gate: one criterion per test, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact (rational arithmetic); there are no tolerances.
"""

import json
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from contactps.algebra import CPolynomial, ONE
from contactps.cli import main as cli_main
from contactps.curve import laplacian_power, ps_test_single, pullback
from contactps.expr import (
    format_curve,
    format_polynomial,
    parse_curve,
    parse_expression,
)
from contactps.fdb import (
    expansion_table,
    filtered_expansion,
    laplacian_power_forms,
    random_real_polynomial,
)
from contactps.germ import germ_ps_check, gram_certificate, normalize_to_graph, validate
from contactps.search import SearchBudget, random_curves
from contactps.typecalc import desingularize, reg_type, sing_type_search

from conftest import product_rule_check, random_poly, random_scalar


def _ok(num, text):
    print(f"\n[criterion {num}] PASS - {text}")


def _graph(text, K=8, n=3):
    return normalize_to_graph(validate(parse_expression(text, n)), K)


def test_criterion_1_partition_expansion_oracle():
    """>= 200 random (g, curve) pairs agree with the operator oracle, k=1..4,
    and at least 50 of them on a nonzero value: a pair whose curve
    multiplicity exceeds k compares zeros at that k (57 pairs compare a
    nonzero value with this seed)."""
    rng = random.Random(1)
    start = time.monotonic()
    pairs = nonzero = 0
    while pairs < 200:
        nvars = rng.randint(1, 2)
        g = random_real_polynomial(rng, nvars, 6)
        budget = SearchBudget(max_degree=4, random_trials=1,
                              seed=rng.randrange(1 << 30))
        z = next(iter(random_curves(nvars, budget)))
        seen = False
        for k in range(1, 5):
            value = laplacian_power(pullback(g, z), k)
            assert laplacian_power_forms(g, z, k) == value, (
                format_polynomial(g), format_curve(z), k)
            seen = seen or not value.is_zero()
        pairs += 1
        nonzero += seen
    elapsed = time.monotonic() - start
    assert nonzero >= 50, f"only {nonzero} pairs compare a nonzero value"
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _ok(1, f"200 random pairs ({nonzero} with a nonzero value), k=1..4, exact oracle "
           f"agreement in {elapsed:.1f}s")


def test_criterion_2_k3_coefficients():
    """k = 3 expansion carries multiplicities {1, 3, 3, 9} on the four types."""
    table = {}
    for term in expansion_table(3):
        table[term.form_type] = table.get(term.form_type, 0) + term.count
    got = tuple(table[ft] for ft in ((1, 1), (1, 2), (2, 1), (2, 2)))
    assert got == (1, 3, 3, 9)
    _ok(2, "k=3 form-type multiplicities are {1, 3, 3, 9}")


def test_criterion_3_filtered_coefficient_law():
    """Surviving coefficients {1, lam, lam, lam^2} for m = 1, 2, 3."""
    expected = {1: (1, 1, 1, 1), 2: (1, 3, 3, 9), 3: (1, 10, 10, 100)}
    g = parse_expression("abs2(z1 + z2^2)^2 + abs2(z1)^2", 2)
    for m, coeffs in expected.items():
        z = parse_curve(f"(t^{m} + t^{2 * m}, t^{m})")
        fe = filtered_expansion(g, z)
        assert fe.coefficients == coeffs, (m, fe.coefficients)
        assert fe.total == fe.oracle
    _ok(3, "filtered coefficients {1,1,1,1}/{1,3,3,9}/{1,10,10,100} for m=1,2,3")


def test_criterion_4_cubic_square_types():
    """reg type exactly 6 and an infinite singular certificate, under 10s."""
    start = time.monotonic()
    gf = _graph("2*Re(z3) + abs2(z1^2 - z2^3)")
    reg = reg_type(gf, 8, gram_certificate)
    assert reg.kind == "exact" and reg.value == 6
    order = pullback(gf.g, reg.witness).order_of_vanishing()
    assert order.kind == "exact" and order.value == 6
    sing = sing_type_search(gf, SearchBudget(max_degree=4, random_trials=50))
    assert sing.kind == "infinite"
    lifted = gf.lift_curve(sing.witness)
    assert format_curve(lifted) == "(t^3, t^2, 0)"
    r = validate(parse_expression("2*Re(z3) + abs2(z1^2 - z2^3)", 3))
    assert pullback(r.r, lifted).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _ok(4, f"reg type 6 exact, singular type infinite via (t^3, t^2, 0), {elapsed:.1f}s")


def test_criterion_5_stabilization():
    """Violations below 2m with witness (-t^m, t) at coefficient -1, then
    Gram-certified from k = 2m on; k0 = 2m for m = 2, 3.

    Truncations of order k <= m see only the positive |z1|^2 part, so the
    violating window is m < k < 2m.
    """
    for m in (2, 3):
        r = validate(parse_expression(f"2*Re(z3) + abs2(z1 + z2^{m})", 3))
        rep = germ_ps_check(r, 2, 2 * m + 2,
                            SearchBudget(max_degree=max(4, m), random_trials=10), gram_certificate)
        assert rep.k0 == 2 * m, (m, rep.k0)
        for entry in rep.entries:
            cert = entry.certificate
            if m < entry.k < 2 * m:
                assert cert.verdict == "violation", (m, entry.k, cert.verdict)
                assert format_curve(cert.witness) == f"(-t^{m}, t)"
                assert cert.witness_result.profile.ck == -1
            elif entry.k >= 2 * m:
                assert cert.verdict == "certified", (m, entry.k, cert.verdict)
            else:
                assert not cert.is_violation
    _ok(5, "k0 = 2m with witness (-t^m, t) and balanced coefficient -1, m = 2, 3")


def test_criterion_6_desingularization():
    """eta = A t + B t^2 with exact contact 4 and the coefficient transfer."""
    gf = _graph("2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2")
    z = parse_curve("(-t^4, t^2)")
    res = desingularize(gf, z)
    assert format_curve(res.eta) == "(-t^2, t)"
    assert res.eta.multiplicity() == 1
    u, v = pullback(gf.g, z), pullback(gf.g, res.eta)
    assert v.order_of_vanishing().value == 4
    assert v.coeff(((2,), (2,))) == u.coeff(((4,), (4,)))
    gf2 = _graph("2*Re(z2) + abs2(z1)^2", 8, 2)
    for m in (2, 3):
        res = desingularize(gf2, parse_curve(f"(t^{m})"))
        assert format_curve(res.eta) == "(t)"
        v = pullback(gf2.g, res.eta)
        assert v.order_of_vanishing().value == 4
    _ok(6, "desingularization returns (-t^2, t) and (t), all transfers exact")


_CORPUS_TYPE4 = [
    "2*Re(z3) + abs2(z1)^2 + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 - z2^2) + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 + i*z2^2) + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 + 2*z2^2) + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 - 2*z2^2) + abs2(z2)^2",
    "2*Re(z3) + 1/2*abs2(z1)^2 + abs2(z2)^2",
    "2*Re(z3) + abs2(z1)^2 + abs2(z2^2 + z1^2)",
    "2*Re(z3) + abs2(z1^2 + z2^2) + abs2(z1*z2)",
    "2*Re(z3) + abs2(z1^2 - z2^2) + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2 + abs2(z1)^2",
]


def test_criterion_7_falsification_harness():
    """No singular curve of ratio > 4 on any certified reg-type-4 germ."""
    budget = SearchBudget(max_multiplicity=4, max_degree=8, coeff_height=2,
                          random_trials=3000, seed=11)
    assert len(_CORPUS_TYPE4) >= 10
    for text in _CORPUS_TYPE4:
        gf = _graph(text)
        assert gram_certificate(gf.g).verdict == "certified", text
        claim = reg_type(gf, 8, gram_certificate)
        assert claim.kind == "exact" and claim.value == 4, (text, claim)
        res = sing_type_search(gf, budget)
        assert res.candidates_tested >= 10_000, (text, res.candidates_tested)
        assert res.kind == "lower_bound", text
        assert res.ratio <= 4, (text, res.ratio, format_curve(res.witness))
    _ok(7, f"{len(_CORPUS_TYPE4)} germs x >= 10^4 candidates: no ratio above 4")


def test_criterion_8_algebra_invariants():
    """Ring axioms, conjugation, product rule, order additivity, purity,
    and the Laplacian/balanced-coefficient identity; 100 instances each."""
    from math import factorial

    rng = random.Random(8)
    for _ in range(100):
        p, q, s = (random_poly(rng) for _ in range(3))
        assert (p + q) * s == p * s + q * s
        assert p * q == q * p and (p * q) * s == p * (q * s)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        assert p.conjugate().conjugate() == p
        assert (p * q).conjugate() == p.conjugate() * q.conjugate()
    for _ in range(100):
        p, q = random_poly(rng, nterms=3), random_poly(rng, nterms=3)
        assert product_rule_check(p, q, rng.randrange(2), rng.random() < 0.5)
    done = 0
    while done < 100:
        p, q = random_poly(rng, nterms=3), random_poly(rng, nterms=3)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).order_of_vanishing().value == (
            p.order_of_vanishing().value + q.order_of_vanishing().value
        )
        done += 1
    done = 0
    while done < 100:
        f = random_poly(rng, nvars=2, max_deg=2, nterms=3).graph_split()[2]
        if f.is_zero():
            continue
        g = f * f.conjugate()
        img = [CPolynomial.monomial(1, (rng.randint(1, 3),), (0,), random_scalar(rng))
               for _ in range(2)]
        out = g.substitute(img, 1)
        assert all(any(k[0]) and any(k[1]) for k in out.terms)
        done += 1
    for _ in range(100):
        u = random_poly(rng, nvars=1, max_deg=4, nterms=4)
        k = rng.randint(1, 3)
        from conftest import gr
        assert laplacian_power(u, k) == u.coeff(((k,), (k,))) * gr(factorial(k) ** 2)
    _ok(8, "six invariant families x 100 random instances, exact equality")


_ROUND_TRIP_CORPUS = [
    "2*Re(z3) + abs2(z1^2 - z2^3)",
    "abs2(z1 + z2^2)",
    "abs2(z1 + z2^3)",
    "2*Re(z3) + abs2(z1)^2 + abs2(z2)^2",
    "2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2",
    "abs2(z1)^2 - abs2(z2)^2",
    "abs2(z1^2 + z2^2) + abs2(z1*z2)",
    "i*z1*conj(z2) - i*z2*conj(z1)",
]


def test_criterion_9_cli_round_trip_and_determinism(tmp_path):
    """parse/print round-trips, and two equal-seed runs are byte-identical."""
    rng = random.Random(9)
    for text in _ROUND_TRIP_CORPUS:
        p = parse_expression(text, 3)
        assert parse_expression(format_polynomial(p), 3) == p
    for _ in range(50):
        p = random_poly(rng, nvars=3, max_deg=3, nterms=5)
        assert parse_expression(format_polynomial(p), 3) == p
    for text in ("(t^3, t^2, 0)", "(-t^2, t)", "(t + 1/2*t^3, i*t, -t^4)"):
        z = parse_curve(text)
        assert parse_curve(format_curve(z)) == z
    runner = CliRunner()
    path = tmp_path / "problem.txt"
    path.write_text("n = 3\nr = 2*Re(z3) + abs2(z1 + z2^2)\n")
    args = ["report", str(path), "--all", "--max-deg", "4", "--trials", "50",
            "--seed", "3", "--json"]
    a = runner.invoke(cli_main, args)
    b = runner.invoke(cli_main, args)
    assert a.exit_code == 0 and a.output == b.output and a.output
    machine = json.loads(a.output)
    assert machine["format"] == "contactps-report/1"
    _ok(9, "round-trips on the corpus; equal-seed machine sections byte-identical")
