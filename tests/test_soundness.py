"""Soundness oracles on germs whose graph is a series.

A frame that is a jet decides only what its terms decide, so the claims of
reg_type on one germ must agree across caps, and every infinite claim needs
an identically zero pullback (D'Angelo, Ann. Math. 115, 1982: the type is a
property of the germ, not of a jet).
"""

import json
import pathlib
import random

from contactps.curve import CurveJet, pullback
from contactps.expr import parse_curve, parse_expression, parse_problem
from contactps.germ import gram_certificate, normalize_to_graph, validate
from contactps.report import build_report
from contactps.typecalc import reg_type

_PURE_TAILS = ["", " - z1^2", " + z1^3", " + z3*z1^2", " - z2^2", " + i*z1*z2", " + z3^3"]
_MONOMIALS = ["z1", "z2", "z1^2", "z2^2", "z1*z2", "z1^3", "z2^3", "z1^4", "z1^2*z2"]
_Z3_MONOMIALS = ["z3", "z3*z1", "z3^2"]
_COEFFS = ["", "-", "2*", "i*"]


def _series_germ(rng):
    """n = 3, pure part 2Re(z3 +- z3^2 + ...), and 1-2 squares, which use z3
    in half the draws."""
    pure = f"2*Re(z3 {rng.choice('+-')} z3^2{rng.choice(_PURE_TAILS)})"
    with_z3 = rng.random() < 0.5
    squares = []
    for _ in range(rng.randint(1, 2)):
        terms = [rng.choice(_COEFFS) + rng.choice(_MONOMIALS) for _ in range(rng.randint(1, 2))]
        if with_z3 and (not squares or rng.random() < 0.5):
            terms.append(rng.choice(_COEFFS) + rng.choice(_Z3_MONOMIALS))
        squares.append(f"abs2({' + '.join(terms)})")
    return pure + " + " + " + ".join(squares)


def test_regular_type_claims_agree_across_caps():
    """On 300 seeded germs with series graphs, reg_type at caps 4, 8 and 12
    raises nothing, no cap claims infinite where another claims an exact
    value, exact values agree, every lower bound is at most the exact value,
    and every infinite claim has an exact frame g that pulls back to zero
    along its witness."""
    rng = random.Random(26)
    contradictions = []
    for _ in range(300):
        text = _series_germ(rng)
        r = validate(parse_expression(text, 3))
        claims = []
        for cap in (4, 8, 12):
            gf = normalize_to_graph(r, max(cap, r.r.total_degree()))
            claim = reg_type(gf, cap, gram_certificate)
            if claim.kind == "infinite":
                assert pullback(gf.g, claim.witness).order_of_vanishing().kind == "zero", text
            claims.append(claim)
        exact = {c.value for c in claims if c.kind == "exact"}
        if exact and (len(exact) > 1 or any(c.kind == "infinite" for c in claims) or any(
                c.kind == "at_least" and c.value > min(exact) for c in claims)):
            contradictions.append((text, [(c.kind, c.value) for c in claims]))
    assert contradictions == []


_CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "corpus"
_GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
_TRUNCATION_GERM = json.loads((_GOLDEN_DIR / "report_max12_truncation.json").read_text())[
    "input_source"]
_SOURCES = [
    # The graph is exact (phi = -z1^2) though the mixed part uses z3.
    "n = 3\nr = 2*Re(z3 + z1^2) + abs2(z3 + z1^2) + abs2(z2)^2\n",
    # A rigid germ whose linear frame rescales z3 and shears it by z1.
    "n = 3\nr = 2*Re(2*z3 + z1) + abs2(z1 - z2^2)\n",
    "n = 3\nr = 2*Re(z3 + z3^2 - z1^2) + abs2(z2 - z1^2) + abs2(z3 - z1^2)\n",
    "n = 3\nr = 2*Re(z3 + z3^2 - z1^2) + abs2(z3 - z1^2)\n",
    "n = 3\nr = 2*Re(z3 - z3^2) + abs2(-z2^3) + abs2(i*z2 + z1^4)\n",
]


def test_printed_infinite_witnesses_pull_r_back_to_zero():
    """Every witness_in_original_frame that sing-search prints for an
    infinite claim pulls the input back to exactly zero (a mixed-only entry
    reads it without the graph coordinate, which is zero), on the corpus,
    the golden inputs and germs with series graphs.  The series graph of
    report_max12_truncation's germ is a jet, so its infinite claim prints
    none."""
    goldens = {json.loads(p.read_text())["input_source"] for p in _GOLDEN_DIR.glob("*.json")
               if p.name != "digests.json"}
    sources = [p.read_text() for p in sorted(_CORPUS_DIR.glob("*.txt"))]
    printed, unprinted = 0, []
    for source in sources + sorted(goldens) + _SOURCES:
        claims = build_report("sing-search", source, {"max_deg": 4, "trials": 20})[0]["claims"]
        if claims["result"]["kind"] != "infinite":
            continue
        if "witness_in_original_frame" not in claims:
            unprinted.append(source)
            continue
        entry = parse_problem(source).entry
        z = parse_curve(claims["witness_in_original_frame"])
        if z.nvars == entry.nvars + 1:
            z = CurveJet(z.components[:-1])
        assert pullback(entry, z).order_of_vanishing().kind == "zero", source
        printed += 1
    assert printed >= 20
    assert unprinted == [_TRUNCATION_GERM]
