"""Parser and canonical printer round-trips."""

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactps.algebra import CPolynomial
from contactps.curve import CurveJet
from contactps.expr import (
    ExprSyntaxError,
    format_coefficient,
    format_curve,
    format_polynomial,
    parse_curve,
    parse_expression,
    parse_problem,
)

from conftest import gr, parse_curve_reference, parse_expression_reference, random_poly


def test_basic_expressions():
    z1 = CPolynomial.variable(2, 0)
    z2 = CPolynomial.variable(2, 1)
    assert parse_expression("z1 + z2", 2) == z1 + z2
    assert parse_expression("z1^3", 2) == z1 * z1 * z1
    assert parse_expression("conj(z1)", 2) == z1.conjugate()
    assert parse_expression("abs2(z1)", 2) == z1 * z1.conjugate()
    assert parse_expression("i*z1 - i*z1", 2).is_zero()


def test_re_introduces_exact_halves():
    p = parse_expression("2*Re(z1)", 1)
    z1 = CPolynomial.variable(1, 0)
    assert p == z1 + z1.conjugate()
    half = parse_expression("Re(z1)", 1)
    assert half.coeff(((1,), (0,))) == gr(1, 0) / gr(2, 0)


def test_rational_literals():
    p = parse_expression("3/4 * z1", 1)
    from fractions import Fraction
    assert p.coeff(((1,), (0,))).re == Fraction(3, 4)


def test_precedence_and_unary_minus():
    assert parse_expression("-z1^2", 1) == -(CPolynomial.variable(1, 0) ** 2)
    assert parse_expression("2 + 3 * z1", 1) == parse_expression("3*z1 + 2", 1)


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError):
        parse_expression("z1 +", 1)
    with pytest.raises(ExprSyntaxError):
        parse_expression("z5", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expression("w1", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expression("z1 @ z2", 2)


@pytest.mark.parametrize("text, message", [
    ("z1 @ z2", "unexpected character '@' (at position 3)"),
    ("  z1\t+\n$", "unexpected character '$' (at position 7)"),
    ("1 / 2 / 3", "unexpected character '/' (at position 6)"),
    ("z1^1/2", "exponent must be a non-negative integer (at position 3)"),
    ("3 /0 * z1", "zero denominator in '3/0' (at position 0)"),
    ("z1 z2", "trailing input (at position 3)"),
    ("(z1 + z2", "unexpected end of input"),
    ("abs2(z1,)", "expected ')', found ',' (at position 7)"),
    ("z1 + )", "unexpected token ')' (at position 5)"),
    ("  w1", "unknown identifier 'w1' (at position 2)"),
    ("z1 * z3", "variable z3 out of range for n=2 (at position 5)"),
    ("", "unexpected end of input"),
])
def test_tokenizer_errors_keep_their_positions(text, message):
    """Positions count characters of the input, whitespace included."""
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression(text, 2)
    assert str(exc.value) == message


def test_rational_literal_may_hold_whitespace():
    assert parse_expression("3 / 4*z1", 1) == parse_expression("3/4*z1", 1)
    assert parse_expression("3\t/4*z1", 1) == parse_expression("3/4*z1", 1)


def test_constant_factors_scale_in_term_order():
    """A constant factor on either side scales the other factor: the terms
    and their order are those of the product."""
    for text in ("2*abs2(z1 + z2^2)", "abs2(z1 + z2^2)*(1/2)", "i*(z1 - z2)*3",
                 "0*z1", "z1*0", "(2*3)*conj(z2)"):
        p = parse_expression(text, 2)
        factors = [parse_expression(f, 2) for f in _split_product(text)]
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        assert p == product and list(p.terms.items()) == list(product.terms.items())


def _split_product(text):
    """The top-level factors of a product, split at the '*' outside parentheses."""
    depth, start, out = 0, 0, []
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "*" and depth == 0:
            out.append(text[start:i])
            start = i + 1
    return out + [text[start:]]


def test_curve_parsing():
    z = parse_curve("(t^3, t^2, 0)")
    assert z.nvars == 3
    assert z.components[2].is_zero()
    with pytest.raises(ExprSyntaxError):
        parse_curve("(t, t^2)", nvars=3)
    with pytest.raises(ExprSyntaxError):
        parse_curve("t^2")


def test_round_trip_random(rng):
    for _ in range(100):
        p = random_poly(rng, nvars=2, max_deg=3, nterms=4)
        assert parse_expression(format_polynomial(p), 2) == p


def test_round_trip_examples():
    for text in (
        "2*Re(z3) + abs2(z1^2 - z2^3)",
        "abs2(z1 + z2^3)",
        "abs2(z1)^2 + abs2(z2)^2",
        "2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2",
    ):
        p = parse_expression(text, 3)
        assert parse_expression(format_polynomial(p), 3) == p


def test_curve_round_trip():
    for text in ("(t^3, t^2, 0)", "(-t^2, t)", "(t + 1/2*t^3, i*t)"):
        z = parse_curve(text)
        assert parse_curve(format_curve(z)) == z


def test_format_coefficient_forms():
    assert format_coefficient(gr(0, 1)) == "i"
    assert format_coefficient(gr(0, -1)) == "-i"
    from fractions import Fraction
    assert format_coefficient(gr(Fraction(-1, 2))) == "-1/2"
    assert format_coefficient(gr(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4*i)"


def test_problem_files():
    src = "\n".join([
        "# sample",
        "n = 3",
        "w = z1 + z2^2",
        "r = 2*Re(z3) + abs2(w)",
    ])
    prob = parse_problem(src)
    assert prob.nvars == 3
    assert prob.entry == parse_expression("2*Re(z3) + abs2(z1 + z2^2)", 3)
    with pytest.raises(ExprSyntaxError):
        parse_problem("r = z1")  # missing n
    with pytest.raises(ExprSyntaxError):
        parse_problem("n = 2")  # missing r
    with pytest.raises(ExprSyntaxError):
        parse_problem("n = 2\nr = z3")
    # n comes once and first, every other name is bound once, and a bound
    # name is an identifier that the grammar does not reserve: a file that
    # breaks a rule is an error naming its line, never a silent choice.
    for text, message in [
        ("n = 2\nr = abs2(z1)\nr = abs2(z2)", "line 3: r is bound twice"),
        ("n = 2\nn = 2\nr = abs2(z1)", "line 2: n is bound twice"),
        ("n = 2\nf = z1\nr = abs2(f)\nf = z1^2", "line 4: f is bound twice"),
        ("n = 2\nz1 = z2\nr = abs2(z1)", "line 2: z1 is reserved by the grammar"),
        ("n = 2\nz9 = z2\nr = abs2(z1)", "line 2: z9 is reserved by the grammar"),
        ("n = 2\nRe = z1\nr = abs2(z1)", "line 2: Re is reserved by the grammar"),
        ("n = 2\nt = z1\nr = abs2(z1)", "line 2: t is reserved by the grammar"),
        ("n = 2\n2x y = z1\nr = abs2(z1)", "line 2: '2x y' is not a name"),
        ("n = 2\n = z1\nr = abs2(z1)", "line 2: '' is not a name"),
        ("r = z1\nn = 2", "line 1: n = <int> must come first"),
    ]:
        with pytest.raises(ExprSyntaxError) as info:
            parse_problem(text)
        assert str(info.value) == message


def test_t_polynomials():
    p, = parse_curve("(t^2 - 2*t)").components
    assert p.coeff(((2,), (0,))) == gr(1)
    assert p.coeff(((1,), (0,))) == gr(-2)


# ---------------------------------------------------------------------------
# The parser against the reference it replaced (conftest._ParserReference)


def _expression(rng, names=("z1", "z2", "z3"), depth=3):
    """Random expression text over the given names: integers, rationals, i,
    unary signs, sums, differences, products, small powers, parentheses,
    conj, Re and abs2, with random whitespace around the operators and
    inside rationals."""
    def space():
        return rng.choice(["", "", " ", "  ", "\t"])

    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(6)
        if kind < 3:
            return rng.choice(names)
        if kind == 3:
            return "i"
        if kind == 4:
            return str(rng.randint(0, 12))
        return f"{rng.randint(0, 9)}{space()}/{space()}{rng.randint(1, 6)}"
    text = _expression(rng, names, depth - 1)
    for _ in range(rng.randrange(3)):
        text += space() + rng.choice("+-+*") + space() + _expression(rng, names, depth - 1)
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(["-", "+", "--", "-+"]) + space() + text
    if kind == 1:
        return f"({text})^{rng.randint(0, 2)}"
    if kind < 6:
        return f"{('conj', 'Re', 'abs2', '')[kind - 2]}({text})"
    return text


def _parse_outcome(parse, *args):
    """(terms in order, truncation) of a parse, or the type and text of the
    ValueError it raises: an ExprSyntaxError, or a curve that CurveJet
    refuses."""
    try:
        p = parse(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(p, CurveJet):
        return [(list(c.terms.items()), c.truncation) for c in p.components]
    return list(p.terms.items()), p.truncation


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_parser_matches_the_reference(seed):
    """The same terms, in the same order, with the same truncation as the
    parser that the one-scan parser replaced."""
    text = _expression(random.Random(seed))
    got = _parse_outcome(parse_expression, text, 3)
    assert got == _parse_outcome(parse_expression_reference, text, 3)
    assert type(got[0]) is list


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_definitions_match_the_reference(seed):
    """Definitions bind names in order: each line reads the names bound
    above it."""
    rng = random.Random(seed)
    first = _expression(rng, depth=2)
    second = _expression(rng, ("z1", "z2", "w"), depth=2)
    entry = _expression(rng, ("z3", "w", "u"), depth=2)
    prob = parse_problem(f"n = 3\nw = {first}\nu = {second}\nr = {entry}\n")
    definitions = {}
    for name, text in (("w", first), ("u", second), ("r", entry)):
        definitions[name] = parse_expression_reference(text, 3, definitions)
    for name, p in definitions.items():
        assert list(prob.definitions[name].terms.items()) == list(p.terms.items())
    assert prob.entry is prob.definitions["r"]


# Pieces of malformed text: tokens, tokens that do not fit where they land,
# characters the grammar does not know, and whitespace.
_PIECES = ["z1", "z2", "z9", "z01", "w", "t", "i", "2", "3", "0", "1/2", "3 / 0", "(", ")",
           "+", "-", "*", "^", ",", "conj", "Re", "abs2", " ", "\t", "\n", "z1z2", "_x", "٣"] * 3
_PIECES += ["/", "@", "é"]


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=10))
def test_malformed_text_gives_the_reference_error(pieces):
    """Random token soup gives the same error text, or the same terms, as
    the reference, as an expression and as a curve."""
    text = "".join(pieces)
    assume(re.search(r"\^\s*\d\d", text) is None)  # a power too large to form quickly
    assert (_parse_outcome(parse_expression, text, 2)
            == _parse_outcome(parse_expression_reference, text, 2))
    curve = "(" + text + ")" if pieces[:1] != ["("] else text
    assert _parse_outcome(parse_curve, curve) == _parse_outcome(parse_curve_reference, curve)


@pytest.mark.parametrize("text", ["(t^3, t^2, 0)", "(-t^4, t^2)", "(t + 1/2*t^3, i*t)",
                                  "((t), --t^2 + 3 / 4, conj(t) - t)", "(t^2", "t, t", "()",
                                  "(t^1/2, t)", "(t, z1)", "(t,)", "(t) t", ""])
def test_curves_match_the_reference(text):
    assert _parse_outcome(parse_curve, text) == _parse_outcome(parse_curve_reference, text)
