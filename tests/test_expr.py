"""Parser and canonical printer round-trips."""

import pytest

from contactps.algebra import CPolynomial
from contactps.expr import (
    ExprSyntaxError,
    format_coefficient,
    format_curve,
    format_polynomial,
    parse_curve,
    parse_expression,
    parse_problem,
)

from conftest import gr, random_poly


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
