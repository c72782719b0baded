"""Expression parsing and canonical printing.

Grammar (precedence climbing, usual binding):

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := ('+'|'-') factor | power
    power   := atom ('^' NUMBER)?
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

NUMBER is an integer or exact rational literal like 3/4.  Identifiers:
z1..zN (the complex variables), t (the curve parameter), i (the imaginary
unit), conj(e), Re(e) meaning (e + conj(e))/2 with exact halves, abs2(e)
meaning e*conj(e), plus any names bound in a problem file.

Printing is canonical (graded-lex term order) and round-trips: parsing the
printed form reproduces the polynomial exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    CPolynomial,
    GaussianRational,
    I_UNIT,
    ONE,
)
from .curve import CurveJet


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.start() != pos:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind).replace(" ", ""), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser producing CPolynomial values directly."""

    def __init__(self, tokens, nvars: int, var_mode: str, definitions=None):
        self.tokens = tokens
        self.idx = 0
        self.nvars = nvars
        self.var_mode = var_mode  # "z" or "t"
        self.definitions = definitions or {}

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input")
        self.idx += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise ExprSyntaxError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def expr(self) -> CPolynomial:
        left = self.term()
        while self.peek() and self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            right = self.term()
            left = left + right if op == "+" else left - right
        return left

    def term(self) -> CPolynomial:
        left = self.factor()
        while self.peek() and self.peek()[1] == "*":
            self.next()
            left = left * self.factor()
        return left

    def factor(self) -> CPolynomial:
        tok = self.peek()
        if tok and tok[1] in ("+", "-"):
            self.next()
            inner = self.factor()
            return inner if tok[1] == "+" else -inner
        return self.power()

    def power(self) -> CPolynomial:
        base = self.atom()
        if self.peek() and self.peek()[1] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "number" or "/" in tok[1]:
                raise ExprSyntaxError("exponent must be a non-negative integer", tok[2])
            base = base ** int(tok[1])
        return base

    def atom(self) -> CPolynomial:
        tok = self.next()
        kind, value, pos = tok
        if value == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "number":
            if "/" in value:
                num, den = value.split("/")
                if int(den) == 0:
                    raise ExprSyntaxError(f"zero denominator in {value!r}", pos)
                q = Fraction(int(num), int(den))
            else:
                q = Fraction(int(value))
            return CPolynomial.constant(self.nvars, GaussianRational(q))
        if kind == "ident":
            return self.ident(value, pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)

    def ident(self, name: str, pos: int) -> CPolynomial:
        if name in ("conj", "Re", "abs2"):
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            if name == "conj":
                return arg.conjugate()
            if name == "abs2":
                return arg * arg.conjugate()
            half = GaussianRational(Fraction(1, 2))
            return (arg + arg.conjugate()).scale(half)
        if name == "i":
            return CPolynomial.constant(self.nvars, I_UNIT)
        if name == "t" and self.var_mode == "t":
            return CPolynomial.variable(1, 0)
        if self.var_mode == "z":
            m = re.fullmatch(r"z(\d+)", name)
            if m:
                k = int(m.group(1))
                if not 1 <= k <= self.nvars:
                    raise ExprSyntaxError(
                        f"variable {name} out of range for n={self.nvars}", pos
                    )
                return CPolynomial.variable(self.nvars, k - 1)
        if name in self.definitions:
            return self.definitions[name]
        raise ExprSyntaxError(f"unknown identifier {name!r}", pos)


def parse_expression(
    text: str,
    nvars: int,
    definitions: dict[str, CPolynomial] | None = None,
) -> CPolynomial:
    """Parse an expression in variables z1..zN into a canonical polynomial."""
    parser = _Parser(_tokenize(text), nvars, "z", definitions)
    out = parser.expr()
    if parser.peek() is not None:
        raise ExprSyntaxError("trailing input", parser.peek()[2])
    return out


def parse_t_polynomial(text: str) -> CPolynomial:
    """Parse a one-variable polynomial in t."""
    parser = _Parser(_tokenize(text), 1, "t")
    out = parser.expr()
    if parser.peek() is not None:
        raise ExprSyntaxError("trailing input", parser.peek()[2])
    return out


def parse_curve(text: str, nvars: int | None = None) -> CurveJet:
    """Parse a parenthesized tuple of t-polynomials like "(t^3, t^2, 0)"."""
    tokens = _tokenize(text)
    if not tokens or tokens[0][1] != "(":
        raise ExprSyntaxError("curve must be a parenthesized tuple")
    parser = _Parser(tokens, 1, "t")
    parser.expect("(")
    comps = [parser.expr()]
    while parser.peek() and parser.peek()[1] == ",":
        parser.next()
        comps.append(parser.expr())
    parser.expect(")")
    if parser.peek() is not None:
        raise ExprSyntaxError("trailing input", parser.peek()[2])
    if nvars is not None and len(comps) != nvars:
        raise ExprSyntaxError(
            f"curve has {len(comps)} components, expected {nvars}"
        )
    return CurveJet(tuple(comps))


# ---------------------------------------------------------------------------
# Printing


def format_coefficient(c: GaussianRational) -> str:
    """Parseable canonical form of a Gaussian rational scalar."""
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    im = c.im
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}*i"
    return f"({c.re}{sign}{imag})"


def _format_monomial(key, var_mode: str) -> str:
    holo, anti = key
    parts = []
    for i, e in enumerate(holo):
        if e:
            name = "t" if var_mode == "t" else f"z{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
    for i, e in enumerate(anti):
        if e:
            name = "t" if var_mode == "t" else f"z{i + 1}"
            base = f"conj({name})"
            parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def format_polynomial(p: CPolynomial, var_mode: str = "z") -> str:
    """Canonical printed form; parsing it reproduces p exactly."""
    if p.is_zero():
        return "0"
    pieces = []
    for key, coeff in p.sorted_terms():
        mono = _format_monomial(key, var_mode)
        if not mono:
            s = format_coefficient(coeff)
        elif coeff == ONE:
            s = mono
        elif coeff == -ONE:
            s = "-" + mono
        else:
            s = f"{format_coefficient(coeff)}*{mono}"
        pieces.append(s)
    out = pieces[0]
    for s in pieces[1:]:
        if s.startswith("-") and not s.startswith("(-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


def format_curve(z: CurveJet) -> str:
    return "(" + ", ".join(format_polynomial(c, "t") for c in z.components) + ")"


# ---------------------------------------------------------------------------
# Problem files


@dataclass
class ProblemFile:
    """A UTF-8 input file with `n = <int>` and `r = <expression>` lines.

    Intermediate `name = <expression>` lines bind reusable definitions; the
    entry is always the defining-function expression bound to r.
    """

    nvars: int
    definitions: dict[str, CPolynomial] = field(default_factory=dict)
    entry: CPolynomial | None = None
    source: str = ""


def parse_problem(text: str) -> ProblemFile:
    nvars = None
    definitions: dict[str, CPolynomial] = {}
    entry = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ExprSyntaxError(f"line {lineno}: expected name = expression")
        name, rhs = line.split("=", 1)
        name = name.strip()
        rhs = rhs.strip()
        if name == "n":
            try:
                nvars = int(rhs)
            except ValueError:
                raise ExprSyntaxError(f"line {lineno}: n must be an integer")
            if nvars < 1:
                raise ExprSyntaxError(f"line {lineno}: n must be positive")
            continue
        if nvars is None:
            raise ExprSyntaxError(f"line {lineno}: n = <int> must come first")
        try:
            value = parse_expression(rhs, nvars, definitions)
        except ExprSyntaxError as exc:
            raise ExprSyntaxError(f"line {lineno}: {exc}") from exc
        if name == "r":
            entry = value
        definitions[name] = value
    if nvars is None:
        raise ExprSyntaxError("problem file is missing the n = <int> line")
    if entry is None:
        raise ExprSyntaxError("problem file is missing the r = <expression> line")
    return ProblemFile(nvars=nvars, definitions=definitions, entry=entry, source=text)
