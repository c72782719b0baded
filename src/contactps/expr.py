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

The tokenizer is one findall scan that returns the tokens as plain
strings; only a text with a character outside the grammar's alphabet (or
a slash, which a rational holds) is scanned again, and token positions
are found only when an error needs one: an error names the offending
token or character and its position in the text.  The parser reads a
factor's signs, atom and exponent in one call and a sum of products in
one loop.  Integer literals take the int path of GaussianRational, and a
product with an exact constant factor scales the other factor instead of
multiplying out.  The polynomial operations, and the order of their
terms, are those of one call per grammar rule.

Printing is canonical (graded-lex term order) and round-trips: parsing the
printed form reproduces the polynomial exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .algebra import CPolynomial, GaussianRational, I_UNIT, ZERO
from .curve import CurveJet


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# The tokens are one alternation, matched left to right by one findall
# scan: a number (an integer, or a rational whose slash may have whitespace
# around it), an identifier, an operator, or any other non-space character,
# which is an error.  Whitespace separates tokens and is never one.
_TOKEN_RE = re.compile(r"\d+(?:\s*/\s*\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*^(),]|\S")
# A character that is none of whitespace, a digit, a letter, `_` or an
# operator: `/`, which is a token only inside a rational, or an error.
_SUSPECT_RE = re.compile(r"[^\s\dA-Za-z_+*^(),-]")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = frozenset("-+*^(),")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_END = ""  # the token past the last; it matches no operator and no token is empty


def _positions(text: str) -> list[int]:
    """The position in text of each token of _tokenize(text), read only
    for an error message."""
    return [m.start() for m in _TOKEN_RE.finditer(text)]


def _tokenize(text: str) -> list[str]:
    """The tokens of text as strings, then _END.  A text with a suspect
    character is scanned again for positions: the first token that starts
    with one is an error at its position, and a rational's whitespace is
    dropped from its token."""
    tokens = _TOKEN_RE.findall(text)
    if _SUSPECT_RE.search(text) is not None:
        for k, tok in enumerate(tokens):
            if _SUSPECT_RE.match(tok):
                raise ExprSyntaxError(f"unexpected character {tok!r}", _positions(text)[k])
            if "/" in tok:
                tokens[k] = tok.replace(" ", "")
    tokens.append(_END)
    return tokens


def _is_variable(name: str) -> bool:
    """Whether an identifier is z followed by digits only."""
    return name[0] == "z" and name[1:].isdigit()


_HALF = GaussianRational(Fraction(1, 2))


class _Parser:
    """Recursive-descent parser over the tokens of one text, producing
    CPolynomial values directly.  A factor reads its signs, its atom and its
    exponent in one call; a product with an exact constant factor scales
    the other factor instead of multiplying out."""

    def __init__(self, text: str, nvars: int, var_mode: str, definitions=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.nvars = nvars
        self.var_mode = var_mode  # "z" or "t"
        self.definitions = definitions or {}
        self.origin = ((0,) * nvars, (0,) * nvars)

    def error(self, message: str, index: int) -> ExprSyntaxError:
        """The error at the position of token index; _END has none."""
        if self.tokens[index] is _END:
            return ExprSyntaxError("unexpected end of input")
        return ExprSyntaxError(message, _positions(self.text)[index])

    def expect(self, value: str):
        if self.tokens[self.idx] != value:
            raise self.error(f"expected {value!r}, found {self.tokens[self.idx]!r}", self.idx)
        self.idx += 1

    def expr(self) -> CPolynomial:
        """A sum of products, added left to right.  In a product, a factor
        that is an exact constant c scales the other by c, which gives the
        same terms in the same order."""
        tokens = self.tokens
        factor = self.factor
        constant_value = self.constant_value
        total = sign = None
        while True:
            left = factor()
            while tokens[self.idx] == "*":
                self.idx += 1
                right = factor()
                c = constant_value(right)
                if c is not None:
                    left = left.scale(c)
                else:
                    c = constant_value(left)
                    left = left * right if c is None else right.scale(c)
            if sign is None:
                total = left
            else:
                total = total + left if sign == "+" else total - left
            sign = tokens[self.idx]
            if sign != "+" and sign != "-":
                return total
            self.idx += 1

    def constant_value(self, p: CPolynomial) -> GaussianRational | None:
        """The value of p when p is an exact constant, else None."""
        terms = p.terms
        if p.truncation is not None or len(terms) > 1:
            return None
        if not terms:
            return ZERO
        return terms.get(self.origin)

    def factor(self) -> CPolynomial:
        """('+'|'-')* atom ('^' NUMBER)?: the signs apply to the power."""
        tokens = self.tokens
        i = self.idx
        tok = tokens[i]
        negate = False
        while tok == "-" or tok == "+":
            negate ^= tok == "-"
            i += 1
            tok = tokens[i]
        self.idx = i + 1
        if tok == "(":
            base = self.expr()
            self.expect(")")
        elif tok in _OPERATORS or tok is _END:
            raise self.error(f"unexpected token {tok!r}", i)
        elif tok[0] in _NAME_START:
            base = self.ident(tok, i)
        else:
            base = CPolynomial.constant(self.nvars, self.number(tok, i))
        if tokens[self.idx] == "^":
            i = self.idx + 1
            tok = tokens[i]
            if tok in _OPERATORS or tok is _END or tok[0] in _NAME_START or "/" in tok:
                raise self.error("exponent must be a non-negative integer", i)
            self.idx = i + 1
            base = base ** int(tok)
        return -base if negate else base

    def number(self, tok: str, i: int) -> GaussianRational:
        if "/" not in tok:
            return GaussianRational(int(tok))
        num, den = tok.split("/")
        if int(den) == 0:
            raise self.error(f"zero denominator in {tok!r}", i)
        return GaussianRational(Fraction(int(num), int(den)))

    def ident(self, name: str, i: int) -> CPolynomial:
        if self.var_mode == "z":
            if _is_variable(name):
                k = int(name[1:])
                if not 1 <= k <= self.nvars:
                    raise self.error(f"variable {name} out of range for n={self.nvars}", i)
                return CPolynomial.variable(self.nvars, k - 1)
        elif name == "t":
            return CPolynomial.variable(1, 0)
        if name in ("conj", "Re", "abs2"):
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            if name == "conj":
                return arg.conjugate()
            if name == "abs2":
                return arg * arg.conjugate()
            return (arg + arg.conjugate()).scale(_HALF)
        if name == "i":
            return CPolynomial.constant(self.nvars, I_UNIT)
        if name in self.definitions:
            return self.definitions[name]
        raise self.error(f"unknown identifier {name!r}", i)

    def finish(self):
        """Raise unless every token was read."""
        if self.tokens[self.idx] is not _END:
            raise self.error("trailing input", self.idx)


def parse_expression(
    text: str,
    nvars: int,
    definitions: dict[str, CPolynomial] | None = None,
) -> CPolynomial:
    """Parse an expression in variables z1..zN into a canonical polynomial."""
    parser = _Parser(text, nvars, "z", definitions)
    out = parser.expr()
    parser.finish()
    return out


def parse_curve(text: str, nvars: int | None = None) -> CurveJet:
    """Parse a parenthesized tuple of t-polynomials like "(t^3, t^2, 0)"."""
    parser = _Parser(text, 1, "t")
    if parser.tokens[0] != "(":
        raise ExprSyntaxError("curve must be a parenthesized tuple")
    parser.idx = 1
    comps = [parser.expr()]
    while parser.tokens[parser.idx] == ",":
        parser.idx += 1
        comps.append(parser.expr())
    parser.expect(")")
    parser.finish()
    if nvars is not None and len(comps) != nvars:
        raise ExprSyntaxError(
            f"curve has {len(comps)} components, expected {nvars}"
        )
    return CurveJet(tuple(comps))


# ---------------------------------------------------------------------------
# Printing


def format_coefficient(c: GaussianRational) -> str:
    """Parseable canonical form of a Gaussian rational scalar: its str,
    which algebra reads off the scalar's fields."""
    return str(c)


def format_polynomial(p: CPolynomial, var_mode: str = "z") -> str:
    """Canonical printed form; parsing it reproduces p exactly.  The terms
    come in graded-lex order (algebra.key_sort), each as its coefficient
    times its monomial, a coefficient of 1 or -1 as the monomial or its
    negation, and a term whose text starts with '-' joins with ' - '."""
    if not p.terms:
        return "0"
    n = p.nvars
    names = ("t",) * n if var_mode == "t" else tuple(f"z{i + 1}" for i in range(n))
    out = []
    # (degree, holo, anti) differs between terms, so no coefficient is compared.
    for _deg, holo, anti, coeff in sorted([(sum(h) + sum(a), h, a, c)
                                           for (h, a), c in p.terms.items()]):
        mono = ""
        for i in range(n):
            e = holo[i]
            if e:
                mono += "*" + names[i] if e == 1 else f"*{names[i]}^{e}"
        for i in range(n):
            e = anti[i]
            if e:
                mono += f"*conj({names[i]})" if e == 1 else f"*conj({names[i]})^{e}"
        c = format_coefficient(coeff)
        if not mono:
            s = c
        elif c == "1":
            s = mono[1:]
        elif c == "-1":
            s = "-" + mono[1:]
        else:
            s = c + mono
        if out:
            if s[0] == "-":
                out.append(" - ")
                s = s[1:]
            else:
                out.append(" + ")
        out.append(s)
    return "".join(out)


def format_curve(z: CurveJet) -> str:
    return "(" + ", ".join(format_polynomial(c, "t") for c in z.components) + ")"


# ---------------------------------------------------------------------------
# Problem files


class ProblemFile(NamedTuple):
    """A UTF-8 input file with `n = <int>` and `r = <expression>` lines.

    Intermediate `name = <expression>` lines bind reusable definitions; the
    entry is always the defining-function expression bound to r.  `n` comes
    first, each name is bound once, and a name is an identifier that the
    grammar does not reserve (z1..zN, t, i, conj, Re, abs2).
    """

    nvars: int
    definitions: dict[str, CPolynomial]
    entry: CPolynomial
    source: str


_RESERVED = frozenset({"t", "i", "conj", "Re", "abs2"})


def parse_problem(text: str) -> ProblemFile:
    nvars = None
    definitions: dict[str, CPolynomial] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ExprSyntaxError(f"line {lineno}: expected name = expression")
        name, rhs = line.split("=", 1)
        name = name.strip()
        rhs = rhs.strip()
        if nvars is None:
            if name != "n":
                raise ExprSyntaxError(f"line {lineno}: n = <int> must come first")
            try:
                nvars = int(rhs)
            except ValueError:
                raise ExprSyntaxError(f"line {lineno}: n must be an integer")
            if nvars < 1:
                raise ExprSyntaxError(f"line {lineno}: n must be positive")
            continue
        if name == "n" or name in definitions:
            raise ExprSyntaxError(f"line {lineno}: {name} is bound twice")
        if _NAME_RE.fullmatch(name) is None:
            raise ExprSyntaxError(f"line {lineno}: {name!r} is not a name")
        if name in _RESERVED or _is_variable(name):
            raise ExprSyntaxError(f"line {lineno}: {name} is reserved by the grammar")
        try:
            definitions[name] = parse_expression(rhs, nvars, definitions)
        except ExprSyntaxError as exc:
            raise ExprSyntaxError(f"line {lineno}: {exc}") from exc
    if nvars is None:
        raise ExprSyntaxError("problem file is missing the n = <int> line")
    if "r" not in definitions:
        raise ExprSyntaxError("problem file is missing the r = <expression> line")
    return ProblemFile(nvars=nvars, definitions=definitions, entry=definitions["r"], source=text)
