"""Independent pullback-order oracle built on sympy.

The benchmark re-derives the order of every witness curve it is shown with
this module, outside the timed region.  It shares no code with contactps:
problem files and curves are parsed here by sympy, and the pullback is a
plain sympy expansion, not ``CPolynomial.substitute``.

Variables: ``z_k`` and ``w_k`` stand for z_k and conj(z_k); along a curve,
``t`` and ``s`` stand for t and conj(t).  All of them are declared real, so
``sympy.conjugate`` only flips the sign of ``I``; conjugating an expression
swaps z <-> w (and t <-> s) and conjugates its coefficients.
"""

from __future__ import annotations

import sympy
from sympy.parsing.sympy_parser import parse_expr, standard_transformations

T, S = sympy.symbols("t s", real=True)


class OracleError(ValueError):
    """The oracle cannot evaluate this input."""


def _conj(e, swap):
    return sympy.conjugate(sympy.sympify(e)).xreplace(swap)


class Germ:
    """A problem file parsed by sympy into a polynomial in z_k and w_k."""

    def __init__(self, source: str):
        n = None
        defs: dict = {}
        expr = None
        for raw in source.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, rhs = (part.strip() for part in line.split("=", 1))
            if name == "n":
                n = int(rhs)
                self.z = sympy.symbols(f"z1:{n + 1}", real=True)
                self.w = sympy.symbols(f"w1:{n + 1}", real=True)
                swap = {**dict(zip(self.z, self.w)), **dict(zip(self.w, self.z)), T: S, S: T}
                base = {f"z{k + 1}": self.z[k] for k in range(n)}
                base.update({
                    "i": sympy.I,
                    "t": T,
                    "conj": lambda e: _conj(e, swap),
                    "Re": lambda e: (e + _conj(e, swap)) / 2,
                    "abs2": lambda e: e * _conj(e, swap),
                })
                defs = base
                continue
            if n is None:
                raise OracleError("problem file must start with n = <int>")
            value = sympy.expand(parse_expr(
                rhs.replace("^", "**"), local_dict=dict(defs),
                transformations=standard_transformations))
            defs[name] = value
            if name == "r":
                expr = value
        if expr is None:
            raise OracleError("problem file has no r = <expression> line")
        self.n = n
        self.r = expr

    def curve(self, text: str) -> list:
        """Components of a printed curve such as "(t^3, -1/2*t^2, 0)"."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise OracleError(f"not a curve: {text!r}")
        parts, depth, cur = [], 0, ""
        for ch in body[1:-1]:
            if ch == "," and depth == 0:
                parts.append(cur)
                cur = ""
                continue
            depth += (ch == "(") - (ch == ")")
            cur += ch
        parts.append(cur)
        local = {"t": T, "i": sympy.I}
        return [sympy.expand(parse_expr(p.strip().replace("^", "**"), local_dict=local,
                                        transformations=standard_transformations))
                for p in parts]

    def _graph_frame_check(self):
        """The corpus germs with a linear part are 2Re(z_n) + (mixed terms
        free of z_n); for them the graph transform is the identity and a
        witness in the z_n = 0 frame pulls back r unchanged."""
        poly = sympy.Poly(self.r, *self.z, *self.w)
        n = self.n
        for monom, _c in poly.terms():
            hz, hw = monom[:n], monom[n:]
            if hz[n - 1] or hw[n - 1]:
                if sum(monom) != 1:
                    raise OracleError("z_n appears outside the linear part 2Re(z_n)")
            elif not any(hz) or not any(hw):
                raise OracleError("pure terms other than 2Re(z_n) are not supported")

    def _polynomial(self, jet: int | None):
        """r itself, or the mixed part of its jet of order `jet` restricted
        to z_n = 0 (what germ-ps tests at that jet order)."""
        if jet is None:
            return self.r
        self._graph_frame_check()
        n = self.n
        poly = sympy.Poly(self.r, *self.z, *self.w)
        out = sympy.Integer(0)
        for monom, c in poly.terms():
            hz, hw = monom[:n], monom[n:]
            if sum(monom) <= jet and any(hz) and any(hw) and not hz[n - 1] and not hw[n - 1]:
                term = c
                for v, e in zip(self.z + self.w, monom):
                    term *= v**e
                out += term
        return out

    def order(self, curve_text: str, jet: int | None = None) -> int | None:
        """Order of vanishing in (t, conj t) of the pullback along the
        curve; None when the pullback is identically zero.

        A curve with n - 1 components is a witness in the z_n = 0 frame and
        gets a zero last component.  A curve with n + 1 components whose last
        one is zero is a witness for a mixed-only germ lifted to the frame
        with a graph coordinate, which the germ does not involve.
        """
        comps = self.curve(curve_text)
        if len(comps) == self.n + 1 and comps[-1] == 0:
            comps = comps[:-1]
        elif len(comps) == self.n - 1:
            self._graph_frame_check()
            comps = comps + [sympy.Integer(0)]
        if len(comps) != self.n:
            raise OracleError(f"curve has {len(comps)} components, germ has {self.n}")
        images = {}
        for z, w, c in zip(self.z, self.w, comps):
            images[z] = c
            images[w] = sympy.conjugate(c).xreplace({T: S})
        u = sympy.expand(self._polynomial(jet).xreplace(images))
        if u == 0:
            return None
        return min(sum(m) for m in sympy.Poly(u, T, S).monoms())


def multiplicity(comps) -> int:
    """Minimum order in t over the nonzero components of a curve."""
    return min(min(m[0] for m in sympy.Poly(c, T).monoms()) for c in comps if c != 0)
