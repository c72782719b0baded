import itertools
import random
import re
from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from operator import add, mul

import pytest

from contactps import fdb, germ
from contactps.algebra import (
    I_UNIT,
    ONE,
    ZERO,
    CPolynomial,
    GaussianRational,
    _substitution_limit,
    key_conjugate,
    key_degree,
)
from contactps.curve import CurveJet
from contactps.expr import ExprSyntaxError
from contactps.search import _RANDOM_POOL


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def random_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


def random_poly(rng, nvars=2, max_deg=3, nterms=4, truncation=None):
    terms = {}
    for _ in range(nterms):
        holo = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        anti = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[(holo, anti)] = random_scalar(rng)
    return CPolynomial(nvars, terms, truncation)


def product_rule_check(p, q, index, anti):
    """d(pq) == dp*q + p*dq for the Wirtinger derivative in z_index (or its
    conjugate)."""
    lhs = (p * q).wirtinger(index, anti)
    rhs = p.wirtinger(index, anti) * q + p * q.wirtinger(index, anti)
    return lhs == rhs


def initial_coefficients_reference(rows, coeffs):
    """The GaussianRational-object evaluation of the lowest slice that
    algebra.initial_coefficients replaced: each row's leading product built
    from scalar products and powers, summed per bidegree key, zeros
    dropped."""
    conjs = [c.conjugate() for c in coeffs]
    out = {}
    for key, h, a, coeff in rows:
        c = coeff
        for e, f, ci, cj in zip(h, a, coeffs, conjs):
            if e:
                c = c * (ci if e == 1 else ci ** e)
            if f:
                c = c * (cj if f == 1 else cj ** f)
        old = out.get(key)
        out[key] = c if old is None else old + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def leading_rows_reference(p, exps):
    """The curve.leading_rows that formed the initial rows of p from its
    terms anew for every exponent tuple, with no table: per term a dead
    check and four dot products (ks = 0), the terms of least weighted degree
    grouped by bidegree in first-seen order, then None when d lies above
    p.composite_truncation(mult).  A row is (coeff, slots) here, the scalar
    whose raw fields the production row holds."""
    js, ks = exps, [0] * len(exps)
    dead = [i for i, e in enumerate(exps) if not e]
    best, least = None, []
    for (h, a), coeff in p.terms.items():
        if dead and any(h[i] or a[i] for i in dead):
            continue
        hj, hk = sum(map(mul, h, js)), sum(map(mul, h, ks))
        aj, ak = sum(map(mul, a, js)), sum(map(mul, a, ks))
        deg = hj + hk + aj + ak
        if best is None or deg < best:
            best, least = deg, [(((hj + ak,), (hk + aj,)), h, a, coeff)]
        elif deg == best:
            least.append((((hj + ak,), (hk + aj,)), h, a, coeff))
    if best is None:
        return None
    rows = {}
    for key, h, a, coeff in least:
        slots = tuple((i, e, f) for i, (e, f) in enumerate(zip(h, a)) if e or f)
        rows.setdefault(key, []).append((coeff, slots))
    limit = p.composite_truncation(min(e for e in exps if e))
    if limit is not None and best > limit:
        return None
    return best, rows


def initial_form_reference(p, exps, key):
    """The typecalc._balanced_positive that formed the balanced coefficient
    from all of p's terms, generalized to any key ((hd,), (ad,)): the terms
    of p with h.mu = hd, a.mu = ad and no exponent on a zero component
    (exps[i] = 0), in p's order, as an exact polynomial; None when no term
    is left."""
    (hd,), (ad,) = key
    dead = [i for i, e in enumerate(exps) if not e]
    terms = {(h, a): c for (h, a), c in p.terms.items()
             if not any(h[i] or a[i] for i in dead)
             and sum(e * m for e, m in zip(h, exps)) == hd
             and sum(e * m for e, m in zip(a, exps)) == ad}
    return CPolynomial(p.nvars, terms) if terms else None


def _mul_terms_reference(out, left, right, limit):
    """algebra._mul_terms: add the product of every left and right term of
    degree <= limit (all of them if limit is None) into out; coefficients
    that cancel stay in out as zeros."""
    rows = [(h, a, sum(h) + sum(a), c) for (h, a), c in right.items()]
    for (h1, a1), c1 in left.items():
        room = None if limit is None else limit - sum(h1) - sum(a1)
        for h2, a2, d2, c2 in rows:
            if room is not None and d2 > room:
                continue
            key = (tuple(map(add, h1, h2)), tuple(map(add, a1, a2)))
            prod = c1 * c2
            old = out.get(key)
            out[key] = prod if old is None else old + prod


def substitute_reference(p, images, nvars_out):
    """The composition that CPolynomial.substitute replaced by a term map for
    images with at most one term: every image power and product a
    CPolynomial, and one accumulator that collects coeff * H_h * conj(H_a)
    for every term coeff * z^h * conj(z)^a of p, with H_e the product of
    images[i]^e[i], in the order of H_h's terms and then of conj(H_a)'s.
    Products above the truncation are never formed, and coefficients that
    cancel are dropped once, at the end."""
    limit = _substitution_limit(p, images)
    powers, products, conjugates = {}, {}, {}
    one = {((0,) * nvars_out, (0,) * nvars_out): ONE}

    def image_power(i, e):
        q = powers.get((i, e))
        if q is None:
            q = images[i] ** e
            if limit is not None and (q.truncation is None or q.truncation > limit):
                q = q.truncate(limit)
            powers[(i, e)] = q
        return q

    def image_product(exps):
        terms = products.get(exps)
        if terms is None:
            prod = None
            for i, e in enumerate(exps):
                if e:
                    q = image_power(i, e)
                    prod = q if prod is None else prod * q
            terms = products[exps] = one if prod is None else prod.terms
        return terms

    def conjugate_product(exps):
        terms = conjugates.get(exps)
        if terms is None:
            terms = conjugates[exps] = {
                (k[1], k[0]): c.conjugate() for k, c in image_product(exps).items()
            }
        return terms

    out = {}
    for (h, a), coeff in p.terms.items():
        scaled = {k: c * coeff for k, c in image_product(h).items()}
        _mul_terms_reference(out, scaled, conjugate_product(a), limit)
    return CPolynomial(nvars_out, out, limit)


@cache
def _gaussian_field():
    """Q(i) as sympy's algebraic field Q<I>, built once per process."""
    from sympy import QQ_I

    return QQ_I.as_AlgebraicField()


def gaussian_common_roots_reference(polys):
    """The factorization over Q<I> that typecalc.gaussian_common_roots
    replaced by the rational norm: the gcd over QQ_I, split square-free,
    each part of degree > 1 factored over the algebraic field Q<I> (Trager's
    norm method); linear factors give the roots, and a factor of degree > 1
    makes the list incomplete."""
    from sympy import Poly, QQ_I, Symbol

    x = Symbol("x")
    sym = [Poly.from_dict({(e,): QQ_I(c.re, c.im) for e, c in p.items()}, x, domain=QQ_I)
           for p in polys if p]
    if not sym:
        return [], True
    g = sym[0]
    for p in sym[1:]:
        g = g.gcd(p)
    if g.degree() == 0:
        return [], True
    complete = True
    roots = []
    factors = []
    for part in [part for part, _m in g.sqf_list()[1]] if g.degree() > 1 else [g]:
        factors += ([part] if part.degree() == 1
                    else [f for f, _m in part.set_domain(_gaussian_field()).factor_list()[1]])
    for factor in factors:
        if factor.degree() == 1:
            # The factor is x + c.
            c = QQ_I.convert_from(factor.monic().rep.TC(), factor.domain)
            re, im = (Fraction(q.numerator, q.denominator) for q in (c.x, c.y))
            roots.append(-GaussianRational(re, im))
        elif factor.degree() > 1:
            complete = False
    roots.sort(key=lambda c: (c.re, c.im))
    return roots, complete


def gaussian_common_roots_norm_reference(polys):
    """The rational-norm root finder that typecalc.gaussian_common_roots
    replaced by p-adic lifting: the same gcd and square-free part g, then
    the norm N = g*conj(g), which has rational coefficients, factored over Z
    by sympy (Zassenhaus); the candidates are the roots of its linear
    factors and (-b +- s*i)/(2a) for each quadratic factor a x^2 + b x + c
    with 4ac - b^2 = s^2, each kept only if g vanishes at it exactly."""
    from sympy import ZZ
    from sympy.polys.factortools import dup_factor_list

    from contactps.typecalc import _eval_univariate, _poly_divmod, _poly_gcd

    nonzero = []
    for p in polys:
        dense = [p.get(e, ZERO) for e in range(max(p, default=-1) + 1)]
        while dense and dense[-1].is_zero():
            dense.pop()
        if dense:
            nonzero.append(dense)
    if not nonzero:
        return [], True
    g = nonzero[0]
    for p in nonzero[1:]:
        g = _poly_gcd(g, p)
    if len(g) > 2:
        g = _poly_divmod(g, _poly_gcd(g, [c * GaussianRational(k)
                                          for k, c in enumerate(g) if k]))[0]
    if len(g) <= 2:
        return ([] if len(g) == 1 else [-g[0] / g[1]]), True
    gbar = [c.conjugate() for c in g]
    norm = [ZERO] * (2 * len(g) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(gbar):
            norm[i + j] = norm[i + j] + a * b
    scale = lcm(*(c.re.denominator for c in norm))
    integral = [ZZ(int(c.re * scale)) for c in reversed(norm)]
    candidates = []
    for factor, _m in dup_factor_list(integral, ZZ)[1]:
        if len(factor) == 2:
            a, b = (int(c) for c in factor)
            candidates.append(GaussianRational(Fraction(-b, a)))
        elif len(factor) == 3:
            a, b, c = (int(c) for c in factor)
            m = 4 * a * c - b * b
            s = isqrt(m) if m > 0 else 0
            if s and s * s == m:
                candidates += [GaussianRational(Fraction(-b, 2 * a), Fraction(sign * s, 2 * a))
                               for sign in (1, -1)]
    phi = dict(enumerate(g))
    roots = sorted((r for r in candidates if _eval_univariate(phi, r).is_zero()),
                   key=lambda c: (c.re, c.im))
    return roots, len(roots) == len(g) - 1


def random_draws_reference(nvars, budget):
    """The coefficient dicts of search.random_draws as drawn through
    random.Random's choice, randint and randrange, which search.random_draws
    replaced by its own rejection rule on getrandbits."""
    rng = random.Random(budget.seed)
    produced = 0
    while produced < budget.random_trials:
        mult = rng.randint(1, budget.max_multiplicity)
        if mult > budget.max_degree:
            continue
        deg = rng.randint(mult, budget.max_degree)
        coeffs = []
        for _ in range(nvars):
            comp = {}
            for d in range(mult, deg + 1):
                c = rng.choice(_RANDOM_POOL)
                if not c.is_zero():
                    comp[d] = c
            coeffs.append(comp)
        lead = [cd.get(mult) for cd in coeffs]
        if all(c is None for c in lead):
            # Force the intended multiplicity.
            coeffs[rng.randrange(nvars)][mult] = GaussianRational(rng.choice((1, -1)))
        if all(not cd for cd in coeffs):
            continue
        produced += 1
        yield coeffs


def gram_certificate_reference(g):
    """The germ.gram_certificate that decided real-valued and mixed-only by
    is_real_valued and pure_mixed_split, and checked the certificate by
    summing d * f * conj(f) over its squares as polynomials."""
    if not g.is_real_valued():
        raise germ.NotRealError("Gram certification needs a real-valued polynomial")
    if not g.pure_mixed_split()[0].is_zero():
        raise ValueError("Gram certification applies to mixed-only polynomials")
    monomials, H = germ.gram_matrix(g)
    status, data = germ._psd_decompose(monomials, H)
    n = g.nvars
    if status == "psd":
        squares = []
        recon = CPolynomial.zero(n)
        for d, u in data:
            f_terms = {(monomials[j], (0,) * n): c for j, c in u.items() if not c.is_zero()}
            f = CPolynomial(n, f_terms)
            squares.append((d, f))
            recon = recon + (f * f.conjugate()).scale(GaussianRational(d))
        if recon.terms != g.terms:
            raise germ.SolveGraphError("sum-of-squares reconstruction mismatch")
        return germ.PSCertificate("certified", "gram", squares=tuple(squares))
    direction = tuple(
        sorted(
            ((monomials[j], c) for j, c in data.items() if not c.is_zero()),
            key=lambda kv: (sum(kv[0]), kv[0]),
        )
    )
    return germ.PSCertificate("inconclusive", "gram", indefinite_direction=direction)


def decompose_pure_mixed(jk):
    """Write jk = 2Re(h) + g with h holomorphic (dh(0) != 0) and g
    mixed-only: the split that germ.py forms once per frame, checked by
    germ._check_holomorphic_half."""
    pure, mixed = jk.pure_mixed_split()
    h = pure.graph_split()[2]
    germ._check_holomorphic_half(pure, h)
    return h, mixed


def _per_order_reference(k_min, k_max, bounds, split):
    """Solve, restrict and certify every jet order k anew, on the (h, g)
    that split(k) gives, and combine the verdicts."""
    if not (2 <= k_min <= k_max):
        raise ValueError("need 2 <= k_min <= k_max")
    entries = []
    for k in range(k_min, k_max + 1):
        h, gk = split(k)
        work = 2 * k
        phi = germ.solve_graph(h, work)
        gres = germ.restrict(gk, phi).truncate(work)
        gram = germ.gram_certificate(gres)
        cert = gram if gram.verdict == "certified" else germ.ps_search(gres, bounds, gram)
        entries.append(germ.StabilizationEntry(k, gres, cert))
    k0 = None
    for entry in reversed(entries):
        if entry.certificate.is_violation:
            break
        k0 = entry.k
    return germ.StabilizationReport(k_min, k_max, tuple(entries), k0, bounds)


def germ_ps_check_reference(r, k_min, k_max, bounds):
    """The germ.germ_ps_check that truncated the linear frame of r to each
    order k, read the jet as an exact polynomial and split it into (h, g)
    anew for every k."""
    normalized = r.r.substitute(germ._linear_images(r), r.nvars)
    return _per_order_reference(k_min, k_max, bounds, lambda k: decompose_pure_mixed(
        CPolynomial(normalized.nvars, normalized.truncate(k).terms)))


def germ_ps_check_per_order_reference(r, k_min, k_max, bounds):
    """The germ.germ_ps_check that substituted the linear images into r even
    when they are the identity, split it into (h, g) once, and solved,
    restricted and certified the degree filters of that split at every
    order, rigid germs included, with nothing kept from the previous
    order."""
    if not (2 <= k_min <= k_max):
        raise ValueError("need 2 <= k_min <= k_max")
    normalized = r.r.substitute(germ._linear_images(r), r.nvars)
    h, g = decompose_pure_mixed(CPolynomial(normalized.nvars, normalized.terms))
    return _per_order_reference(k_min, k_max, bounds, lambda k: (
        h.select(lambda key: key_degree(key) <= k), g.select(lambda key: key_degree(key) <= k)))


def normalize_to_graph_reference(r, K):
    """The germ.normalize_to_graph that substituted the linear images into r
    even when they are the identity, solved and restricted to the graph of
    every germ, rigid ones included, and formed the lift with the frame:
    (g, images, graph, lift)."""
    n = r.nvars
    images = tuple(germ._linear_images(r))
    normalized = r.r.substitute(images, n)
    phi = germ.solve_graph(normalized.graph_split()[2], K)
    graph = tuple(CPolynomial.variable(n - 1, j) for j in range(n - 1)) + (phi,)
    lift = tuple(im.substitute(graph, n - 1) for im in images)
    return normalized.substitute(graph, n - 1), images, graph, lift


def set_partitions(items):
    """Every set partition of items, as a list of blocks."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            out.append(sub[:i] + [(first,) + sub[i]] + sub[i + 1:])
        out.append([(first,)] + sub)
    return out


def laplacian_power_forms_enumerated(g, z, k):
    """fdb.laplacian_power_forms for exact g and z, by brute-force
    enumeration of the individual set partitions of the k strokes on each
    side instead of grouped block-size multisets; practical for k <= 6."""
    forms = fdb.derive_forms(g, 2 * k)
    dvec = {j: z.derivative_vector(j) for j in range(1, k + 1)}
    total = ZERO
    all_parts = set_partitions(tuple(range(k)))
    for pi in all_parts:
        for sigma in all_parts:
            form = forms.get((len(pi), len(sigma)))
            if form is None:
                continue
            holo_vecs = [dvec[len(block)] for block in pi]
            anti_vecs = [dvec[len(block)] for block in sigma]
            total = total + form.apply(holo_vecs, anti_vecs)
    return total


def multilinear_apply_reference(form, holo_vectors, anti_vectors):
    """The fdb.MultilinearForm.apply that summed over all nvars^(a+b) index
    tuples, looking each one's sorted key up in the form's table."""
    if len(holo_vectors) != form.a or len(anti_vectors) != form.b:
        raise ValueError("slot count mismatch")
    table = form.table
    total = ZERO
    for hidx in itertools.product(range(form.nvars), repeat=form.a):
        for aidx in itertools.product(range(form.nvars), repeat=form.b):
            key = (tuple(sorted(hidx)), tuple(sorted(aidx)))
            coeff = table.get(key)
            if coeff is None:
                continue
            prod = coeff
            for slot, i in enumerate(hidx):
                prod = prod * holo_vectors[slot][i]
            for slot, i in enumerate(aidx):
                prod = prod * anti_vectors[slot][i].conjugate()
            total = total + prod
    return total


def hermitian_quadratic_definite_reference(g):
    """The typecalc._hermitian_quadratic_definite that certified the
    degree-2 slice q of g and then -q, whatever g's own certificate said:
    definite when one of them is a Gram sum of g.nvars squares."""
    q = g.homogeneous_slice(2)
    for form in (q, -q):
        cert = germ.gram_certificate(form)
        if cert.verdict == "certified" and len(cert.squares) == g.nvars:
            return True
    return False


_RANDOM_VALUES = tuple(
    Fraction(v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3)
)


def random_real_polynomial_reference(rng, nvars, max_degree, nterms=4):
    """The fdb.random_real_polynomial that drew its numbers through
    random.Random's randint and choice, which fdb.random_real_polynomial
    replaced by search.draw_below on getrandbits."""
    terms = {}
    for _ in range(nterms):
        while True:
            holo = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            anti = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if 0 < sum(holo) + sum(anti) <= max_degree:
                break
        c = GaussianRational(rng.choice(_RANDOM_VALUES),
                             rng.choice(_RANDOM_VALUES + (Fraction(0),)))
        key = (holo, anti)
        terms[key] = terms.get(key, ZERO) + c
        ckey = key_conjugate(key)
        terms[ckey] = terms.get(ckey, ZERO) + c.conjugate()
    p = CPolynomial(nvars, terms)
    return p if not p.is_zero() else CPolynomial.monomial(
        nvars, (1,) + (0,) * (nvars - 1), (1,) + (0,) * (nvars - 1)
    )


# ---------------------------------------------------------------------------
# The expression parser that expr.py replaced: one finditer scan into
# (kind, value, position) tokens, and one method per grammar rule.  The
# parser reference test compares the terms, their order, the truncation
# and every error message with it.

_REF_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(),])|(?P<bad>.)",
    re.DOTALL,
)
_REF_VARIABLE_RE = re.compile(r"z(\d+)")
_REF_END = ("end", "", -1)


def _tokenize_reference(text):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            pos = m.start()
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        value = m.group()
        tokens.append((kind, value.replace(" ", "") if kind == "number" else value, m.start()))
    tokens.append(_REF_END)
    return tokens


class _ParserReference:
    """Recursive-descent parser producing CPolynomial values directly."""

    def __init__(self, tokens, nvars, var_mode, definitions=None):
        self.tokens = tokens
        self.idx = 0
        self.nvars = nvars
        self.var_mode = var_mode
        self.definitions = definitions or {}
        self.origin = ((0,) * nvars, (0,) * nvars)

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok is _REF_END:
            raise ExprSyntaxError("unexpected end of input")
        self.idx += 1
        return tok

    def expect(self, value):
        tok = self.next()
        if tok[1] != value:
            raise ExprSyntaxError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def at_end(self):
        return self.tokens[self.idx] is _REF_END

    def expr(self):
        left = self.term()
        op = self.peek()[1]
        while op in ("+", "-"):
            self.idx += 1
            right = self.term()
            left = left + right if op == "+" else left - right
            op = self.peek()[1]
        return left

    def term(self):
        left = self.factor()
        while self.peek()[1] == "*":
            self.idx += 1
            left = self.product(left, self.factor())
        return left

    def product(self, left, right):
        if left.nvars == right.nvars:
            c = self.constant_value(right)
            if c is not None:
                return left.scale(c)
            c = self.constant_value(left)
            if c is not None:
                return right.scale(c)
        return left * right

    def constant_value(self, p):
        terms = p.terms
        if p.truncation is not None or len(terms) > 1:
            return None
        if not terms:
            return ZERO
        return terms.get(self.origin)

    def factor(self):
        sign = self.peek()[1]
        if sign in ("+", "-"):
            self.idx += 1
            inner = self.factor()
            return inner if sign == "+" else -inner
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.idx += 1
            tok = self.next()
            if tok[0] != "number" or "/" in tok[1]:
                raise ExprSyntaxError("exponent must be a non-negative integer", tok[2])
            base = base ** int(tok[1])
        return base

    def atom(self):
        kind, value, pos = self.next()
        if value == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "number":
            if "/" in value:
                num, den = value.split("/")
                if int(den) == 0:
                    raise ExprSyntaxError(f"zero denominator in {value!r}", pos)
                q = GaussianRational(Fraction(int(num), int(den)))
            else:
                q = GaussianRational(int(value))
            return CPolynomial.constant(self.nvars, q)
        if kind == "ident":
            return self.ident(value, pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)

    def ident(self, name, pos):
        if name in ("conj", "Re", "abs2"):
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            if name == "conj":
                return arg.conjugate()
            if name == "abs2":
                return arg * arg.conjugate()
            return (arg + arg.conjugate()).scale(GaussianRational(Fraction(1, 2)))
        if name == "i":
            return CPolynomial.constant(self.nvars, I_UNIT)
        if name == "t" and self.var_mode == "t":
            return CPolynomial.variable(1, 0)
        if self.var_mode == "z":
            m = _REF_VARIABLE_RE.fullmatch(name)
            if m:
                k = int(m.group(1))
                if not 1 <= k <= self.nvars:
                    raise ExprSyntaxError(f"variable {name} out of range for n={self.nvars}", pos)
                return CPolynomial.variable(self.nvars, k - 1)
        if name in self.definitions:
            return self.definitions[name]
        raise ExprSyntaxError(f"unknown identifier {name!r}", pos)


def parse_expression_reference(text, nvars, definitions=None):
    parser = _ParserReference(_tokenize_reference(text), nvars, "z", definitions)
    out = parser.expr()
    if not parser.at_end():
        raise ExprSyntaxError("trailing input", parser.peek()[2])
    return out


def parse_curve_reference(text, nvars=None):
    tokens = _tokenize_reference(text)
    if tokens[0][1] != "(":
        raise ExprSyntaxError("curve must be a parenthesized tuple")
    parser = _ParserReference(tokens, 1, "t")
    parser.expect("(")
    comps = [parser.expr()]
    while parser.peek()[1] == ",":
        parser.next()
        comps.append(parser.expr())
    parser.expect(")")
    if not parser.at_end():
        raise ExprSyntaxError("trailing input", parser.peek()[2])
    if nvars is not None and len(comps) != nvars:
        raise ExprSyntaxError(f"curve has {len(comps)} components, expected {nvars}")
    return CurveJet(tuple(comps))


@pytest.fixture
def rng():
    return random.Random(20260824)
