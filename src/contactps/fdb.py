"""Set-partition expansion of Laplacian powers of pullbacks.

For a real-valued g and a holomorphic curve z, the k-th power of the
operator d/dt d/dtbar applied to g(z(t)) at 0 expands over pairs of set
partitions of the k holomorphic and k antiholomorphic derivative strokes.
Each pair contributes a symmetric multilinear derivative form of g evaluated
on curve derivative vectors, one per block.  Terms are grouped by block-size
multisets with multiplicative counts, which keeps moderate k tractable; an
explicit set-partition enumerator doubles as a test oracle for small k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import CPolynomial, GaussianRational, ZERO, key_conjugate
from .curve import CurveJet, InsufficientJetError, laplacian_power, pullback


@dataclass(frozen=True)
class MultilinearForm:
    """Symmetric multilinear form of type (a, b): the raw derivatives of g at 0
    with a holomorphic and b antiholomorphic slots.

    entries maps (sorted a-tuple of variable indices, sorted b-tuple) to the
    derivative value; symmetry within each slot group is by construction.
    """

    a: int
    b: int
    nvars: int
    entries: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], GaussianRational], ...]

    def value(self, holo_idx, anti_idx) -> GaussianRational:
        key = (tuple(sorted(holo_idx)), tuple(sorted(anti_idx)))
        return dict(self.entries).get(key, ZERO)

    def apply(self, holo_vectors, anti_vectors) -> GaussianRational:
        """Evaluate on vectors: anti slots receive the conjugates internally."""
        if len(holo_vectors) != self.a or len(anti_vectors) != self.b:
            raise ValueError("slot count mismatch")
        table = dict(self.entries)
        total = ZERO
        for hidx in itertools.product(range(self.nvars), repeat=self.a):
            for aidx in itertools.product(range(self.nvars), repeat=self.b):
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


def derive_forms(g: CPolynomial, max_order: int) -> dict[tuple[int, int], MultilinearForm]:
    """All derivative forms of g at 0 with a + b <= max_order.

    Computed exactly from the term map: the monomial with exponents (alpha,
    beta) has derivative alpha! * beta! * coefficient at the matching slots.
    """
    if not g.is_real_valued():
        raise ValueError("derivative forms require a real-valued polynomial")
    buckets: dict[tuple[int, int], dict] = {}
    for (holo, anti), coeff in g.terms.items():
        a, b = sum(holo), sum(anti)
        if a + b > max_order:
            continue
        scale = 1
        idx_h = []
        for i, e in enumerate(holo):
            scale *= factorial(e)
            idx_h.extend([i] * e)
        idx_a = []
        for i, e in enumerate(anti):
            scale *= factorial(e)
            idx_a.extend([i] * e)
        key = (tuple(idx_h), tuple(idx_a))
        buckets.setdefault((a, b), {})[key] = coeff * GaussianRational(scale)
    return {
        (a, b): MultilinearForm(a, b, g.nvars, tuple(sorted(entries.items())))
        for (a, b), entries in buckets.items()
    }


# ---------------------------------------------------------------------------
# Partition combinatorics


def integer_partitions(k: int) -> list[tuple[int, ...]]:
    """Partitions of k as non-increasing tuples, deterministic order."""
    if k == 0:
        return [()]
    out = []

    def rec(remaining: int, maximum: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maximum), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


def partition_count(k: int, sizes) -> int:
    """Number of set partitions of {1..k} with the given block-size multiset:
    k! / (prod sizes! * prod multiplicity!)."""
    sizes = tuple(sorted(sizes, reverse=True))
    if sum(sizes) != k:
        raise ValueError(f"block sizes {sizes} do not sum to {k}")
    denom = 1
    for s in sizes:
        denom *= factorial(s)
    for s in set(sizes):
        denom *= factorial(sizes.count(s))
    count, rem = divmod(factorial(k), denom)
    assert rem == 0
    return count


def set_partitions(items: tuple) -> list[list[tuple]]:
    """Explicit enumeration of set partitions; test oracle for small sets."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            out.append(sub[:i] + [(first,) + sub[i]] + sub[i + 1 :])
        out.append([(first,)] + sub)
    return out


@dataclass(frozen=True)
class ExpansionTerm:
    """One grouped term of the expansion: a pair of block-size multisets with
    its multiplicative set-partition count."""

    holo_blocks: tuple[int, ...]
    anti_blocks: tuple[int, ...]
    count: int

    @property
    def form_type(self) -> tuple[int, int]:
        return (len(self.holo_blocks), len(self.anti_blocks))


def expansion_table(k: int) -> list[ExpansionTerm]:
    """All grouped terms of the k-th Laplacian power expansion."""
    parts = integer_partitions(k)
    out = []
    for mu in parts:
        for sigma in parts:
            out.append(
                ExpansionTerm(mu, sigma, partition_count(k, mu) * partition_count(k, sigma))
            )
    return out


def _check_jets(g: CPolynomial, z: CurveJet, k: int):
    if g.truncation is not None and g.truncation < 2 * k:
        raise InsufficientJetError(f"g jet order {g.truncation} < {2 * k}")
    if z.truncation is not None and z.truncation < 2 * k:
        raise InsufficientJetError(f"curve jet order {z.truncation} < {2 * k}")


def laplacian_power_forms(g: CPolynomial, z: CurveJet, k: int) -> GaussianRational:
    """The k-th Laplacian power of the pullback at 0, via the partition
    expansion over derivative forms.  Agrees exactly with applying the
    operator to the pullback directly."""
    _check_jets(g, z, k)
    forms = derive_forms(g, 2 * k)
    dvec = {j: z.derivative_vector(j) for j in range(1, k + 1)}
    total = ZERO
    for term in expansion_table(k):
        form = forms.get(term.form_type)
        if form is None:
            continue
        holo_vecs = [dvec[s] for s in term.holo_blocks]
        anti_vecs = [dvec[s] for s in term.anti_blocks]
        value = form.apply(holo_vecs, anti_vecs)
        if value.is_zero():
            continue
        total = total + value * GaussianRational(term.count)
    return total


def laplacian_power_forms_enumerated(g: CPolynomial, z: CurveJet, k: int) -> GaussianRational:
    """Same value by brute-force enumeration of individual set partitions;
    independent oracle, practical for k <= 6."""
    _check_jets(g, z, k)
    forms = derive_forms(g, 2 * k)
    dvec = {j: z.derivative_vector(j) for j in range(1, k + 1)}
    strokes = tuple(range(k))
    total = ZERO
    all_parts = set_partitions(strokes)
    for pi in all_parts:
        for sigma in all_parts:
            form = forms.get((len(pi), len(sigma)))
            if form is None:
                continue
            holo_vecs = [dvec[len(block)] for block in pi]
            anti_vecs = [dvec[len(block)] for block in sigma]
            total = total + form.apply(holo_vecs, anti_vecs)
    return total


_RANDOM_VALUES = tuple(
    Fraction(v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3)
)


def random_real_polynomial(rng, nvars: int, max_degree: int, nterms: int = 4) -> CPolynomial:
    """Random real-valued polynomial for oracle cross-checks: random mixed
    monomials paired with their conjugates so the result is real by
    construction."""
    terms: dict = {}
    for _ in range(nterms):
        while True:
            holo = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            anti = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if 0 < sum(holo) + sum(anti) <= max_degree:
                break
        c = GaussianRational(rng.choice(_RANDOM_VALUES), rng.choice(_RANDOM_VALUES + (Fraction(0),)))
        key = (holo, anti)
        terms[key] = terms.get(key, ZERO) + c
        ckey = key_conjugate(key)
        terms[ckey] = terms.get(ckey, ZERO) + c.conjugate()
    p = CPolynomial(nvars, terms)
    return p if not p.is_zero() else CPolynomial.monomial(
        nvars, (1,) + (0,) * (nvars - 1), (1,) + (0,) * (nvars - 1)
    )


@dataclass(frozen=True)
class FilteredExpansion:
    """The four terms surviving for a curve of multiplicity m at power 2m.

    Blocks smaller than m contribute nothing (the corresponding curve
    derivatives vanish), leaving block multisets {2m} and {m, m} on each
    side, with coefficients {1, lam, lam, lam^2} where
    lam = (2m)! / (2 * (m!)^2) is the set-partition count for {m, m}.
    """

    m: int
    lam: int
    terms: tuple[tuple[ExpansionTerm, GaussianRational], ...]
    total: GaussianRational
    oracle: GaussianRational

    @property
    def coefficients(self) -> tuple[int, int, int, int]:
        return tuple(t.count for t, _v in self.terms)


class MultiplicityMismatchError(ValueError):
    pass


def filtered_expansion(g: CPolynomial, z: CurveJet, m: int | None = None) -> FilteredExpansion:
    """Evaluate the surviving terms of the 2m-th Laplacian power for a curve of
    multiplicity m, and verify the filtered sum against the full expansion."""
    mult = z.multiplicity()
    if m is None:
        m = mult
    elif m != mult:
        raise MultiplicityMismatchError(f"curve multiplicity is {mult}, not {m}")
    k = 2 * m
    _check_jets(g, z, k)
    lam = partition_count(k, (m, m))
    forms = derive_forms(g, 2 * k)
    dvec = {j: z.derivative_vector(j) for j in (m, 2 * m)}
    blocksets = [(2 * m,), (m, m)]
    terms = []
    total = ZERO
    for mu in blocksets:
        for sigma in blocksets:
            term = ExpansionTerm(mu, sigma, partition_count(k, mu) * partition_count(k, sigma))
            form = forms.get(term.form_type)
            value = ZERO
            if form is not None:
                value = form.apply([dvec[s] for s in mu], [dvec[s] for s in sigma])
            terms.append((term, value))
            total = total + value * GaussianRational(term.count)
    oracle = laplacian_power(pullback(g, z), k)
    if total != oracle:
        raise AssertionError(
            "filtered expansion disagrees with the direct operator oracle"
        )
    return FilteredExpansion(m, lam, tuple(terms), total, oracle)
