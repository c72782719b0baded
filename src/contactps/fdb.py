"""Set-partition expansion of Laplacian powers of pullbacks.

For a real-valued g and a holomorphic curve z, the k-th power of the
operator d/dt d/dtbar applied to g(z(t)) at 0 expands over pairs of set
partitions of the k holomorphic and k antiholomorphic derivative strokes.
Each pair contributes a symmetric multilinear derivative form of g evaluated
on curve derivative vectors, one per block.  Terms are grouped by block-size
multisets with multiplicative counts, which keeps moderate k tractable: the
table of order k holds P(k)^2 terms, P(k) the number of partitions of k, and
check_expansion_size refuses a k whose table would hold more than
MAX_EXPANSION_TERMS, and a number of trials above MAX_TRIALS or whose tables
would together hold more than MAX_RUN_TERMS, before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial
from typing import NamedTuple

from .algebra import ONE, ZERO, CPolynomial, GaussianRational, key_conjugate
from .curve import CurveJet, InsufficientJetError, laplacian_power, pullback
from .search import draw_below


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

    @cached_property
    def table(self) -> dict:
        """entries as a dict, built on first read."""
        return dict(self.entries)

    def value(self, holo_idx, anti_idx) -> GaussianRational:
        key = (tuple(sorted(holo_idx)), tuple(sorted(anti_idx)))
        return self.table.get(key, ZERO)

    def apply(self, holo_vectors, anti_vectors) -> GaussianRational:
        """Evaluate on vectors: anti slots receive the conjugates internally.

        The form is the sum, over all nvars^(a+b) pairs of index tuples, of
        the entry at their sorted keys times the vector coordinates the
        tuples pick.  The pairs that pick an entry are the distinct
        orderings of its holomorphic tuple against those of its
        antiholomorphic one, and a pair's product splits into a holomorphic
        and an antiholomorphic factor.  So each entry adds coeff * H * A,
        where H sums the holomorphic products over the orderings of its
        holomorphic tuple (_orderings) and A the conjugated products over
        the orderings of its antiholomorphic one; both are formed once per
        tuple.  The arithmetic is exact, so the order of the sum does not
        change its value."""
        if len(holo_vectors) != self.a or len(anti_vectors) != self.b:
            raise ValueError("slot count mismatch")
        conj_vectors = [[c.conjugate() for c in v] for v in anti_vectors]
        holo_sums: dict = {}
        anti_sums: dict = {}
        total = ZERO
        for (hkey, akey), coeff in self.table.items():
            h = holo_sums.get(hkey)
            if h is None:
                h = holo_sums[hkey] = _ordering_sum(hkey, holo_vectors)
            a = anti_sums.get(akey)
            if a is None:
                a = anti_sums[akey] = _ordering_sum(akey, conj_vectors)
            total = total + coeff * h * a
        return total


@cache
def _orderings(key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of the sorted tuple key, in lexicographic
    order: each is the next permutation of the one before, so a key with
    repeated indices forms its multiset permutations once each, never all
    len(key)! permutations."""
    perm = list(key)
    out = [tuple(perm)]
    while True:
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])
        out.append(tuple(perm))


def _ordering_sum(key: tuple[int, ...], vectors) -> GaussianRational:
    """The sum over the orderings of key of the product, over the slots, of
    the coordinate of the slot's vector that the ordering picks there."""
    total = ZERO
    for idx in _orderings(key):
        prod = ONE
        for vector, i in zip(vectors, idx):
            prod = prod * vector[i]
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


# The largest expansion table fdb-verify builds: k = 17 gives 297^2 =
# 88,209 terms, formed in about a second; k = 18 gives 148,225.
MAX_EXPANSION_TERMS = 100_000

# The bounds on one fdb-verify run.  A trial costs about 0.35 ms plus about
# 2.5 us per term of its table (CPython 3.11): at most MAX_TRIALS trials,
# about 4 s at k = 3, and at most MAX_RUN_TERMS terms over all trials, which
# keeps the default 20 trials at every k up to 17 (1,764,180 terms, about
# 5 s) and bounds a run at any k to seconds.
MAX_TRIALS = 10_000
MAX_RUN_TERMS = 2_000_000


class ExpansionTooLargeError(ValueError):
    """An order k whose expansion table is above MAX_EXPANSION_TERMS, or a
    number of trials above MAX_TRIALS or checking more than MAX_RUN_TERMS
    terms."""


def check_expansion_size(k: int, trials: int = 1) -> None:
    """Raise ExpansionTooLargeError when expansion_table(k) would hold more
    than MAX_EXPANSION_TERMS terms, when trials is above MAX_TRIALS, or when
    trials runs of the table would check more than MAX_RUN_TERMS terms,
    trials * P(k)^2.  It counts the P(n)^2 terms of each order n = 1, 2,
    ..., k in turn from the partitions of n, and stops at the first order
    above the limit: P grows with n, so the partitions of a large k are never
    formed.  The table of an order k < 1 is counted as P(0)^2 = 1 term."""
    size = 1
    for n in range(1, k + 1):
        size = len(integer_partitions(n)) ** 2
        if size > MAX_EXPANSION_TERMS:
            raise ExpansionTooLargeError(
                f"expansion too large: --k {k} gives more than {MAX_EXPANSION_TERMS} "
                f"expansion terms")
    if trials > MAX_TRIALS:
        raise ExpansionTooLargeError(
            f"too many trials: --trials {trials} is more than {MAX_TRIALS}")
    if trials * size > MAX_RUN_TERMS:
        raise ExpansionTooLargeError(
            f"too many trials: --trials {trials} at --k {k} checks {trials * size} "
            f"expansion terms, more than {MAX_RUN_TERMS}")


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


class ExpansionTerm(NamedTuple):
    """One grouped term of the expansion: a pair of block-size multisets with
    its multiplicative set-partition count."""

    holo_blocks: tuple[int, ...]
    anti_blocks: tuple[int, ...]
    count: int

    @property
    def form_type(self) -> tuple[int, int]:
        return (len(self.holo_blocks), len(self.anti_blocks))


@cache
def expansion_table(k: int) -> tuple[ExpansionTerm, ...]:
    """All grouped terms of the k-th Laplacian power expansion, formed once
    per k in a process (the terms are immutable)."""
    parts = integer_partitions(k)
    return tuple(
        ExpansionTerm(mu, sigma, partition_count(k, mu) * partition_count(k, sigma))
        for mu in parts
        for sigma in parts
    )


def _check_jets(g: CPolynomial, z: CurveJet, k: int):
    if g.truncation is not None and g.truncation < 2 * k:
        raise InsufficientJetError(f"g jet order {g.truncation} < {2 * k}")
    if z.truncation is not None and z.truncation < 2 * k:
        raise InsufficientJetError(f"curve jet order {z.truncation} < {2 * k}")


def laplacian_power_forms(g: CPolynomial, z: CurveJet, k: int,
                          forms: dict | None = None) -> GaussianRational:
    """The k-th Laplacian power of the pullback at 0, via the partition
    expansion over derivative forms.  Agrees exactly with applying the
    operator to the pullback directly.

    forms is derive_forms(g, 2k), or derive_forms(g, M) for any M >= 2k: a
    form of type (a, b) does not depend on M, and this order reads only
    types with a, b <= k.  It is derived here when not given."""
    _check_jets(g, z, k)
    if forms is None:
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


_RANDOM_VALUES = tuple(
    Fraction(v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3)
)
# _RANDOM_COEFFS[i][j] has real part _RANDOM_VALUES[i] and imaginary part
# _RANDOM_VALUES[j], or 0 for the last j.
_RANDOM_COEFFS = tuple(
    tuple(GaussianRational(re, im) for im in _RANDOM_VALUES + (Fraction(0),))
    for re in _RANDOM_VALUES
)


def random_real_polynomial(rng, nvars: int, max_degree: int, nterms: int = 4) -> CPolynomial:
    """Random real-valued polynomial for oracle cross-checks: random mixed
    monomials paired with their conjugates so the result is real by
    construction.

    Every number is drawn from rng.getrandbits by search.draw_below, so rng
    gives the stream, and is left in the state, of drawing each exponent by
    rng.randint(0, max_degree), the real part by rng.choice over the seven
    values and the imaginary part by rng.choice over them and 0: per term,
    the holomorphic then the antiholomorphic exponents, drawn again until
    the degree lies in 1..max_degree, then the real and imaginary parts."""
    if nvars < 1 or max_degree < 1:
        raise ValueError("need nvars >= 1 and max_degree >= 1")
    bits = rng.getrandbits
    span, nre, nim = max_degree + 1, len(_RANDOM_COEFFS), len(_RANDOM_COEFFS[0])
    terms: dict = {}
    for _ in range(nterms):
        while True:
            holo = tuple([draw_below(bits, span) for _ in range(nvars)])
            anti = tuple([draw_below(bits, span) for _ in range(nvars)])
            if 0 < sum(holo) + sum(anti) <= max_degree:
                break
        c = _RANDOM_COEFFS[draw_below(bits, nre)][draw_below(bits, nim)]
        key = (holo, anti)
        terms[key] = terms.get(key, ZERO) + c
        ckey = key_conjugate(key)
        terms[ckey] = terms.get(ckey, ZERO) + c.conjugate()
    p = CPolynomial(nvars, terms)
    return p if not p.is_zero() else CPolynomial.monomial(
        nvars, (1,) + (0,) * (nvars - 1), (1,) + (0,) * (nvars - 1)
    )


class FilteredExpansion(NamedTuple):
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
