"""Set-partition expansion of Laplacian powers: combinatorics and oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactps.curve import laplacian_power, pullback
from contactps.expr import parse_curve, parse_expression
from contactps.fdb import (
    MAX_EXPANSION_TERMS,
    MAX_RUN_TERMS,
    MAX_TRIALS,
    ExpansionTooLargeError,
    MultilinearForm,
    MultiplicityMismatchError,
    _orderings,
    check_expansion_size,
    derive_forms,
    expansion_table,
    filtered_expansion,
    integer_partitions,
    laplacian_power_forms,
    partition_count,
    random_real_polynomial,
)
from contactps.search import SearchBudget, random_curves

from conftest import (
    gr,
    laplacian_power_forms_enumerated,
    multilinear_apply_reference,
    random_real_polynomial_reference,
    set_partitions,
)


class TestPartitionCombinatorics:
    def test_integer_partitions(self):
        assert integer_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_partition_count_against_enumeration(self):
        for k in range(1, 7):
            enum = set_partitions(tuple(range(k)))
            for sizes in integer_partitions(k):
                hits = sum(
                    1 for p in enum
                    if tuple(sorted((len(b) for b in p), reverse=True)) == sizes
                )
                assert partition_count(k, sizes) == hits

    def test_known_values(self):
        assert partition_count(3, (2, 1)) == 3
        assert partition_count(4, (2, 2)) == 3
        assert partition_count(6, (3, 3)) == 10

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            partition_count(4, (3, 2))


def test_k3_form_type_multiplicities():
    table = {}
    for term in expansion_table(3):
        table[term.form_type] = table.get(term.form_type, 0) + term.count
    assert table[(1, 1)] == 1
    assert table[(1, 2)] == 3
    assert table[(2, 1)] == 3
    assert table[(2, 2)] == 9


def test_derive_forms_values():
    g = parse_expression("abs2(z1)^2", 1)  # z1^2 conj(z1)^2
    forms = derive_forms(g, 4)
    assert forms[(2, 2)].value((0, 0), (0, 0)) == gr(4)  # 2! * 2! * 1
    assert (1, 1) not in forms


class TestOracleEquivalence:
    def test_single_modulus(self):
        g = parse_expression("abs2(z1)", 1)
        assert laplacian_power_forms(g, parse_curve("(t)"), 1) == gr(1)

    def test_fourth_power(self):
        g = parse_expression("abs2(z1)^2", 1)
        assert laplacian_power_forms(g, parse_curve("(t)"), 2) == gr(4)

    def test_random_against_operator(self, rng):
        for _ in range(40):
            nvars = rng.randint(1, 2)
            g = random_real_polynomial(rng, nvars, 6)
            budget = SearchBudget(max_degree=4, random_trials=1,
                                  seed=rng.randrange(1 << 30))
            z = next(iter(random_curves(nvars, budget)))
            for k in range(1, 4):
                assert laplacian_power_forms(g, z, k) == laplacian_power(
                    pullback(g, z), k
                )

    def test_agreement_on_nonzero_values(self):
        """A Laplacian power at 0 reads the t^k conj(t)^k coefficient of
        the pullback, which a curve of multiplicity m > k pushes past 2k, so
        most random pairs compare zeros.  Along multiplicity-1 curves it
        reads the mixed terms of g of degree <= 2k: the expansion agrees
        with the operator oracle on at least 50 nonzero values, k = 1..3."""
        rng = random.Random(3)
        nonzero = 0
        for _ in range(100):
            nvars = rng.randint(1, 2)
            g = random_real_polynomial(rng, nvars, 4)
            budget = SearchBudget(max_multiplicity=1, max_degree=4, random_trials=1,
                                  seed=rng.randrange(1 << 30))
            z = next(iter(random_curves(nvars, budget)))
            assert z.multiplicity() == 1
            for k in range(1, 4):
                value = laplacian_power(pullback(g, z), k)
                assert laplacian_power_forms(g, z, k) == value
                nonzero += not value.is_zero()
        assert nonzero >= 50

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 1 << 30), nvars=st.integers(1, 2), k=st.integers(1, 4))
    def test_truncated_pullback_gives_every_lower_power(self, seed, nvars, k):
        """fdb-verify pulls back once per trial and truncates at degree 2k:
        for every kk <= k the operator reads the same value off the
        truncated pullback as off the full one."""
        rng = random.Random(seed)
        g = random_real_polynomial(rng, nvars, 6)
        budget = SearchBudget(max_degree=4, random_trials=1, seed=rng.randrange(1 << 30))
        u = pullback(g, next(iter(random_curves(nvars, budget))))
        for kk in range(1, k + 1):
            assert laplacian_power(u.truncate(2 * k), kk) == laplacian_power(u, kk)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 1 << 30), nvars=st.integers(1, 2), k=st.integers(1, 4))
    def test_pullback_of_the_2k_jet_gives_every_lower_power(self, seed, nvars, k):
        """fdb-verify pulls back only the terms of g of degree <= 2k: the
        operator reads the same value for every kk <= k as off the full
        pullback."""
        rng = random.Random(seed)
        g = random_real_polynomial(rng, nvars, 6)
        z = next(iter(random_curves(nvars, SearchBudget(max_degree=4, random_trials=1,
                                                        seed=rng.randrange(1 << 30)))))
        u = pullback(g.truncate(2 * k), z).truncate(2 * k)
        for kk in range(1, k + 1):
            assert laplacian_power(u, kk) == laplacian_power(pullback(g, z), kk)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 1 << 30), nvars=st.integers(1, 2), k=st.integers(1, 4))
    def test_forms_of_degree_2k_serve_every_lower_power(self, seed, nvars, k):
        """fdb-verify derives the forms of degree <= 2k once per drawn g:
        every kk <= k reads the same value off them as off its own
        derive_forms(g, 2kk)."""
        rng = random.Random(seed)
        g = random_real_polynomial(rng, nvars, 6)
        z = next(iter(random_curves(nvars, SearchBudget(max_degree=4, random_trials=1,
                                                        seed=rng.randrange(1 << 30)))))
        forms = derive_forms(g, 2 * k)
        for kk in range(1, k + 1):
            assert laplacian_power_forms(g, z, kk, forms) == laplacian_power_forms(g, z, kk)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 1 << 30), nvars=st.integers(1, 2), k=st.integers(1, 4))
    def test_pullback_along_the_2k_jet_of_the_curve(self, seed, nvars, k):
        """fdb-verify pulls back along the components of z truncated at 2k
        (when z's multiplicity is at most 2k): the pullback has the same
        terms through degree 2k, and the same truncation, as along z."""
        rng = random.Random(seed)
        g = random_real_polynomial(rng, nvars, 6)
        z = next(iter(random_curves(nvars, SearchBudget(max_multiplicity=4, max_degree=4,
                                                        random_trials=1,
                                                        seed=rng.randrange(1 << 30)))))
        if z.multiplicity() > 2 * k:
            return
        gk = g.truncate(2 * k)
        u = pullback(gk, z.truncate(2 * k)).truncate(2 * k)
        assert u == pullback(gk, z).truncate(2 * k) == pullback(g, z).truncate(2 * k)


    def test_grouped_against_enumerated(self, rng):
        for _ in range(10):
            g = random_real_polynomial(rng, 2, 5)
            budget = SearchBudget(max_degree=3, random_trials=1,
                                  seed=rng.randrange(1 << 30))
            z = next(iter(random_curves(2, budget)))
            for k in range(1, 4):
                assert laplacian_power_forms(g, z, k) == \
                    laplacian_power_forms_enumerated(g, z, k)


class TestFilteredExpansion:
    def test_coefficient_law(self):
        expected = {1: (1, 1, 1, 1), 2: (1, 3, 3, 9), 3: (1, 10, 10, 100)}
        g = parse_expression("abs2(z1 + z2^2)^2", 2)
        for m, coeffs in expected.items():
            z = parse_curve(f"(t^{m}, t^{m} + t^{2 * m})")
            fe = filtered_expansion(g, z)
            assert fe.coefficients == coeffs
            assert fe.lam == coeffs[1]
            assert fe.total == fe.oracle

    def test_conjugate_pairing_keeps_total_real(self, rng):
        for _ in range(10):
            g = random_real_polynomial(rng, 2, 6)
            z = parse_curve("(t^2 + i*t^4, t^2 - t^3)")
            fe = filtered_expansion(g, z)
            assert fe.total.is_real()
            # the (1,2) and (2,1) contributions are conjugates
            by_type = {t.form_type: v for t, v in fe.terms}
            assert by_type[(1, 2)] == by_type[(2, 1)].conjugate()

    def test_multiplicity_mismatch(self):
        g = parse_expression("abs2(z1)^2", 2)
        with pytest.raises(MultiplicityMismatchError):
            filtered_expansion(g, parse_curve("(t^2, 0)"), m=3)


def test_the_expansion_size_limit_falls_between_17_and_18():
    """expansion_table(k) holds P(k)^2 terms: 297^2 at k = 17, within
    MAX_EXPANSION_TERMS, and 385^2 at k = 18, above it."""
    assert len(integer_partitions(17)) ** 2 <= MAX_EXPANSION_TERMS < len(integer_partitions(18)) ** 2
    check_expansion_size(17)
    with pytest.raises(ExpansionTooLargeError):
        check_expansion_size(18)


def test_the_trials_limits_bound_a_run():
    """A run takes at most MAX_TRIALS trials and checks at most MAX_RUN_TERMS
    terms, trials * P(k)^2: the default 20 trials stay within both at every
    k up to 17, and so do the bench's --k 3 --trials 3 and every run of the
    tests."""
    assert 20 * len(integer_partitions(17)) ** 2 <= MAX_RUN_TERMS
    for k in range(1, 18):
        check_expansion_size(k, 20)
    check_expansion_size(3, MAX_TRIALS)
    check_expansion_size(17, MAX_RUN_TERMS // 297 ** 2)
    check_expansion_size(0, 1)
    check_expansion_size(-1, 1)
    for k, trials in ((3, MAX_TRIALS + 1), (1, MAX_TRIALS + 1),
                      (17, MAX_RUN_TERMS // 297 ** 2 + 1), (10, MAX_RUN_TERMS // 42 ** 2 + 1)):
        with pytest.raises(ExpansionTooLargeError, match="too many trials"):
            check_expansion_size(k, trials)


def test_expansion_table_is_formed_once_per_order():
    table = expansion_table(4)
    assert isinstance(table, tuple) and expansion_table(4) is table
    assert sum(t.count for t in table) == sum(1 for _ in set_partitions(tuple(range(4)))) ** 2


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 1 << 32), nvars=st.integers(1, 3), max_degree=st.integers(1, 7),
       nterms=st.integers(0, 6), draws=st.integers(1, 5))
def test_random_real_polynomial_keeps_the_stream(seed, nvars, max_degree, nterms, draws):
    """Drawn straight from getrandbits, random_real_polynomial gives the
    polynomials, in their term order, of drawing through randint and
    choice, and leaves the generator in the same state."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        got = random_real_polynomial(rng, nvars, max_degree, nterms)
        expected = random_real_polynomial_reference(ref, nvars, max_degree, nterms)
        assert got == expected
        assert list(got.terms.items()) == list(expected.terms.items())
    assert rng.getstate() == ref.getstate()


def test_random_real_polynomial_rejects_an_empty_degree_range():
    with pytest.raises(ValueError):
        random_real_polynomial(random.Random(0), 2, 0)


_SCALARS = st.builds(gr, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def _forms_and_vectors(draw):
    """A form of type (a, b), a, b <= 5, in 1-3 variables whose entries
    have repeated indices, and a + b vectors to apply it to."""
    nvars, a, b = draw(st.integers(1, 3)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    index = st.integers(0, nvars - 1)
    keys = draw(st.lists(st.tuples(st.lists(index, min_size=a, max_size=a),
                                   st.lists(index, min_size=b, max_size=b)),
                         min_size=1, max_size=4))
    entries = {(tuple(sorted(h)), tuple(sorted(t))): draw(_SCALARS) for h, t in keys}
    vector = st.lists(_SCALARS, min_size=nvars, max_size=nvars)
    return (MultilinearForm(a, b, nvars, tuple(sorted(entries.items()))),
            [draw(vector) for _ in range(a)], [draw(vector) for _ in range(b)])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=_forms_and_vectors())
def test_apply_sums_the_orderings_of_each_entry(case):
    """Summing each entry over the distinct orderings of its index tuples
    gives what the sum over all nvars^(a+b) index tuples gives."""
    form, holo, anti = case
    assert form.apply(holo, anti) == multilinear_apply_reference(form, holo, anti)


@pytest.mark.parametrize("key", [(), (0,), (0, 1, 2), (0, 0, 1, 1, 2), (1, 1, 1, 1, 1)])
def test_orderings_are_the_distinct_permutations(key):
    """_orderings forms each distinct ordering of a sorted key once, in
    lexicographic order: 30 for (0, 0, 1, 1, 2), 1 for (1, 1, 1, 1, 1)."""
    assert _orderings(key) == tuple(sorted(set(itertools.permutations(key))))
