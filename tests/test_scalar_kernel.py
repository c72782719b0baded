"""Property tests of the integer Gaussian-rational kernel.

Every operation of GaussianRational is checked against a plain
(Fraction, Fraction) reference, and every result against the invariants of
the (a + b*i)/d representation: d > 0, gcd(a, b, d) = 1, zero is (0, 0, 1).
This is the one module besides algebra.py that reads the private fields,
because the invariants are statements about them.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactps.algebra import ONE, ZERO, GaussianRational

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

parts = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)
pairs = st.tuples(parts, parts)


def _fields(x: GaussianRational) -> tuple[int, int, int]:
    return x._a, x._b, x._d


def _check_canonical(x: GaussianRational) -> None:
    a, b, d = _fields(x)
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert (a, b, d) == (0, 0, 1)


def _agrees(x: GaussianRational, ref: tuple[Fraction, Fraction]) -> None:
    _check_canonical(x)
    assert (x.re, x.im) == ref
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert x == GaussianRational(*ref)


def _ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _ref_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


@SETTINGS
@given(p=pairs)
def test_construction_and_unary_ops(p):
    x = GaussianRational(*p)
    _agrees(x, p)
    _agrees(-x, (-p[0], -p[1]))
    _agrees(x.conjugate(), (p[0], -p[1]))
    assert x.norm2() == p[0] * p[0] + p[1] * p[1]
    assert type(x.norm2()) is Fraction
    assert x.is_zero() == (p == (0, 0))
    assert x.is_real() == (p[1] == 0)


@SETTINGS
@given(a=st.integers(-10**20, 10**20), b=st.integers(-10**20, 10**20))
def test_int_and_fraction_constructors_agree(a, b):
    x = GaussianRational(a, b)
    _agrees(x, (Fraction(a), Fraction(b)))
    assert x == GaussianRational(Fraction(a), Fraction(b))
    assert hash(x) == hash(GaussianRational(Fraction(a), Fraction(b)))


@SETTINGS
@given(p=pairs, q=pairs)
def test_binary_ops(p, q):
    x, y = GaussianRational(*p), GaussianRational(*q)
    _agrees(x + y, (p[0] + q[0], p[1] + q[1]))
    _agrees(x - y, (p[0] - q[0], p[1] - q[1]))
    _agrees(x * y, _ref_mul(p, q))
    if q == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _agrees(x / y, _ref_div(p, q))
        _agrees(x / y * y, p)


@SETTINGS
@given(p=pairs, k=st.integers(-5, 7))
def test_pow(p, k):
    x = GaussianRational(*p)
    if k < 0 and p == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    ref = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        ref = _ref_mul(ref, p)
    if k < 0:
        ref = _ref_div((Fraction(1), Fraction(0)), ref)
    _agrees(x ** k, ref)


@SETTINGS
@given(p=pairs, q=pairs)
def test_equality_and_hash(p, q):
    x, y = GaussianRational(*p), GaussianRational(*q)
    assert (x == y) == (p == q)
    assert (x != y) == (p != q)
    if x == y:
        assert hash(x) == hash(y)
    # The same value reached by arithmetic is equal and hashes equal.
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)


def test_constants_and_immutability():
    assert _fields(ZERO) == (0, 0, 1)
    assert _fields(ONE) == (1, 0, 1)
    assert _fields(GaussianRational(Fraction(2, 4), Fraction(-1, 6))) == (3, -1, 6)
    assert GaussianRational(1) != 1
    x = GaussianRational(Fraction(1, 2), 3)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert (x.re, x.im) == (Fraction(1, 2), Fraction(3))
