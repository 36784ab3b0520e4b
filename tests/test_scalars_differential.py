"""Differential properties: the integer scalar kernel against its Fraction oracle.

Every value is built twice from the same rational parts, once in
smashtwist.scalars and once in tests/scalars_oracle.py (the Fraction-based
kernel the package used before), and each operation, query, string form and
literal must agree exactly.  Series run over orders 0-6 with mixed
denominators and many zero coefficients, so the unit, zero and
monomial-times-monomial fast paths are hit as well as the general product.
"""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalars_oracle as ref
from smashtwist import scalars as new

DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 7, 11, 12, 22)

kernel_settings = settings(max_examples=150, deadline=None)

rationals = st.builds(
    Fraction, st.integers(-15, 15), st.sampled_from(DENOMINATORS)
)
parts = st.one_of(
    st.just((Fraction(0), Fraction(0))),
    st.just((Fraction(1), Fraction(0))),
    st.tuples(rationals, rationals),
    st.tuples(rationals, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), rationals),
)
orders = st.integers(0, 6)


def coeff_lists(order):
    """Coefficient parts of one series; about half the slots are zero."""
    slot = st.one_of(st.just((Fraction(0), Fraction(0))), parts)
    return st.lists(slot, min_size=order + 1, max_size=order + 1)


@st.composite
def series_pairs(draw, count=2):
    """`count` series of one order, each as (new, oracle)."""
    order = draw(orders)
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(("dense", "monomial", "unit", "zero")))
        if kind == "dense":
            coeffs = draw(coeff_lists(order))
        elif kind == "monomial":
            k = draw(st.integers(0, order))
            value = draw(parts)
            coeffs = [(Fraction(0), Fraction(0))] * (order + 1)
            coeffs[k] = value
        elif kind == "unit":
            coeffs = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * order
        else:
            coeffs = [(Fraction(0), Fraction(0))] * (order + 1)
        out.append((
            new.TruncSeries(order, [new.GaussRational(re, im) for re, im in coeffs]),
            ref.TruncSeries(order, [ref.GaussRational(re, im) for re, im in coeffs]),
        ))
    return out


def gauss_pair(re_im):
    re, im = re_im
    return new.GaussRational(re, im), ref.GaussRational(re, im)


def assert_gauss_same(g, r):
    assert g.__class__ is new.GaussRational
    assert (g.re, g.im) == (r.re, r.im)
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1


def assert_series_same(s, r):
    assert s.__class__ is new.TruncSeries
    assert s.order == r.order
    assert sorted(s.data) == sorted(r.data)
    for k, c in s.data.items():
        assert not c.is_zero()
        assert_gauss_same(c, r.data[k])


# -- Gaussian rationals -----------------------------------------------------


@kernel_settings
@given(parts, parts)
def test_gauss_ring_operations_match(x, y):
    (g1, r1), (g2, r2) = gauss_pair(x), gauss_pair(y)
    assert_gauss_same(g1 + g2, r1 + r2)
    assert_gauss_same(g1 - g2, r1 - r2)
    assert_gauss_same(g1 * g2, r1 * r2)
    assert_gauss_same(-g1, -r1)
    assert (g1 == g2) == (r1 == r2)
    assert g1.is_zero() == r1.is_zero()
    assert hash(g1) == hash(new.GaussRational(*x))


@kernel_settings
@given(parts, st.one_of(st.integers(-5, 5), rationals))
def test_gauss_mixed_operands_match(x, q):
    g, r = gauss_pair(x)
    assert_gauss_same(g + q, r + q)
    assert_gauss_same(q + g, q + r)
    assert_gauss_same(g - q, r - q)
    assert_gauss_same(g * q, r * q)
    assert_gauss_same(q * g, q * r)
    assert (g == q) == (r == q)


@kernel_settings
@given(parts)
def test_gauss_strings_match(x):
    g, r = gauss_pair(x)
    assert str(g) == str(r)
    assert repr(g) == repr(r)


def test_gauss_constructor_inputs_match():
    for args in ((), (3,), ("-2/6",), (Fraction(4, 6), "3/9"), (0, -1), (True, 2)):
        assert_gauss_same(new.GaussRational(*args), ref.GaussRational(*args))
    with pytest.raises(TypeError):
        new.GaussRational(0.5)
    with pytest.raises(TypeError):
        new.GaussRational.coerce(1.0)


@kernel_settings
@given(st.one_of(st.integers(-10, 10), st.integers(), st.integers(-10**40, 10**40),
                 st.sampled_from((0, -1, 1, -(2**70), 3**50, True, False))))
def test_int_coercion_matches(n):
    assert_gauss_same(new.GaussRational.coerce(n), ref.GaussRational.coerce(n))
    assert_series_same(new.TruncSeries.const(n, 2), ref.TruncSeries.const(n, 2))


# -- truncated series -------------------------------------------------------


@kernel_settings
@given(series_pairs())
def test_series_ring_operations_match(pair):
    (s, r), (t, q) = pair
    assert_series_same(s + t, r + q)
    assert_series_same(s - t, r - q)
    assert_series_same(-s, -r)
    assert_series_same(s * t, r * q)
    assert (s == t) == (r == q)
    if s == t:
        assert hash(s) == hash(t)


@kernel_settings
@given(series_pairs(count=1), parts, st.integers(-4, 4), rationals)
def test_series_scaling_matches(pair, x, n, f):
    ((s, r),) = pair
    g, gr = gauss_pair(x)
    assert_series_same(s.scale(g), r.scale(gr))
    assert_series_same(s.scale(n), r.scale(n))
    assert_series_same(s.scale(f), r.scale(f))
    assert_series_same(s * g, r * gr)
    assert_series_same(s * n, n * r)
    assert_series_same(s * f, r * f)
    assert (s == g) == (r == gr)
    assert (s == n) == (r == n)


@kernel_settings
@given(series_pairs(count=1))
def test_series_invert_matches(pair):
    ((s, r),) = pair
    if r.coefficient(0).is_zero():
        with pytest.raises(ref.NonInvertibleError):
            ref.invert(s)
    else:
        assert_series_same(ref.invert(s), r.invert())


@kernel_settings
@given(series_pairs(count=1))
def test_series_queries_match(pair):
    ((s, r),) = pair
    for k in range(s.order + 2):
        assert_gauss_same(s.coefficient(k), r.coefficient(k))
    assert s.lowest_order() == r.lowest_order()
    assert s.is_zero() == r.is_zero()


@kernel_settings
@given(series_pairs(count=1))
def test_series_strings_and_literals_match(pair):
    ((s, r),) = pair
    assert str(s) == str(r)
    assert repr(s) == repr(r)
    # the kernel parses the oracle's decomposition back into the series
    literals = ref.scalar_literals(r)
    total = new.TruncSeries.zero(s.order)
    for lit in literals:
        parsed = new.parse_scalar_literal(lit, s.order)
        assert_series_same(parsed, ref.parse_scalar_literal(lit, s.order))
        total = total + parsed
    assert total == s


def test_series_order_mismatch_raises():
    a, b = new.TruncSeries.zero(2), new.TruncSeries.one(3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        a * "x"
