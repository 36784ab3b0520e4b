"""Exact arithmetic in the scalar kernel."""

import random

import pytest

from scalars_oracle import NonInvertibleError, invert
from smashtwist.scalars import (
    GaussRational,
    TruncSeries,
    parse_gauss_literal,
    parse_scalar_literal,
    scalar_literals,
)


def series(order, *coeffs):
    return TruncSeries(order, list(coeffs) + [0] * (order + 1 - len(coeffs)))


def rand_gauss(rng):
    from fractions import Fraction
    return GaussRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    )


def rand_series(rng, order):
    return TruncSeries(order, [rand_gauss(rng) for _ in range(order + 1)])


def test_add_examples():
    one_plus_h = series(3, 1, 1)
    one_minus_h = series(3, 1, -1)
    assert one_plus_h + one_minus_h == series(3, 2)
    s = rand_series(random.Random(1), 3)
    assert TruncSeries.zero(3) + s == s
    ih = TruncSeries.h_power(1, 3, GaussRational(0, 1))
    assert ih + ih == TruncSeries.h_power(1, 3, GaussRational(0, 2))


def test_add_order_mismatch():
    with pytest.raises(ValueError):
        series(2, 1) + series(3, 1)


def test_mul_examples():
    # geometric-series inverse at N=3
    assert series(3, 1, 1) * series(3, 1, -1, 1, -1) == TruncSeries.one(3)
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1)
    # truncation kills h * h^N
    h = TruncSeries.h_power(1, 4)
    assert h * TruncSeries.h_power(4, 4) == TruncSeries.zero(4)


def test_series_times_element_defers_to_the_element():
    from smashtwist.modalg import PolyCoord
    from smashtwist.ncpoly import NCPoly
    from smashtwist.registry import materialize

    prob = materialize("heisenberg", order=2)
    h = TruncSeries.h_power(1, 2, GaussRational(3, -1))
    elements = (
        NCPoly.gen(prob.bialg.rs, "P0"),
        PolyCoord.coord(prob.rep.dim, 2, 0),
        prob.smash.h_elem(NCPoly.gen(prob.bialg.rs, "P0")),
    )
    for x in elements:
        assert h * x == x * h
        assert not (h * x).is_zero()
    with pytest.raises(TypeError):
        h * "junk"


def test_invert_examples():
    two = TruncSeries.const(2, 3)
    assert invert(two) == TruncSeries.const("1/2", 3)
    assert invert(series(2, 1, 1)) == series(2, 1, -1, 1)
    with pytest.raises(NonInvertibleError):
        invert(TruncSeries.h_power(1, 3))


def test_ring_axioms_random():
    rng = random.Random(20250)
    for _ in range(60):
        a, b, c = (rand_series(rng, 3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_invert_two_sided_random():
    rng = random.Random(99)
    count = 0
    while count < 25:
        a = rand_series(rng, 4)
        if a.coefficient(0).is_zero():
            continue
        count += 1
        inv = invert(a)
        assert a * inv == TruncSeries.one(4)
        assert inv * a == TruncSeries.one(4)


def test_truncation_consistency():
    rng = random.Random(7)
    for _ in range(25):
        a, b = rand_series(rng, 5), rand_series(rng, 5)
        for m in (0, 2, 4):
            assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
            assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)
        if not a.coefficient(0).is_zero():
            assert invert(a).truncate(3) == invert(a.truncate(3))


def test_literal_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        s = rand_series(rng, 3)
        total = TruncSeries.zero(3)
        for lit in scalar_literals(s):
            total = total + parse_scalar_literal(lit, 3)
        assert total == s


def test_literal_parsing():
    assert parse_scalar_literal("i*h", 2) == TruncSeries.h_power(1, 2, GaussRational(0, 1))
    assert parse_scalar_literal("-1/2*h^2", 3) == TruncSeries.h_power(2, 3, "-1/2")
    assert parse_gauss_literal("-2/3*i") == GaussRational(0, "-2/3")
    with pytest.raises(ValueError):
        parse_scalar_literal("x*h", 2)
    with pytest.raises(ValueError):
        parse_gauss_literal("i*h")
