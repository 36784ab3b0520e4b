"""Differential properties: the PBW kernel against its all-pairs oracle.

The production product buckets the right factor by lowest h-order and never
forms a pair whose orders sum past the truncation order; the rewrite sorts a
word by leg before it rewrites; the Jacobi check reads double commutators off
a table of generator brackets.  tests/ncpoly_oracle.py keeps the loops these
replaced, and every result here must agree with it exactly: the same terms,
the same coefficients, the same string form.  Polynomials have one, two or
three legs over every preset alphabet, at orders 0-5, with coefficients of
mixed valuation, many of them not monomials, so that about a third of the
pairs of terms truncate.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncpoly_oracle as ref
from smashtwist.ncpoly import NCPoly, RewriteSystem
from smashtwist.registry import PRESET_NAMES, preset
from smashtwist.scalars import GaussRational, TruncSeries

kernel_settings = settings(max_examples=150, deadline=None)

orders = st.integers(0, 5)
rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7)))
nonzero_gauss = st.builds(GaussRational, rationals, rationals).filter(
    lambda g: not g.is_zero()
)


@functools.cache
def preset_rs(name, order):
    pre = preset(name)
    return RewriteSystem(order, pre.generators, pre.brackets)


def leg_tags(nlegs):
    return (0,) if nlegs == 1 else tuple(range(1, nlegs + 1))


@st.composite
def coefficients(draw, order):
    """A nonzero series of valuation uniform in 0..order, often with more
    h-powers above it, so that many pairs of terms truncate."""
    low = draw(st.integers(0, order))
    powers = {low} | set(draw(st.lists(st.integers(low, order), max_size=2)))
    data = {k: draw(nonzero_gauss) for k in sorted(powers)}
    return TruncSeries._from_data(order, data)


@st.composite
def normal_words(draw, rs, nlegs):
    """A normal-ordered word: the legs in order, each leg's ranks sorted."""
    rank = st.integers(0, len(rs.generators) - 1)
    word = ()
    for leg in leg_tags(nlegs):
        ranks = sorted(draw(st.lists(rank, max_size=3 if nlegs == 1 else 2)))
        word += tuple((leg, r) for r in ranks)
    return word


@st.composite
def polys(draw, rs, nlegs):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        terms[draw(normal_words(rs, nlegs))] = draw(coefficients(rs.order))
    return NCPoly(rs, nlegs, terms)


@st.composite
def poly_pairs(draw):
    rs = preset_rs(draw(st.sampled_from(PRESET_NAMES)), draw(orders))
    nlegs = draw(st.sampled_from((1, 2, 3)))
    return draw(polys(rs, nlegs)), draw(polys(rs, nlegs))


def assert_same_poly(got, want):
    assert got.nlegs == want.nlegs
    assert got.terms == want.terms
    assert all(not c.is_zero() for c in got.terms.values())
    assert repr(got) == repr(want)


@kernel_settings
@given(poly_pairs())
def test_product_matches_all_pairs_reference(pair):
    p, q = pair
    assert_same_poly(p * q, ref.mul(p, q))
    assert_same_poly(q * p, ref.mul(q, p))


@kernel_settings
@given(poly_pairs(), st.data())
def test_triple_product_matches_reference(pair, data):
    p, q = pair
    r = data.draw(polys(p.rs, p.nlegs))
    assert_same_poly((p * q) * r, ref.mul(ref.mul(p, q), r))


def test_zero_coefficient_contributes_nothing():
    rs = preset_rs("igl2-abelian", 3)
    word = ((0, rs.rank_of["P0"]),)
    zero = NCPoly(rs, 1, {word: TruncSeries.zero(3), (): TruncSeries.h_power(1, 3)})
    x = NCPoly.gen(rs, "L01").scale(TruncSeries.h_power(2, 3, 5))
    assert_same_poly(zero * x, ref.mul(zero, x))
    assert_same_poly(x * zero, ref.mul(x, zero))
    assert (zero * x) == x.scale(TruncSeries.h_power(1, 3))


@st.composite
def shuffled_words(draw):
    """A multi-leg word with its legs interleaved at random.

    Returns the rewrite system, the interleaved word and the same letters
    stable-sorted by leg.
    """
    rs = preset_rs(draw(st.sampled_from(PRESET_NAMES)), draw(orders))
    nlegs = draw(st.sampled_from((1, 2, 3)))
    rank = st.integers(0, len(rs.generators) - 1)
    per_leg = [
        [(leg, r) for r in draw(st.lists(rank, max_size=4))] for leg in leg_tags(nlegs)
    ]
    sorted_word = tuple(letter for leg in per_leg for letter in leg)
    heads = [0] * len(per_leg)
    word = []
    while len(word) < len(sorted_word):
        live = [i for i, leg in enumerate(per_leg) if heads[i] < len(leg)]
        i = draw(st.sampled_from(live))
        word.append(per_leg[i][heads[i]])
        heads[i] += 1
    return rs, tuple(word), sorted_word


@kernel_settings
@given(shuffled_words())
def test_normalize_word_of_shuffled_legs_matches_unsorted_rewrite(case):
    rs, word, sorted_word = case
    got = rs.normalize_word(word)
    assert got == ref.normalize_word(rs, word)
    assert got == rs.normalize_word(sorted_word)
    assert all(not c.is_zero() for c in got.values())


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("order", (0, 2))
def test_jacobi_residuals_match_commutator_form(name, order):
    rs = preset_rs(name, order)
    assert rs.jacobi_residuals() == ref.jacobi_residuals(rs) == []


def assert_same_residuals(got, want):
    assert [(a, b, c) for a, b, c, _ in got] == [(a, b, c) for a, b, c, _ in want]
    for (*_, g), (*_, w) in zip(got, want):
        assert_same_poly(g, w)


def test_jacobi_residuals_of_a_broken_system_match():
    pre = preset("igl2-abelian")
    bad = dict(pre.brackets)
    bad[("L00", "L01")] = ((1, "L01"), (1, "P0"))
    bad[("L10", "P1")] = (("h", "P0"), ("1/2*h^2", None), ("i*h", "L11"))
    rs = RewriteSystem(2, pre.generators, bad, validate=False)
    got = rs.jacobi_residuals()
    assert got
    assert_same_residuals(got, ref.jacobi_residuals(rs))


literals = st.sampled_from(("1", "-1", "2", "i", "h", "-h", "1/2*h^2", "3*i*h^2", "h^3"))


@st.composite
def broken_systems(draw):
    """A preset alphabet with some brackets replaced at random, unvalidated."""
    pre = preset(draw(st.sampled_from(("heisenberg", "igl2-abelian", "pw-jordanian"))))
    names = [name for name, _ in pre.generators]
    brackets = dict(pre.brackets)
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        brackets.pop((b, a), None)
        brackets[(a, b)] = tuple(
            (draw(literals), draw(st.one_of(st.none(), st.sampled_from(names))))
            for _ in range(draw(st.integers(0, 2)))
        )
    return RewriteSystem(draw(st.integers(0, 3)), pre.generators, brackets, validate=False)


@settings(max_examples=40, deadline=None)
@given(broken_systems())
def test_jacobi_residuals_of_random_broken_systems_match(rs):
    assert_same_residuals(rs.jacobi_residuals(), ref.jacobi_residuals(rs))
