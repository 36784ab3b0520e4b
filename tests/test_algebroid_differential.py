"""Differential properties: the n-fold canonicalizer against its oracles.

One canonicalizer, ``Bialgebroid.tensor_from_pairs(items, nlegs)``, reduces
raw sums of n-fold products to the canonical form of the tensor power over
the base, for every leg count.  tests/algebroid_oracle.py keeps the separate
two-leg and three-leg canonicalizers it replaced, and the three-leg product
built on them; every result here must agree with them exactly: the same
terms, the same coefficients, in the same order, so the same report bytes.
Items are random sums of basis elements over every preset at N=2, on the
undeformed, the twisted-smash and the xu-twisted bialgebroid, with
coefficients of every h-order up to h^N, with and without an item
coefficient.
"""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import algebroid_oracle as ref
from smashtwist.algebroid import (
    TensorOverA, bm_bialgebroid, bm_bialgebroid_twisted, shift_twist, xu_twist,
)
from smashtwist.modalg import monomials_up_to
from smashtwist.registry import PRESET_NAMES, materialize
from smashtwist.scalars import GaussRational, TruncSeries
from smashtwist.smash import SmashElem, spanning_words

ORDER = 2
canon_settings = settings(max_examples=60, deadline=None)

rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 7)))
gauss = st.builds(GaussRational, rationals, st.sampled_from((0, 0, 1, Fraction(-1, 2))))


@functools.cache
def bialgebroids(name):
    """The three bialgebroids of a preset, and the basis keys factors use."""
    prob = materialize(name, order=ORDER, degree=1)
    smash = prob.smash
    bd0 = bm_bialgebroid(smash)
    bds = (bd0, bm_bialgebroid_twisted(smash, prob.twist),
           xu_twist(bd0, shift_twist(bd0, prob.twist)))
    keys = [(e, w) for e in monomials_up_to(smash.dim, 2) for w in spanning_words(smash.rs, 1)]
    return bds, keys


@st.composite
def coefficients(draw):
    """A nonzero series: one to three h-powers, h^N among the choices."""
    powers = draw(st.sets(st.integers(0, ORDER), min_size=1, max_size=3))
    out = TruncSeries.zero(ORDER)
    for k in sorted(powers):
        out = out + TruncSeries.h_power(k, ORDER, draw(gauss))
    return out


@st.composite
def factors(draw, smash, keys):
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    return SmashElem(smash, {key: draw(coefficients()) for key in chosen})


@st.composite
def cases(draw, nlegs):
    """(bialgebroid, items) with items (f_1, ..., f_n, c), c a drawn series or one."""
    bds, keys = bialgebroids(draw(st.sampled_from(PRESET_NAMES)))
    bd = draw(st.sampled_from(bds))
    items = []
    for _ in range(draw(st.integers(0, 4))):
        item = tuple(draw(factors(bd.smash, keys)) for _ in range(nlegs))
        item += (draw(coefficients()) if draw(st.booleans()) else bd.smash.rs.unit,)
        items.append(item)
    return bd, items


def assert_same(new, old, nlegs):
    assert new.nlegs == old.nlegs == nlegs
    assert new.terms == old.terms
    assert list(new.terms) == list(old.terms)  # same term order, so same bytes


@canon_settings
@given(cases(2))
def test_two_leg_canonical_form_matches_oracle(case):
    bd, items = case
    assert_same(bd.tensor_from_pairs(items), ref.tensor_from_pairs(bd, items), 2)


@canon_settings
@given(cases(3))
def test_three_leg_canonical_form_matches_oracle(case):
    bd, items = case
    assert_same(bd.tensor_from_pairs(items, 3), ref.tensor_from_triples(bd, items), 3)


@st.composite
def canonical_tensors(draw, bd, keys, nlegs):
    """A canonical n-leg tensor: any left basis key, pure words after it."""
    words = [w for e, w in keys if not any(e)]
    out = {}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys)) + tuple(
            draw(st.sampled_from(words)) for _ in range(nlegs - 1))
        out[key] = draw(coefficients())
    return TensorOverA(bd, nlegs, out)


@canon_settings
@given(st.data())
def test_three_leg_product_matches_oracle(data):
    bds, keys = bialgebroids(data.draw(st.sampled_from(PRESET_NAMES)))
    bd = data.draw(st.sampled_from(bds))
    S, T = (data.draw(canonical_tensors(bd, keys, 3)) for _ in range(2))
    assert_same(S.mul(T), ref.mul3(S, T), 3)
