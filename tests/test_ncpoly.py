"""PBW rewriting kernel: normal forms, confluence, leg bookkeeping."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smashtwist.ncpoly import NCPoly, RewriteSystem, _inversions
from smashtwist.registry import PRESET_NAMES, presentation, preset, twist_exponent
from smashtwist.scalars import TruncSeries


def igl2_rs(order=3):
    return RewriteSystem(order, *presentation(preset("igl2-abelian")))


def test_generator_order_blocks():
    rs = igl2_rs()
    sorts = [g.sort for g in rs.generators]
    assert sorts == ["symmetry"] * 4 + ["momentum"] * 2


def test_normal_form_commuting_momenta():
    rs = igl2_rs()
    p0, p1 = NCPoly.gen(rs, "P0"), NCPoly.gen(rs, "P1")
    assert p1 * p0 == p0 * p1
    assert NCPoly.from_word(rs, ["P1", "P0"]) == NCPoly.from_word(rs, ["P0", "P1"])


def test_normal_form_momentum_past_symmetry():
    rs = igl2_rs()
    # P1 L01 = L01 P1 + [P1, L01] = L01 P1 - P0
    got = NCPoly.from_word(rs, ["P1", "L01"])
    want = NCPoly.from_word(rs, ["L01", "P1"]) - NCPoly.gen(rs, "P0")
    assert got == want


def test_sorted_word_is_fixed():
    rs = igl2_rs()
    p = NCPoly.from_word(rs, ["L01", "P1"])
    assert len(p.terms) == 1
    assert next(iter(p.terms.values())) == TruncSeries.one(rs.order)


def test_mul_unit_and_block_order():
    rs = igl2_rs()
    one = NCPoly.one(rs)
    p = NCPoly.from_word(rs, ["L00", "P0"])
    assert one * p == p and p * one == p
    # symmetry sort precedes momentum sort, so this product is already normal
    lb, pn = NCPoly.gen(rs, "L10"), NCPoly.gen(rs, "P1")
    assert lb * pn == NCPoly.from_word(rs, ["L10", "P1"])


def test_mul_associativity_random_words():
    rs = igl2_rs()
    rng = random.Random(424)
    names = [g.name for g in rs.generators]
    for _ in range(30):
        u, v, w = (
            NCPoly.from_word(rs, [rng.choice(names) for _ in range(rng.randint(1, 3))])
            for _ in range(3)
        )
        assert (u * v) * w == u * (v * w)


def test_exp_truncated():
    rs = igl2_rs(order=2)
    assert NCPoly.zero(rs, 2).exp_truncated() == NCPoly.one(rs, 2)
    x = NCPoly.gen(rs, "P0").scale(TruncSeries.h_power(1, 2))
    expx = x.exp_truncated()
    want = (
        NCPoly.one(rs)
        + x
        + (x * x).scale("1/2")
    )
    assert expx == want
    with pytest.raises(ValueError):
        NCPoly.gen(rs, "P0").exp_truncated()


def test_exp_inverse_two_leg():
    rs = igl2_rs(order=3)
    rng = random.Random(11)
    names = [g.name for g in rs.generators]
    for _ in range(5):
        t = NCPoly.zero(rs, 2)
        for _ in range(2):
            left = NCPoly.gen(rs, rng.choice(names), leg=1, nlegs=2)
            right = NCPoly.gen(rs, rng.choice(names), leg=2, nlegs=2)
            t = t + (left * right).scale(TruncSeries.h_power(1, 3, rng.randint(-2, 2)))
        assert t.exp_truncated() * (-t).exp_truncated() == NCPoly.one(rs, 2)


def test_commutator_examples():
    rs = igl2_rs()
    x = NCPoly.from_word(rs, ["L01", "P0"])
    assert x.commutator(x).is_zero()
    # structure constants: [L01, L10] = L00 - L11
    got = NCPoly.gen(rs, "L01").commutator(NCPoly.gen(rs, "L10"))
    assert got == NCPoly.gen(rs, "L00") - NCPoly.gen(rs, "L11")
    # the spatial trace commutes with P0: this underlies the abelian twist
    trace = NCPoly.gen(rs, "L11")
    assert NCPoly.gen(rs, "P0").commutator(trace).is_zero()


def test_leg_embed():
    rs = igl2_rs()
    x = NCPoly.gen(rs, "P0")
    emb = x.place_legs((2,), 3)
    assert list(emb.terms) == [((), (rs.rank_of["P0"],), ())]
    assert NCPoly.one(rs).place_legs((2,), 3) == NCPoly.one(rs, 3)
    with pytest.raises(ValueError):
        x.place_legs((4,), 3)


def test_twist_leg_placements_differ():
    rs = igl2_rs()
    t = twist_exponent(preset("igl2-abelian"), rs)
    f = t.exp_truncated()
    assert f.place_legs((1, 2), 3) != f.place_legs((2, 3), 3)


def test_cross_leg_commutativity():
    rs = igl2_rs()
    rng = random.Random(5)
    names = [g.name for g in rs.generators]
    for _ in range(10):
        p = NCPoly.from_word(
            rs, [rng.choice(names) for _ in range(2)], nlegs=2, leg=1
        )
        q = NCPoly.from_word(
            rs, [rng.choice(names) for _ in range(2)], nlegs=2, leg=2
        )
        assert p * q == q * p


def test_confluence_all_length3_words():
    from conftest import normalize_rightmost

    rs = igl2_rs()
    n = len(rs.generators)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                word = ((a, b, c),)
                assert rs.normalize_word(word) == normalize_rightmost(rs, word)


def test_rewriting_never_raises_length():
    rs = igl2_rs()
    rng = random.Random(77)
    names = [g.name for g in rs.generators]
    for _ in range(20):
        length = rng.randint(2, 5)
        word = (tuple(rs.rank_of[rng.choice(names)] for _ in range(length)),)
        for (w,) in rs.normalize_word(word):
            assert len(w) <= length
            assert _inversions(w) == 0


def test_jacobi_validation():
    gens, bad = presentation(preset("igl2-abelian"))
    # corrupt one structure constant
    bad[("L00", "L01")] = ((1, "L01"), (1, "P0"))
    rs = RewriteSystem(2, gens, bad)
    assert rs.jacobi_residuals()


def test_bracket_antisymmetry_storage():
    rs = igl2_rs()
    # brackets given in either orientation agree up to sign
    for (na, nb) in (("L01", "L10"), ("L00", "P0")):
        assert rs.bracket(na, nb) == -(rs.bracket(nb, na))


def test_duplicate_bracket_rejected():
    gens, bad = presentation(preset("igl2-abelian"))
    bad[("P0", "L00")] = ((-1, "P0"),)
    with pytest.raises(ValueError, match="twice"):
        RewriteSystem(2, gens, bad)


def test_unknown_generator_rejected():
    rs = igl2_rs()
    with pytest.raises(KeyError):
        NCPoly.gen(rs, "Q7")


# -- properties of the rewriting (hypothesis) -----------------------------

letters = st.tuples(st.integers(0, 2), st.integers(0, 23))


@settings(max_examples=300, deadline=None)
@given(st.lists(letters, min_size=2, max_size=10), st.data())
def test_swapping_a_descent_lowers_inversions_by_one(word, data):
    # the termination measure of normalize_word's swap step
    word = tuple(word)
    descents = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if not descents:
        assert _inversions(word) == 0
        return
    i = data.draw(st.sampled_from(descents))
    swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
    assert _inversions(swapped) == _inversions(word) - 1


@functools.cache
def _preset_rs(name):
    return RewriteSystem(2, *presentation(preset(name)))


@st.composite
def preset_words(draw):
    name = draw(st.sampled_from(PRESET_NAMES))
    rs = _preset_rs(name)
    nlegs = draw(st.sampled_from((1, 2)))
    letter = st.tuples(st.integers(0, nlegs - 1), st.integers(0, len(rs.generators) - 1))
    letters = draw(st.lists(letter, max_size=6))
    return rs, tuple(tuple(r for l, r in letters if l == leg) for leg in range(nlegs))


@settings(max_examples=200, deadline=None)
@given(preset_words())
def test_normalize_word_returns_non_decreasing_words(case):
    rs, word = case
    for w, c in rs.normalize_word(word).items():
        assert len(w) == len(word)
        for leg in w:
            assert all(leg[i] <= leg[i + 1] for i in range(len(leg) - 1))
        assert sum(map(len, w)) <= sum(map(len, word))
        assert not c.is_zero()
