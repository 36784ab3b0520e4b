"""Differential properties: the PBW kernel against its all-pairs oracle.

The production product buckets the right factor by lowest h-order and never
forms a pair whose orders sum past the truncation order; the rewrite builds a
normal form leg by leg from cached per-leg forms, with one shared unit
coefficient per rewrite system; the Jacobi check reads double commutators off
a table of generator brackets.  tests/ncpoly_oracle.py keeps the loops these
replaced, and every result here must agree with it exactly: the same terms,
the same coefficients, the same string form.  Polynomials have one, two or
three legs over every preset alphabet, at orders 0-5, with coefficients of
mixed valuation, many of them not monomials, so that about a third of the
pairs of terms truncate.

The kernel keeps a word as one rank tuple per leg.  Its normal form,
``place_legs``, ``coproduct_on_leg``, ``counit_on_leg`` and string form are
also checked against the oracle's twins on (leg, rank) letter words, the
format they replaced, through the oracle's adapters.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncpoly_oracle as ref
from smashtwist.hopf import BialgebraPresentation
from smashtwist.ncpoly import NCPoly, RewriteSystem
from smashtwist.registry import PRESET_NAMES, presentation, preset
from smashtwist.scalars import GaussRational, TruncSeries

kernel_settings = settings(max_examples=150, deadline=None)

orders = st.integers(0, 5)
rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7)))
nonzero_gauss = st.builds(GaussRational, rationals, rationals).filter(
    lambda g: not g.is_zero()
)


@functools.cache
def preset_rs(name, order):
    return RewriteSystem(order, *presentation(preset(name)))


def leg_tags(nlegs):
    return tuple(ref.leg_tag(leg, nlegs) for leg in range(1, nlegs + 1))


@st.composite
def coefficients(draw, order):
    """A nonzero series of valuation uniform in 0..order, often with more
    h-powers above it, so that many pairs of terms truncate."""
    low = draw(st.integers(0, order))
    powers = {low} | set(draw(st.lists(st.integers(low, order), max_size=2)))
    data = {k: draw(nonzero_gauss) for k in sorted(powers)}
    return TruncSeries._from_data(order, data)


@st.composite
def normal_words(draw, rs, nlegs, lo=0, hi=None):
    """A normal-ordered word: the legs in order, each leg's ranks sorted and
    drawn from lo..hi (by default every rank)."""
    rank = st.integers(lo, len(rs.generators) - 1 if hi is None else hi)
    return tuple(
        tuple(sorted(draw(st.lists(rank, max_size=3 if nlegs == 1 else 2))))
        for _ in range(nlegs)
    )


@st.composite
def polys(draw, rs, nlegs, lo=0, hi=None):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        terms[draw(normal_words(rs, nlegs, lo, hi))] = draw(coefficients(rs.order))
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


@st.composite
def seam_pairs(draw):
    """Two polynomials whose product has many ordered seams: half the time
    every rank of the left factor is at most every rank of the right one,
    so p * q takes the seam path on every pair and q * p mostly does not."""
    rs = preset_rs(draw(st.sampled_from(PRESET_NAMES)), draw(orders))
    nlegs = draw(st.sampled_from((1, 2, 3)))
    top = len(rs.generators) - 1
    pivot = draw(st.one_of(st.none(), st.integers(0, top)))
    if pivot is None:
        return draw(polys(rs, nlegs)), draw(polys(rs, nlegs))
    return draw(polys(rs, nlegs, hi=pivot)), draw(polys(rs, nlegs, lo=pivot))


def has_descent(word) -> bool:
    return any(a > b for ranks in word for a, b in zip(ranks, ranks[1:]))


@kernel_settings
@given(seam_pairs())
def test_product_across_ordered_seams_is_normal_and_matches_reference(pair):
    p, q = pair
    for got, want in ((p * q, ref.mul(p, q)), (q * p, ref.mul(q, p))):
        assert_same_poly(got, want)
        assert not any(map(has_descent, got.terms))


def test_zero_coefficient_contributes_nothing():
    rs = preset_rs("igl2-abelian", 3)
    word = ((rs.rank_of["P0"],),)
    zero = NCPoly(rs, 1, {word: TruncSeries.zero(3), ((),): TruncSeries.h_power(1, 3)})
    x = NCPoly.gen(rs, "L01").scale(TruncSeries.h_power(2, 3, 5))
    assert_same_poly(zero * x, ref.mul(zero, x))
    assert_same_poly(x * zero, ref.mul(x, zero))
    assert (zero * x) == x.scale(TruncSeries.h_power(1, 3))


def interleave(draw, per_leg):
    """The letters of ``per_leg`` (one list per leg) merged in a random order
    that keeps each leg's own letter order."""
    heads = [0] * len(per_leg)
    word = []
    while len(word) < sum(map(len, per_leg)):
        live = [i for i, leg in enumerate(per_leg) if heads[i] < len(leg)]
        i = draw(st.sampled_from(live))
        word.append(per_leg[i][heads[i]])
        heads[i] += 1
    return tuple(word)


@st.composite
def shuffled_words(draw):
    """A multi-leg word with its legs interleaved at random.

    Returns the rewrite system, the interleaved letter word and the same
    word with one rank tuple per leg.
    """
    rs = preset_rs(draw(st.sampled_from(PRESET_NAMES)), draw(orders))
    nlegs = draw(st.sampled_from((1, 2, 3)))
    rank = st.integers(0, len(rs.generators) - 1)
    per_leg = [
        [(leg, r) for r in draw(st.lists(rank, max_size=4))] for leg in leg_tags(nlegs)
    ]
    word = tuple(tuple(r for _, r in leg) for leg in per_leg)
    return rs, interleave(draw, per_leg), word


def assert_normal_form(rs, got, letters, nlegs):
    """``got`` is the oracle's normal form of the letter word ``letters``,
    stores no zero coefficient, and every unit coefficient in it is the
    system's own unit."""
    want = ref.normalize_word(rs, letters)
    assert got == {ref.from_letters(w, nlegs): c for w, c in want.items()}
    assert all(not c.is_zero() for c in got.values())
    one = TruncSeries.one(rs.order)
    assert all(c is rs.unit for c in got.values() if c == one)


@kernel_settings
@given(shuffled_words())
def test_normalize_word_of_shuffled_legs_matches_unsorted_rewrite(case):
    rs, letters, word = case
    assert_normal_form(rs, rs.normalize_word(word), letters, len(word))


@st.composite
def descending_legs(draw, rs, nlegs):
    """One list of letters per leg of a 2- or 3-leg word, each leg with a
    descent; one leg word sits in at least two legs."""
    rank = st.integers(0, len(rs.generators) - 1)

    def with_descent():
        hi, lo = sorted(draw(st.lists(rank, min_size=2, max_size=2, unique=True)))[::-1]
        return [hi] + draw(st.lists(rank, max_size=2)) + [lo]

    tags = leg_tags(nlegs)
    repeated = with_descent()
    twice = draw(st.lists(st.sampled_from(tags), min_size=2, max_size=nlegs, unique=True))
    return [[(leg, r) for r in (repeated if leg in twice else with_descent())]
            for leg in tags]


@st.composite
def repeated_leg_words(draw):
    names = tuple(n for n in PRESET_NAMES if preset(n)["algebra"]["brackets"])
    rs = preset_rs(draw(st.sampled_from(names)), draw(orders))
    nlegs = draw(st.sampled_from((2, 3)))
    return rs, interleave(draw, draw(descending_legs(rs, nlegs))), nlegs


@kernel_settings
@given(repeated_leg_words())
def test_leg_factored_normal_form_of_repeated_leg_words(case):
    rs, letters, nlegs = case
    assert_normal_form(rs, rs.normalize_word(ref.from_letters(letters, nlegs)), letters, nlegs)


h_literals = st.sampled_from(("1", "-1", "i", "h", "-2*h", "i*h", "h^2", "1/2*h^2", "3*i*h^2"))


@st.composite
def h_bracket_systems(draw):
    """A preset alphabet whose brackets are replaced by terms
    carrying h^k, at orders 0-2, so that products of per-leg coefficients
    often truncate to zero."""
    gens, _ = presentation(preset(draw(st.sampled_from(("igl2-abelian", "pw-jordanian")))))
    names = [name for name, _ in gens]
    brackets = {}
    for a, b in draw(st.lists(
        st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True),
        min_size=1, max_size=6,
    )):
        brackets.pop((b, a), None)
        brackets[(a, b)] = tuple(
            (draw(h_literals), draw(st.one_of(st.none(), st.sampled_from(names))))
            for _ in range(draw(st.integers(1, 2)))
        )
    return RewriteSystem(draw(st.integers(0, 2)), gens, brackets)


@settings(max_examples=100, deadline=None)
@given(h_bracket_systems(), st.data())
def test_leg_factored_normal_form_of_h_bracket_systems(rs, data):
    nlegs = data.draw(st.sampled_from((2, 3)))
    for _ in range(3):
        letters = interleave(data.draw, data.draw(descending_legs(rs, nlegs)))
        word = ref.from_letters(letters, nlegs)
        assert_normal_form(rs, rs.normalize_word(word), letters, nlegs)
    p, q = data.draw(polys(rs, nlegs)), data.draw(polys(rs, nlegs))
    assert_same_poly(p * q, ref.mul(p, q))


def test_truncating_cross_leg_product_is_dropped():
    # B A = A B - h, so (B A) (x) (B A) = AB (x) AB - h AB (x) 1 - h 1 (x) AB
    # + h^2, and at order 1 the h^2 term of the empty word truncates
    gens = (("A", "symmetry"), ("B", "symmetry"))
    rs = RewriteSystem(1, gens, {("A", "B"): (("h", None),)})
    a, b = rs.rank_of["A"], rs.rank_of["B"]
    letters = ((1, b), (2, b), (1, a), (2, a))
    got = rs.normalize_word(((b, a), (b, a)))
    assert_normal_form(rs, got, letters, 2)
    assert ((), ()) not in got
    assert got[((a, b), (a, b))] is rs.unit


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
    gens, bad = presentation(preset("igl2-abelian"))
    bad[("L00", "L01")] = ((1, "L01"), (1, "P0"))
    bad[("L10", "P1")] = (("h", "P0"), ("1/2*h^2", None), ("i*h", "L11"))
    rs = RewriteSystem(2, gens, bad)
    got = rs.jacobi_residuals()
    assert got
    assert_same_residuals(got, ref.jacobi_residuals(rs))


literals = st.sampled_from(("1", "-1", "2", "i", "h", "-h", "1/2*h^2", "3*i*h^2", "h^3"))


@st.composite
def broken_systems(draw):
    """A preset alphabet with some brackets replaced at random, Jacobi or not."""
    gens, brackets = presentation(preset(draw(st.sampled_from(
        ("heisenberg", "igl2-abelian", "pw-jordanian")))))
    names = [name for name, _ in gens]
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        brackets.pop((b, a), None)
        brackets[(a, b)] = tuple(
            (draw(literals), draw(st.one_of(st.none(), st.sampled_from(names))))
            for _ in range(draw(st.integers(0, 2)))
        )
    return RewriteSystem(draw(st.integers(0, 3)), gens, brackets)


@settings(max_examples=40, deadline=None)
@given(broken_systems())
def test_jacobi_residuals_of_random_broken_systems_match(rs):
    assert_same_residuals(rs.jacobi_residuals(), ref.jacobi_residuals(rs))


# -- the per-leg word format against the letter-word kernel -----------------
#
# Each function below works on words with one rank tuple per leg; the oracle's
# twin works on (leg, rank) letter words.  Through to_letters/from_letters they
# must agree term for term, and the string forms must match byte for byte.

legs_settings = settings(max_examples=100, deadline=None)


@st.composite
def any_words(draw, rs, nlegs):
    """A word with one rank tuple per leg, each leg in any order."""
    rank = st.integers(0, len(rs.generators) - 1)
    return tuple(tuple(draw(st.lists(rank, max_size=4))) for _ in range(nlegs))


@st.composite
def preset_polys(draw, nlegs=st.sampled_from((1, 2, 3))):
    """A polynomial over a preset alphabet whose legs need not be normal
    ordered, so that moving a leg must keep its letters' order."""
    rs = preset_rs(draw(st.sampled_from(PRESET_NAMES)), draw(orders))
    n = draw(nlegs)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        terms[draw(any_words(rs, n))] = draw(coefficients(rs.order))
    return NCPoly(rs, n, terms)


def assert_same_as_letters(got, rs, nlegs, want_letters):
    """``got`` (an NCPoly) is the letter-word result ``want_letters``."""
    assert got.nlegs == nlegs
    assert got == ref.from_letter_terms(rs, nlegs, want_letters)
    assert ref.to_letter_terms(got) == want_letters
    assert repr(got) == ref.letters_repr(rs, nlegs, want_letters)


@legs_settings
@given(st.sampled_from(PRESET_NAMES), orders, st.sampled_from((1, 2, 3)), st.data())
def test_normalize_word_matches_leg_sorted_kernel(name, order, nlegs, data):
    rs = preset_rs(name, order)
    word = data.draw(any_words(rs, nlegs))
    got = rs.normalize_word(word)
    want = ref.sorted_normalize_word(rs, ref.to_letters(word))
    assert_same_as_letters(NCPoly(rs, nlegs, dict(got)), rs, nlegs, want)
    for w, c in got.items():
        assert len(w) == nlegs
        assert all(leg[i] <= leg[i + 1] for leg in w for i in range(len(leg) - 1))
        assert not c.is_zero()


@legs_settings
@given(preset_polys(), st.data())
def test_place_legs_matches_retagging_kernel(p, data):
    nlegs = data.draw(st.integers(p.nlegs, 3))
    legs = tuple(data.draw(st.permutations(range(1, nlegs + 1)))[: p.nlegs])
    want = ref.place_legs(ref.to_letter_terms(p), p.nlegs, tuple(
        ref.leg_tag(leg, nlegs) for leg in legs), nlegs)
    assert_same_as_letters(p.place_legs(legs, nlegs), p.rs, nlegs, want)


def test_place_legs_validation():
    rs = preset_rs("igl2-abelian", 2)
    p = NCPoly.gen(rs, "P0", leg=1, nlegs=2)
    for legs, nlegs in (((1,), 2), ((1, 2, 3), 3), ((0, 1), 2), ((1, 3), 2), ((2, 2), 3)):
        with pytest.raises(ValueError):
            p.place_legs(legs, nlegs)
    assert p.place_legs((1, 2), 2) == p


@legs_settings
@given(preset_polys(), st.data())
def test_coproduct_on_leg_matches_retagging_kernel(p, data):
    bialg = BialgebraPresentation(p.rs)
    n = p.nlegs
    leg = data.draw(st.integers(1, n))
    other_map = {l: l if l < leg else l + 1 for l in range(1, n + 1) if l != leg}
    want = ref.coproduct_on_leg(bialg, ref.to_letter_terms(p), ref.leg_tag(leg, n),
                                (leg, leg + 1), other_map)
    assert_same_as_letters(bialg.coproduct_on_leg(p, leg), p.rs, n + 1, want)


@legs_settings
@given(preset_polys(st.sampled_from((2, 3))), st.data())
def test_counit_on_leg_matches_retagging_kernel(p, data):
    bialg = BialgebraPresentation(p.rs)
    leg = data.draw(st.integers(1, p.nlegs))
    want = ref.counit_on_leg(ref.to_letter_terms(p), p.nlegs, leg)
    assert_same_as_letters(bialg.counit_on_leg(p, leg), p.rs, p.nlegs - 1, want)
