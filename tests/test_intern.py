"""The per-problem intern table of scalar series (``scalars.InternTable``).

Inside one problem equal series are one object, and the arithmetic of those
objects is memoized by their indices.  These cases check that every path to
a value ends at the same object, that interning never merges two different
values, that values and strings still agree with the Fraction oracle of
tests/scalars_oracle.py, and that a series outside every table, or in a
dead one, still computes.
"""

import gc
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalars_oracle as ref
from smashtwist import cli, scalars
from smashtwist.ncpoly import LinearCombination, RewriteSystem
from smashtwist.registry import materialize
from smashtwist.scalars import GaussRational, InternTable, TruncSeries, _memoized

rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 6)))
slots = st.one_of(st.just((0, 0)), st.just((1, 0)), st.tuples(rationals, rationals))
# plain scalars, each with its oracle counterpart
SCALARS = [(2, 2), (Fraction(1, 3), Fraction(1, 3)),
           (GaussRational(0, -1), ref.GaussRational(0, -1))]


@st.composite
def triples(draw):
    """Three series of one order, each as (series, oracle series)."""
    order = draw(st.integers(0, 4))
    out = []
    for _ in range(3):
        parts = draw(st.lists(slots, min_size=order + 1, max_size=order + 1))
        out.append((TruncSeries(order, [GaussRational(re, im) for re, im in parts]),
                    ref.TruncSeries(order, [ref.GaussRational(re, im) for re, im in parts])))
    return out


def fresh(x):
    """An equal series of no table."""
    return TruncSeries(x.order, [x.coefficient(k) for k in range(x.order + 1)])


def problem_table(order):
    """The intern table of a one-letter problem at ``order``."""
    return RewriteSystem(order, [("X", "symmetry")]).scalars


@settings(max_examples=120, deadline=None)
@given(triples())
def test_equal_values_reached_by_different_paths_are_one_object(triple):
    (s, r), (t, q), (u, p) = triple
    table = problem_table(s.order)
    a, b, c = (table.intern(x) for x in (s, t, u))
    two = TruncSeries.const(2, s.order)
    # each group: the oracle's value, then the paths that reach it
    groups = [
        (r * q, [a * b, b * a, a * fresh(t), fresh(s) * b]),
        ((r + q) + p, [(a + b) + c, a + (b + c), (c + a) + b]),
        (r * (q + p), [a * (b + c), a * b + a * c, (c + b) * a]),
        (r - q, [a - b, a + -b, -(b - a)]),
        (r.scale(2), [a.scale(2), a + a, a * two, a * 2]),
    ]
    results = []
    for expected, paths in groups:
        first = paths[0]
        assert all(x is first for x in paths)
        assert table.intern(fresh(first)) is first
        assert repr(first) == repr(expected)
        results.append((first, expected))
    for x, ex in results:
        for y, ey in results:
            assert (x == y) == (ex == ey)
            assert (x is y) == (ex == ey)


def test_values_that_differ_in_one_detail_stay_distinct():
    order = 3
    i = GaussRational(0, 1)
    h, h2 = TruncSeries.h_power(1, order), TruncSeries.h_power(2, order)
    # pairs that differ only in the h-power, the sign of i, a denominator,
    # or which power carries which coefficient
    pairs = [
        (h, h2),
        (TruncSeries.h_power(1, order, i), TruncSeries.h_power(1, order, -i)),
        (TruncSeries.h_power(1, order, Fraction(1, 2)), TruncSeries.h_power(1, order, Fraction(1, 3))),
        (TruncSeries.const(Fraction(1, 2), order), TruncSeries.const(2, order)),
        (TruncSeries(order, [Fraction(1, 2), Fraction(1, 3)] + [0] * (order - 1)),
         TruncSeries(order, [Fraction(1, 3), Fraction(1, 2)] + [0] * (order - 1))),
    ]
    values = [x for pair in pairs for x in pair]
    oracle = [ref.TruncSeries(order, [ref.GaussRational(c.re, c.im)
                                      for c in map(x.coefficient, range(order + 1))])
              for x in values]
    table = problem_table(order)
    canon = [table.intern(x) for x in values]
    assert len({x._ix for x in canon}) == len(canon)
    for x, y in pairs:
        assert table.intern(x) is not table.intern(y)
    # every product, sum, difference, negation and scaling, first computed and
    # then read from the memos, matches the oracle
    for _ in range(2):
        for x, ox in zip(canon, oracle):
            assert repr(-x) == repr(-ox)
            for q, oq in SCALARS:
                assert repr(x.scale(q)) == repr(ox.scale(oq))
            for y, oy in zip(canon, oracle):
                assert repr(x * y) == repr(ox * oy)
                assert repr(x + y) == repr(ox + oy)
                assert repr(x - y) == repr(ox - oy)


def test_series_without_a_table_compute_as_before():
    s = TruncSeries(2, [1, Fraction(1, 2), 0])
    t = TruncSeries(2, [0, 1, GaussRational(0, 3)])
    product = s * t
    assert product._home is None
    assert product == TruncSeries(2, [0, 1, GaussRational(Fraction(1, 2), 3)])


def test_a_series_joins_the_table_of_the_first_operand_that_has_one():
    table = problem_table(2)
    lone = TruncSeries.h_power(1, 2, 5)
    product = table.one * lone
    assert product is table.intern(lone) is lone
    # an equal series built later is read from the table, not added to it
    again = TruncSeries.h_power(1, 2, 5)
    count = len(table.canon)
    assert table.one * again is lone
    assert len(table.canon) == count


def test_order_mismatch_raises_and_leaves_the_table_alone():
    table = problem_table(3)
    count = len(table.canon)
    for op in (operator.mul, operator.add, operator.sub):
        with pytest.raises(ValueError, match="order mismatch"):
            op(table.one, TruncSeries.one(2))
    assert len(table.canon) == count


def test_values_of_a_dead_table_and_of_two_tables_still_compute():
    table, other = InternTable(2), InternTable(2)
    x = table.intern(TruncSeries(2, [1, 1, 0]))
    y = other.intern(TruncSeries(2, [0, 2, 0]))
    assert x * y == TruncSeries(2, [0, 2, 2])
    # the result belongs to a table, and the operands keep theirs
    assert table.intern(x * y) is x * y
    assert other.intern(y) is y
    del table
    gc.collect()
    assert x._home() is None
    assert x * x == TruncSeries(2, [1, 2, 1])
    assert x + y == TruncSeries(2, [1, 3, 0])


def test_every_coefficient_of_a_problem_is_canonical():
    prob = materialize("pw-jordanian", order=3, degree=1)
    table = prob.bialg.rs.scalars
    twist = prob.twist
    elements = [twist.F, twist.F_inv, twist.r_matrix,
                twist.F * twist.F_inv, twist.F_inv * twist.F]
    coefficients = [c for e in elements for c in e.terms.values()]
    assert coefficients
    assert all(table.intern(c) is c for c in coefficients)
    assert all(c is prob.bialg.rs.unit for c in coefficients if c == 1)


def test_unit_coefficients_in_the_smash_memos_are_the_canonical_unit(monkeypatch):
    probs = []

    def materialize_recording(*args, **kwargs):
        probs.append(materialize(*args, **kwargs))
        return probs[-1]

    monkeypatch.setattr(cli, "materialize", materialize_recording)
    argv = ["smash-verify", "--preset", "pw-jordanian", "--order", "2", "--degree", "1"]
    assert cli.main(argv) == cli.EXIT_PASS
    prob, = probs
    unit = prob.bialg.rs.unit
    plain, twisted = prob.smash.product(None), prob.smash.product(prob.twist)
    memos = {
        "word_splits(None)": [c for splits in plain.delta._memos["CoproductMap.word_splits"]
                              .values() for _, _, c in splits],
        "act_word": [c for a in prob.rep._memos["RepData.act_word"].values()
                     for c in a.terms.values()],
        "_pair": [c for product in (plain, twisted)
                  for terms in product._memos["SmashProduct._pair"].values()
                  for c in terms.values()],
    }
    for name, coefficients in memos.items():
        ones = [c for c in coefficients if c == 1]
        assert ones, name
        assert all(c is unit for c in ones), name


def holds_index_zero(memo) -> bool:
    """Whether a ``mul`` memo has an entry keyed by index 0, the table's one."""
    return any(key >> 32 == 0 or key & 0xFFFFFFFF == 0 for key in memo)


def same_value_and_index(x, y) -> bool:
    return x == y and x._home is y._home and x._ix == y._ix


@settings(max_examples=80, deadline=None)
@given(triples(), st.sampled_from(("canonical", "index carrier", "no table")))
def test_a_product_by_one_is_the_memo_paths_result(triple, kind):
    (s, _), _, _ = triple
    table = problem_table(s.order)
    one = table.one
    assert one._ix == 0
    if kind == "canonical":
        x = table.intern(s)
    elif kind == "index carrier":
        c = table.intern(s)
        x = fresh(s)
        assert table.intern(x) is c and x is not c and x._ix == c._ix
    else:
        x = fresh(s)
    products = [one * x, x * one]
    assert not holds_index_zero(table.memos["mul"])
    canon = table.intern(fresh(s))
    # the same products through the memo, which stores them
    for product in products:
        assert product == s
        assert same_value_and_index(product, canon)
        assert same_value_and_index(product, _memoized("mul", one, x, TruncSeries._mul))
        assert same_value_and_index(product, _memoized("mul", x, one, TruncSeries._mul))


def test_the_one_of_a_table_times_a_series_of_another_is_its_own_copy():
    a, b = problem_table(2), problem_table(2)
    y = b.intern(TruncSeries(2, [0, 2, 1]))
    for x in (y, b.one):
        product = a.one * x
        assert product == x and product is not x
        assert product._home is a.ref and a.canon[product._ix] is product
    # the left operand's table comes first, as for any other product
    assert y * a.one is y
    assert b.one * a.one is b.one


@pytest.mark.parametrize("argv", [
    ["check-twist", "--preset", "pw-jordanian"],
    ["suite", "--preset", "pw-jordanian", "--order", "2", "--degree", "1"],
], ids=["check-twist", "suite"])
def test_no_product_by_one_is_memoized(argv, monkeypatch):
    probs = []

    def materialize_recording(*args, **kwargs):
        probs.append(materialize(*args, **kwargs))
        return probs[-1]

    monkeypatch.setattr(cli, "materialize", materialize_recording)
    assert cli.main(argv) == cli.EXIT_PASS
    prob, = probs
    memo = prob.bialg.rs.scalars.memos["mul"]
    assert memo
    assert not holds_index_zero(memo)


def test_a_float_is_refused_after_an_equal_scalar_was_memoized():
    x = problem_table(2).intern(TruncSeries.h_power(1, 2))
    assert x.scale(Fraction(1, 2)) == TruncSeries.h_power(1, 2, Fraction(1, 2))
    with pytest.raises(TypeError):
        x.scale(0.5)


@pytest.mark.parametrize("argv", [
    ["check-twist", "--preset", "pw-jordanian"],
    ["suite", "--preset", "pw-jordanian", "--order", "2", "--degree", "1"],
], ids=["check-twist", "suite"])
def test_scaling_by_a_plain_scalar_joins_no_table(argv, monkeypatch):
    # LinearCombination.scale interns its scalar once, into the table of the
    # coefficients it scales, so no coefficient product under it joins one
    scale = LinearCombination.scale.__code__
    join = scalars._join
    joins = []

    def recording_join(a, b):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not scale:
            frame = frame.f_back
        joins.append(frame is not None)
        return join(a, b)

    monkeypatch.setattr(scalars, "_join", recording_join)
    assert cli.main(argv) == cli.EXIT_PASS
    assert joins  # the spy sees the joins made elsewhere
    assert not any(joins)
