"""The linear structure the four element classes share.

NCPoly, PolyCoord, SmashElem and TensorOverA (at two and three legs) are
sparse {key: TruncSeries} combinations.  Addition, subtraction, negation, scaling,
equality and the zero test are written once for all of them; these cases pin
that behaviour, the errors for mixed spaces and the string forms residual
reports are built from.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smashtwist.algebroid import TensorOverA, bm_bialgebroid
from smashtwist.modalg import PolyCoord
from smashtwist.ncpoly import NCPoly
from smashtwist.registry import materialize
from smashtwist.scalars import GaussRational, TruncSeries
from smashtwist.smash import SmashElem

ORDER = 2
ONE = TruncSeries.one(ORDER)
I_H = TruncSeries.h_power(1, ORDER, GaussRational(0, 1))
HALF_H2 = TruncSeries.h_power(2, ORDER, Fraction(-1, 2))

# igl2-abelian ranks: L00 L01 L10 L11 P0 P1 = 0..5; two coordinates
KEYS = {
    "ncpoly": (((),), ((0,),), ((4, 5),)),
    "ncpoly-2leg": (((), ()), ((4,), (3,)), ((0, 5), (5,))),
    "polycoord": ((0, 0), (1, 0), (0, 2)),
    "smash": (((0, 0), ()), ((1, 0), (4,)), ((0, 2), (0, 5))),
    "tensor": (((0, 0), (), ()), ((1, 0), (4,), ()), ((0, 1), (), (5,))),
    "tensor3": (((0, 0), (), (), ()), ((1, 0), (4,), (), (5,)), ((0, 1), (), (3,), ())),
}
KEYS_3LEG = (((), (), ()), ((4,), (), (5,)), ((0, 1), (3,), (4,)))

BUILD = {
    "ncpoly": lambda ctx, terms: NCPoly(ctx["rs"], 1, terms),
    "ncpoly-2leg": lambda ctx, terms: NCPoly(ctx["rs"], 2, terms),
    "polycoord": lambda ctx, terms: PolyCoord(2, ORDER, terms),
    "smash": lambda ctx, terms: SmashElem(ctx["smash"], terms),
    "tensor": lambda ctx, terms: TensorOverA(ctx["bd"], 2, terms),
    "tensor3": lambda ctx, terms: TensorOverA(ctx["bd"], 3, terms),
}

# the classes that had the whole linear structure before it was shared
FULL = ("ncpoly", "ncpoly-2leg", "polycoord", "smash", "tensor")


@pytest.fixture(scope="module")
def contexts():
    """Two independent igl2 problems, so every space has a foreign twin."""
    out = []
    for _ in range(2):
        prob = materialize("igl2-abelian", order=ORDER)
        out.append({
            "rs": prob.smash.rs,
            "smash": prob.smash,
            "bd": bm_bialgebroid(prob.smash),
            "product": prob.smash.product(prob.twist),
        })
    return out


def pair(kind, ctx):
    """x = 1*k0 + (i h)*k1 - (h^2/2)*k2 and y = 2*k0 + h*k2."""
    k0, k1, k2 = KEYS[kind]
    x = BUILD[kind](ctx, {k0: ONE, k1: I_H, k2: HALF_H2})
    y = BUILD[kind](ctx, {k0: ONE + ONE, k2: TruncSeries.h_power(1, ORDER)})
    return x, y


@pytest.mark.parametrize("kind", FULL)
def test_additive_inverse_and_subtraction(contexts, kind):
    x, y = pair(kind, contexts[0])
    assert (x + (-x)).is_zero()
    assert (x + (-x)).terms == {}
    assert x - y == x + (-y)
    assert not (x - y).is_zero()
    assert (x - x).is_zero()


@pytest.mark.parametrize("kind", FULL)
def test_scale_drops_truncated_terms(contexts, kind):
    x, _ = pair(kind, contexts[0])
    k0, k1, k2 = KEYS[kind]
    assert x.scale(0).is_zero()
    assert x.scale(TruncSeries.zero(ORDER)).is_zero()
    hx = x.scale(TruncSeries.h_power(1, ORDER))
    # h * (h^2/2) truncates at order 2; the term is gone, not stored as zero
    assert set(hx.terms) == {k0, k1}
    assert all(not c.is_zero() for c in hx.terms.values())
    h2x = x.scale(TruncSeries.h_power(2, ORDER))
    assert set(h2x.terms) == {k0}
    assert x.scale(3) == x.scale(TruncSeries.const(3, ORDER))
    assert x.scale(1) == x


@pytest.mark.parametrize("kind", ("ncpoly", "ncpoly-2leg", "polycoord", "smash"))
def test_scalar_multiplication_is_scale(contexts, kind):
    x, _ = pair(kind, contexts[0])
    assert 2 * x == x.scale(2)
    assert x * Fraction(1, 3) == x.scale(Fraction(1, 3))
    assert x * GaussRational(0, 1) == x.scale(GaussRational(0, 1))


# foreign(own, other): an empty element outside the space of pair(kind, own)
MISMATCH = [
    ("ncpoly", lambda own, other: NCPoly(other["rs"], 1, {}),
     "alphabet mismatch between polynomials"),
    ("ncpoly", lambda own, other: NCPoly(own["rs"], 2, {}), "leg count mismatch: 1 vs 2"),
    ("ncpoly-2leg", lambda own, other: NCPoly(own["rs"], 1, {}),
     "leg count mismatch: 2 vs 1"),
    ("polycoord", lambda own, other: PolyCoord(2, ORDER + 1, {}),
     "coordinate algebra mismatch"),
    ("polycoord", lambda own, other: PolyCoord(3, ORDER, {}), "coordinate algebra mismatch"),
    ("smash", lambda own, other: SmashElem(other["smash"], {}),
     "elements from different smash algebras"),
    ("tensor", lambda own, other: TensorOverA(other["bd"], 2, {}),
     "tensors over different bialgebroids"),
    ("tensor3", lambda own, other: TensorOverA(other["bd"], 3, {}),
     "tensors over different bialgebroids"),
    ("tensor", lambda own, other: TensorOverA(own["bd"], 3, {}), "leg count mismatch: 2 vs 3"),
    ("tensor3", lambda own, other: TensorOverA(own["bd"], 2, {}), "leg count mismatch: 3 vs 2"),
]


@pytest.mark.parametrize("kind, foreign, message", MISMATCH,
                         ids=[f"{k}-{i}" for i, (k, _, _) in enumerate(MISMATCH)])
def test_mismatched_space_raises_value_error(contexts, kind, foreign, message):
    x, _ = pair(kind, contexts[0])
    z = foreign(*contexts)
    with pytest.raises(ValueError) as exc:
        x - z
    assert str(exc.value) == message
    assert x != z


@pytest.mark.parametrize("kind", KEYS)
def test_non_element_raises_type_error(contexts, kind):
    x, _ = pair(kind, contexts[0])
    for other in (1, "x", None):
        with pytest.raises(TypeError):
            x + other


@pytest.mark.parametrize("kind", KEYS)
def test_equality_against_foreign_type_is_false(contexts, kind):
    x, y = pair(kind, contexts[0])
    assert x == pair(kind, contexts[0])[0]
    assert x != y
    for other in (0, "x", None, x.terms, ONE):
        assert not x == other
        assert x != other


PINNED = {
    "ncpoly": "(1)*1 + (i*h)*L00 + (-1/2*h^2)*P0 P1",
    "ncpoly-2leg": "(1)*1 (x) 1 + (-1/2*h^2)*L00 P1 (x) P1 + (i*h)*P0 (x) L11",
    "polycoord": "(1)*1 + (-1/2*h^2)*x1^2 + (i*h)*x0",
    "smash": "(1)*1#1 + (-1/2*h^2)*x1^2#L00 P1 + (i*h)*x0#P0",
    "tensor": "(1)*1#1 (x)A 1#1 + (-1/2*h^2)*x1#1 (x)A 1#P1 + (i*h)*x0#P0 (x)A 1#1",
    "tensor3": "(1)*1#1 (x)A 1#1 (x)A 1#1 + (-1/2*h^2)*x1#1 (x)A 1#L11 (x)A 1#1"
               " + (i*h)*x0#P0 (x)A 1#1 (x)A 1#P1",
}


@pytest.mark.parametrize("kind", PINNED)
def test_repr_is_pinned(contexts, kind):
    x, _ = pair(kind, contexts[0])
    assert repr(x) == PINNED[kind]
    assert repr(x - x) == "0"


def test_tensors_gain_the_shared_structure(contexts):
    # the tensors had no scalar product, and three-leg tensors had no sum,
    # negation or scale, before the linear structure was shared
    x, y = pair("tensor3", contexts[0])
    assert (x + (-x)).is_zero()
    assert x - y == x + (-y)
    assert x.scale(0).is_zero()
    assert set(x.scale(TruncSeries.h_power(1, ORDER)).terms) == set(KEYS["tensor3"][:2])
    for kind in ("tensor", "tensor3"):
        x, _ = pair(kind, contexts[0])
        assert 2 * x == x * 2 == x.scale(2)


@pytest.mark.parametrize("cls", [NCPoly, PolyCoord, SmashElem, TensorOverA])
def test_linear_structure_is_not_redefined(cls):
    own = set(vars(cls))
    for name in ("__add__", "__sub__", "__neg__", "scale", "is_zero", "__eq__"):
        assert name not in own, f"{cls.__name__} defines its own {name}"


# -- no operation stores a zero coefficient -----------------------------------

H = TruncSeries.h_power(1, ORDER)
H_N = TruncSeries.h_power(ORDER, ORDER, 3)  # times any O(h) coefficient it truncates
COEFFS = (ONE, -ONE, I_H, HALF_H2, H, H_N, ONE + H)

# kind: (keys, build, product)
ALGEBRAS = {
    "ncpoly": (KEYS["ncpoly"], BUILD["ncpoly"], lambda ctx, x, y: x * y),
    "ncpoly-2leg": (KEYS["ncpoly-2leg"], BUILD["ncpoly-2leg"], lambda ctx, x, y: x * y),
    "ncpoly-3leg": (KEYS_3LEG, lambda ctx, terms: NCPoly(ctx["rs"], 3, terms),
                    lambda ctx, x, y: x * y),
    "polycoord": (KEYS["polycoord"], BUILD["polycoord"], lambda ctx, x, y: x * y),
    "smash": (KEYS["smash"], BUILD["smash"], lambda ctx, x, y: ctx["smash"].product(None)(x, y)),
    "smash-twisted": (KEYS["smash"], BUILD["smash"], lambda ctx, x, y: ctx["product"](x, y)),
    "tensor": (KEYS["tensor"], BUILD["tensor"], lambda ctx, x, y: x.mul(y)),
    "tensor3": (KEYS["tensor3"], BUILD["tensor3"], lambda ctx, x, y: x.mul(y)),
}


def _terms(keys):
    return st.dictionaries(st.sampled_from(keys), st.sampled_from(COEFFS), max_size=3)


@pytest.mark.parametrize("kind", ALGEBRAS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_no_operation_stores_a_zero_coefficient(contexts, kind, data):
    keys, build, product = ALGEBRAS[kind]
    ctx = contexts[0]
    x = build(ctx, data.draw(_terms(keys)))
    y = build(ctx, data.draw(_terms(keys)))
    c = data.draw(st.sampled_from(COEFFS + (2, Fraction(-1, 2))))
    for out in (x + y, x - y, x - x, y - x.scale(c), product(ctx, x, y), x.scale(c),
                product(ctx, x.scale(H_N), y)):
        assert all(not v.is_zero() for v in out.terms.values()), kind
