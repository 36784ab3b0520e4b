"""Coproducts, counits, twists, R-matrices."""

import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import trivial_twist
from smashtwist.cli import Report, run_twist_checks
from smashtwist.hopf import (
    CoproductMap,
    check_cocycle,
    check_quasitriangular,
    classical_r_extract,
    inv_unipotent,
    twist_from_exponent,
)
from smashtwist.ncpoly import NCPoly
from smashtwist.registry import PRESET_NAMES, materialize, preset, twist_exponent
from smashtwist.scalars import GaussRational, TruncSeries


@pytest.fixture(scope="module")
def igl2():
    return materialize("igl2-abelian", order=3)


@pytest.fixture(scope="module")
def pw():
    return materialize("pw-jordanian", order=3)


def test_coproduct_examples(igl2):
    b = igl2.bialg
    rs = b.rs
    assert b.coproduct_on_leg(NCPoly.one(rs), 1) == NCPoly.one(rs, 2)
    p0 = NCPoly.gen(rs, "P0")
    primitive = (
        NCPoly.gen(rs, "P0", leg=1, nlegs=2) + NCPoly.gen(rs, "P0", leg=2, nlegs=2)
    )
    assert b.coproduct_on_leg(p0, 1) == primitive
    # algebra map: coproduct of P0^2 expands binomially
    sq = b.coproduct_on_leg(p0 * p0, 1)
    want = primitive * primitive
    assert sq == want
    left = NCPoly.gen(rs, "P0", leg=1, nlegs=2)
    right = NCPoly.gen(rs, "P0", leg=2, nlegs=2)
    explicit = left * left + (left * right).scale(2) + right * right
    assert sq == explicit


def test_counit_examples(igl2):
    # the counit of a one-leg element is its empty-word part, on no leg
    b = igl2.bialg
    rs = b.rs
    assert b.counit_on_leg(NCPoly.one(rs), 1) == NCPoly.one(rs, 0)
    assert b.counit_on_leg(NCPoly.from_word(rs, ["P0", "L11"]), 1).is_zero()
    mixed = NCPoly.one(rs).scale(3) + NCPoly.gen(rs, "P0").scale(TruncSeries.h_power(1, rs.order))
    assert b.counit_on_leg(mixed, 1) == NCPoly.one(rs, 0).scale(3)


def test_alphabet_mismatch_rejected(igl2, pw):
    foreign = NCPoly.gen(pw.bialg.rs, "P0")
    with pytest.raises(ValueError, match="alphabet"):
        igl2.bialg.coproduct_on_leg(foreign, 1)


def test_coassociativity_and_counit_laws(igl2):
    b = igl2.bialg
    rs = b.rs
    rng = random.Random(8)
    names = [g.name for g in rs.generators]
    samples = [NCPoly.gen(rs, n) for n in names]
    for _ in range(6):
        samples.append(
            NCPoly.from_word(rs, [rng.choice(names) for _ in range(rng.randint(2, 3))])
        )
    for p in samples:
        cop = b.coproduct_on_leg(p, 1)
        lhs = b.coproduct_on_leg(cop, 1)
        rhs = b.coproduct_on_leg(cop, 2)
        assert lhs == rhs
        assert b.counit_on_leg(cop, 1) == p
        assert b.counit_on_leg(cop, 2) == p


def test_coproduct_multiplicative(igl2):
    b = igl2.bialg
    rs = b.rs
    rng = random.Random(21)
    names = [g.name for g in rs.generators]
    for _ in range(8):
        p = NCPoly.from_word(rs, [rng.choice(names) for _ in range(2)])
        q = NCPoly.from_word(rs, [rng.choice(names) for _ in range(2)])
        assert b.coproduct_on_leg(p * q, 1) == b.coproduct_on_leg(p, 1) * b.coproduct_on_leg(q, 1)


def test_twist_construction(igl2):
    b = igl2.bialg
    rs = b.rs
    tw = trivial_twist(b)
    assert tw.F == NCPoly.one(rs, 2)
    assert tw.is_trivial()
    with pytest.raises(ValueError, match="h\\^0"):
        twist_from_exponent(b, NCPoly.gen(rs, "P0", leg=1, nlegs=2))
    # an exponent violating the counit normalization builds, and the
    # normalization records carry the witness (it is no cocycle either):
    # with t = 1 (x) h P0, the left counit contraction of exp(+-t) is
    # exp(+-h P0), the right one is 1
    h = TruncSeries.h_power(1, rs.order)
    bad = NCPoly.gen(rs, "P0", leg=2, nlegs=2).scale(h)
    report = Report("check-twist", "test", rs.order, 1)
    run_twist_checks(report, SimpleNamespace(bialg=b, twist=twist_from_exponent(b, bad)))
    failing = {r["name"]: r["residual"] for r in report.records
               if r["identity"] == "counit-normalization" and r["status"] == "fail"}
    one = NCPoly.one(rs)
    assert failing == {
        "normalization (left)": repr(NCPoly.gen(rs, "P0").scale(h).exp_truncated() - one),
        "inverse normalization (left)": repr((-NCPoly.gen(rs, "P0").scale(h)).exp_truncated() - one),
    }


def test_twist_inverse_two_sided(igl2, pw):
    for prob in (igl2, pw):
        one2 = NCPoly.one(prob.bialg.rs, 2)
        assert prob.twist.F * prob.twist.F_inv == one2
        assert prob.twist.F_inv * prob.twist.F == one2


def test_cocycle_residuals_zero(igl2, pw):
    for prob in (igl2, pw):
        res = check_cocycle(prob.bialg, prob.twist)
        assert res["cocycle"].is_zero()
        assert res["inverse-cocycle"].is_zero()
    res = check_cocycle(igl2.bialg, trivial_twist(igl2.bialg))
    assert res["cocycle"].is_zero() and res["inverse-cocycle"].is_zero()


def test_cocycle_negative_control(igl2):
    # a non-cocycle invertible element: exponent with non-commuting legs
    b = igl2.bialg
    rs = b.rs
    t = (
        NCPoly.gen(rs, "L01", leg=1, nlegs=2) * NCPoly.gen(rs, "L10", leg=2, nlegs=2)
    ).scale(TruncSeries.h_power(1, rs.order))
    tw = twist_from_exponent(b, t)
    res = check_cocycle(b, tw)
    assert not res["cocycle"].is_zero()


def test_twisted_coproduct_examples(igl2):
    b, tw = igl2.bialg, igl2.twist
    rs = b.rs
    triv = trivial_twist(b)
    p = NCPoly.from_word(rs, ["L01", "P1"])
    assert CoproductMap(b, triv)(p) == b.coproduct_on_leg(p, 1)
    assert CoproductMap(b, tw)(NCPoly.one(rs)) == NCPoly.one(rs, 2)
    # P0 commutes with both twist legs, so its coproduct is unchanged
    p0 = NCPoly.gen(rs, "P0")
    assert CoproductMap(b, tw)(p0) == b.coproduct_on_leg(p0, 1)


def test_twisted_coproduct_p1_closed_form(igl2):
    # conjugating 1(x)P1 by exp(i h P0 (x) L11) dresses it with exp(i h P0):
    # Delta_F(P1) = P1(x)1 + sum_k (i h)^k/k! P0^k (x) P1
    b, tw = igl2.bialg, igl2.twist
    rs = b.rs
    got = CoproductMap(b, tw)(NCPoly.gen(rs, "P1"))
    want = NCPoly.gen(rs, "P1", leg=1, nlegs=2)
    coeff = GaussRational(1)
    for k in range(rs.order + 1):
        word = NCPoly.from_word(rs, ["P0"] * k, nlegs=2, leg=1)
        tail = NCPoly.gen(rs, "P1", leg=2, nlegs=2)
        want = want + (word * tail).scale(TruncSeries.h_power(k, rs.order, coeff))
        coeff = coeff * GaussRational(0, Fraction(1, k + 1))
    assert got == want


def test_twisted_coproduct_laws(igl2):
    b, tw = igl2.bialg, igl2.twist
    rs = b.rs
    delta = CoproductMap(b, tw)
    rng = random.Random(31)
    names = [g.name for g in rs.generators]
    samples = [NCPoly.gen(rs, n) for n in names[:3]]
    samples.append(NCPoly.from_word(rs, ["L11", "P0"]))
    for p in samples:
        cop = delta(p)
        # coassociativity via the cocycle identity
        assert delta.on_leg(cop, 1) == delta.on_leg(cop, 2)
        # counit laws via the normalization
        assert b.counit_on_leg(cop, 1) == p
        assert b.counit_on_leg(cop, 2) == p
    for _ in range(5):
        p = NCPoly.from_word(rs, [rng.choice(names) for _ in range(2)])
        q = NCPoly.from_word(rs, [rng.choice(names) for _ in range(2)])
        assert delta(p * q) == delta(p) * delta(q)


def test_r_matrix_examples(igl2):
    b, tw = igl2.bialg, igl2.twist
    rs = b.rs
    assert trivial_twist(b).r_matrix == NCPoly.one(rs, 2)
    R = tw.r_matrix
    # triangularity: R R_21 = 1
    assert R * R.swap_legs() == NCPoly.one(rs, 2)
    # abelian exponent t gives R = exp(t_21 - t) = exp(-2t + 2t_21)/..: verify directly
    t = twist_exponent(preset("igl2-abelian"), rs)
    want = (t.swap_legs() - t).exp_truncated()
    assert R == want


def test_r_matrix_antisymmetric_exponent_pattern():
    # for an exponent with t_21 = -t the R-matrix collapses to exp(2 t_21)
    prob = materialize("heisenberg", order=4)
    rs = prob.bialg.rs
    t = twist_exponent(preset("heisenberg"), rs)
    assert t.swap_legs() == -t
    R = prob.twist.r_matrix
    assert R == t.swap_legs().scale(2).exp_truncated()


def test_classical_r_extract(igl2):
    b, tw = igl2.bialg, igl2.twist
    rs = b.rs
    r0, cybe0 = classical_r_extract(NCPoly.one(rs, 2))
    assert r0.is_zero() and cybe0.is_zero()
    R = tw.r_matrix
    r, cybe = classical_r_extract(R)
    # frozen from expanding F_21 F^{-1} to first order
    i = GaussRational(0, 1)
    want = (
        NCPoly.gen(rs, "L11", leg=1, nlegs=2) * NCPoly.gen(rs, "P0", leg=2, nlegs=2)
    ).scale(i) - (
        NCPoly.gen(rs, "P0", leg=1, nlegs=2) * NCPoly.gen(rs, "L11", leg=2, nlegs=2)
    ).scale(i)
    assert r == want
    assert cybe.is_zero()
    with pytest.raises(ValueError):
        classical_r_extract(NCPoly.gen(rs, "P0", leg=1, nlegs=2))


def test_classical_r_cybe_for_presets(igl2, pw):
    for prob in (igl2, pw):
        R = prob.twist.r_matrix
        _, cybe = classical_r_extract(R)
        assert cybe.is_zero()


def test_quasitriangular_cocommutative(igl2):
    b = igl2.bialg
    res = check_quasitriangular(b, NCPoly.one(b.rs, 2), CoproductMap(b, None))
    assert all(v.is_zero() for v in res.values())


def test_quasitriangular_twisted(igl2, pw):
    for prob in (igl2, pw):
        b, tw = prob.bialg, prob.twist
        R = tw.r_matrix
        res = check_quasitriangular(b, R, CoproductMap(b, tw))
        assert all(v.is_zero() for v in res.values())


def test_quasitriangular_negative_control(igl2):
    # 1(x)1 + h X(x)Y is not an R-matrix: the hexagons fail at order h^2
    b = igl2.bialg
    rs = b.rs
    R = NCPoly.one(rs, 2) + (
        NCPoly.gen(rs, "L01", leg=1, nlegs=2) * NCPoly.gen(rs, "L10", leg=2, nlegs=2)
    ).scale(TruncSeries.h_power(1, rs.order))
    res = check_quasitriangular(b, R, CoproductMap(b, None))
    assert not res["hexagon-left"].is_zero()


def test_inv_unipotent(igl2):
    rs = igl2.bialg.rs
    R = igl2.twist.r_matrix
    assert inv_unipotent(R) * R == NCPoly.one(rs, 2)
    with pytest.raises(ValueError):
        inv_unipotent(NCPoly.gen(rs, "P0", leg=1, nlegs=2))


PERTURBED = Path(__file__).parent / "golden" / "pw-jordanian-perturbed.json"


@pytest.mark.parametrize("source, order", [
    *((name, order) for name in PRESET_NAMES for order in range(1, 6)),
    ("perturbed", None),
])
def test_reused_products_give_the_old_residuals(source, order):
    # Yang-Baxter reuses the hexagon products with the other bracketing:
    # same element, same text
    if source == "perturbed":
        prob = materialize(json.loads(PERTURBED.read_text()))
    else:
        prob = materialize(source, order=order)
    b = prob.bialg
    R = prob.twist.r_matrix
    r12, r13, r23 = (R.place_legs(legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
    old = r12 * r13 * r23 - r23 * r13 * r12
    new = check_quasitriangular(b, R, CoproductMap(b, prob.twist))["yang-baxter"]
    assert new == old
    assert repr(new) == repr(old)


def test_the_twist_keeps_one_r_matrix(igl2):
    R = igl2.twist.r_matrix
    assert igl2.twist.r_matrix is R
    assert R == igl2.twist.F.swap_legs() * igl2.twist.F_inv
    assert trivial_twist(igl2.bialg).r_matrix == NCPoly.one(igl2.bialg.rs, 2)
