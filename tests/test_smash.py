"""Both smash products on the shared carrier, and the comparison map phi."""

import random

import pytest

from conftest import smash_elem, trivial_twist
from smash_oracle import action_on_base
from smashtwist.modalg import PolyCoord
from smashtwist.ncpoly import NCPoly
from smashtwist.registry import materialize
from smashtwist.scalars import GaussRational, TruncSeries
from smashtwist.smash import (
    SmashElem,
    phi,
    phi_inv,
    verify_phi_homomorphism,
)


@pytest.fixture(scope="module")
def igl2():
    return materialize("igl2-abelian", order=3)


@pytest.fixture(scope="module")
def pw():
    return materialize("pw-jordanian", order=3)


def coords(prob):
    dim, order = prob.rep.dim, prob.order
    return [PolyCoord.coord(dim, order, mu) for mu in range(dim)]


def test_factorized_generators(igl2):
    alg = igl2.smash
    rs = alg.rs
    x0, _ = coords(igl2)
    L = NCPoly.gen(rs, "L11")
    # (a (x) 1)(1 (x) L) = a (x) L in both products
    want = smash_elem(alg, x0, L)
    assert alg.product(None)(alg.coord_elem(x0), alg.h_elem(L)) == want
    assert alg.product(igl2.twist)(alg.coord_elem(x0), alg.h_elem(L)) == want


def test_momentum_coordinate_relation(igl2):
    alg = igl2.smash
    rs = alg.rs
    x0, x1 = coords(igl2)
    p1 = NCPoly.gen(rs, "P1")
    got = alg.product(None)(alg.h_elem(p1), alg.coord_elem(x1))
    assert got == alg.one() + smash_elem(alg, x1, p1)
    assert alg.product(None)(alg.h_elem(p1), alg.coord_elem(x0)) == smash_elem(alg, x0, p1)


def test_associativity_both_products(igl2, pw):
    for prob in (igl2, pw):
        alg = prob.smash
        rng = random.Random(606)
        span = alg.spanning(2)
        for twist in (None, prob.twist):
            mul = alg.product(twist)
            for _ in range(20):
                u, v, w = (rng.choice(span) for _ in range(3))
                assert mul(mul(u, v), w) == mul(u, mul(v, w))


def test_shared_unit(igl2):
    alg = igl2.smash
    span = alg.spanning(1)
    one = alg.one()
    for twist in (None, igl2.twist):
        mul = alg.product(twist)
        for u in span:
            assert mul(one, u) == u
            assert mul(u, one) == u


def test_twisted_mul_examples(igl2):
    alg = igl2.smash
    rs = alg.rs
    x0, x1 = coords(igl2)
    # trivial twist coincides with the undeformed product
    triv = trivial_twist(igl2.bialg)
    u, v = smash_elem(alg, x0, NCPoly.gen(rs, "P0")), smash_elem(alg, x1, NCPoly.gen(rs, "L01"))
    assert alg.product(triv)(u, v) == alg.product(None)(u, v)
    # deformed coordinate sector reproduces the deformed commutator
    ih = TruncSeries.h_power(1, rs.order, GaussRational(0, 1))
    got = (
        alg.product(igl2.twist)(alg.coord_elem(x0), alg.coord_elem(x1))
        - alg.product(igl2.twist)(alg.coord_elem(x1), alg.coord_elem(x0))
    )
    assert got == alg.coord_elem(x1).scale(ih)
    # the Hopf sector is untouched
    L, J = NCPoly.gen(rs, "L10"), NCPoly.from_word(rs, ["L01", "P1"])
    assert alg.product(igl2.twist)(alg.h_elem(L), alg.h_elem(J)) == alg.h_elem(L * J)


def test_subalgebra_embeddings(igl2):
    alg = igl2.smash
    rs = alg.rs
    x0, x1 = coords(igl2)
    for twist in (None, igl2.twist):
        mul = alg.product(twist)
        # Hopf subalgebra is multiplicative for both products
        for left, right in ((("L01",), ("P1",)), (("L11", "P0"), ("L10",))):
            p, q = NCPoly.from_word(rs, left), NCPoly.from_word(rs, right)
            assert mul(alg.h_elem(p), alg.h_elem(q)) == alg.h_elem(p * q)
        # coordinate subалgebra multiplies by the matching star product
        star = mul.star
        got = mul(alg.coord_elem(x0), alg.coord_elem(x1))
        assert got == alg.coord_elem(star(x0, x1))


def test_phi_examples(igl2):
    alg = igl2.smash
    rs = alg.rs
    x0, _ = coords(igl2)
    triv = trivial_twist(igl2.bialg)
    u = smash_elem(alg, x0, NCPoly.gen(rs, "P0"))
    assert phi(alg, triv, u) == u
    # normalization fixes the Hopf subalgebra pointwise
    for name in ("P0", "L01", "L11"):
        he = alg.h_elem(NCPoly.gen(rs, name))
        assert phi(alg, igl2.twist, he) == he
    # frozen expansion: phi_inv(x0 (x) 1) = x0 (x) 1 + i h (1 (x) L11)
    ih = TruncSeries.h_power(1, rs.order, GaussRational(0, 1))
    got = phi_inv(alg, igl2.twist, alg.coord_elem(x0))
    want = alg.coord_elem(x0) + alg.h_elem(NCPoly.gen(rs, "L11")).scale(ih)
    assert got == want


def test_phi_bijective(igl2, pw):
    for prob in (igl2, pw):
        alg = prob.smash
        for u in alg.spanning(2):
            assert phi(alg, prob.twist, phi_inv(alg, prob.twist, u)) == u
            assert phi_inv(alg, prob.twist, phi(alg, prob.twist, u)) == u


def test_algebra_is_collectable_after_phi():
    import gc
    import weakref

    prob = materialize("heisenberg", order=1)
    alg = prob.smash
    u = alg.spanning(1)[-1]
    assert phi_inv(alg, prob.twist, phi(alg, prob.twist, u)) == u
    ref = weakref.ref(alg)
    del prob, alg, u
    gc.collect()
    assert ref() is None


def test_phi_homomorphism_trivial(igl2):
    report = verify_phi_homomorphism(igl2.smash, trivial_twist(igl2.bialg), degree=1)
    assert report.ok()


def test_phi_homomorphism_small(pw):
    report = verify_phi_homomorphism(pw.smash, pw.twist, degree=2)
    assert report.ok()
    assert report.checked == 60 * 60


def test_phi_report_is_shared_by_theorem(monkeypatch):
    import smashtwist.smash as smash_module
    from smashtwist.algebroid import verify_theorem
    from smashtwist.cli import Report

    prob = materialize("heisenberg", order=1)
    alg = prob.smash
    rep = alg.phi_report(prob.twist, 1)
    assert alg.phi_report(prob.twist, 1) is rep
    monkeypatch.setattr(smash_module, "verify_phi_homomorphism",
                        lambda *a: pytest.fail("phi sweep recomputed"))
    total = verify_theorem(alg, prob.twist, degree=1)["total-products"]
    assert total is rep
    # a report charges the shared sweep's time to the first record of it only
    report = Report("suite", "test", 1, 1)
    report.add_law("smash: phi homomorphism", "phi-intertwines-products", rep)
    report.add_law("theorem: total-products", "equivalence-total-products", total)
    assert [r["wall_ms"] for r in report.records] == [rep.wall_ms, 0.0]
    assert rep.wall_ms > 0


def test_product_rejects_foreign_elements(igl2):
    other = materialize("igl2-abelian", order=3).smash
    mul = igl2.smash.product(None)
    u, v = igl2.smash.one(), other.one()
    with pytest.raises(ValueError, match="elements from different smash algebras"):
        mul(u, v)
    with pytest.raises(ValueError, match="elements do not belong to this product's algebra"):
        mul(v, v)
    with pytest.raises(TypeError, match="expected SmashElem, got int"):
        mul(u, 1)


def test_phi_corruption_detected(igl2):
    # dropping the Hopf-side twist factor (keeping only the coordinate
    # action of the inverse twist) breaks the homomorphism law
    alg = igl2.smash
    rs = alg.rs
    twist = igl2.twist
    deformed = alg.product(twist)
    plain = alg.product(None)

    def bad_phi(u):
        out = SmashElem(alg, {})
        for (e, w), c in u.terms.items():
            word_poly = NCPoly(rs, 1, {(w,): TruncSeries.one(rs.order)})
            for fword, cf in twist.F_inv.terms.items():
                apart = alg.rep.act_word(fword[0], e)
                out = out + smash_elem(alg, apart, word_poly).scale(c * cf)
        return out

    failures = 0
    for u in alg.spanning(1):
        for v in alg.spanning(1):
            res = bad_phi(deformed(u, v)) - plain(bad_phi(u), bad_phi(v))
            if not res.is_zero():
                failures += 1
    assert failures > 0
    # the exact pair derived by hand: (x0 (x) P1) against (x1 (x) 1)
    u = smash_elem(alg, PolyCoord.coord(2, rs.order, 0), NCPoly.gen(rs, "P1"))
    v = alg.coord_elem(PolyCoord.coord(2, rs.order, 1))
    res = bad_phi(deformed(u, v)) - plain(bad_phi(u), bad_phi(v))
    ih = TruncSeries.h_power(1, rs.order, GaussRational(0, 1))
    want = smash_elem(alg, PolyCoord.coord(2, rs.order, 1), NCPoly.gen(rs, "P1")).scale(ih)
    assert res == want


def test_canonical_action(igl2):
    alg = igl2.smash
    rs = alg.rs
    x0, x1 = coords(igl2)
    b = x0 * x1
    # (a (x) 1) acts by star multiplication, (1 (x) L) by the Hopf action
    from smashtwist.modalg import StarProduct, act
    star = StarProduct(alg.rep, igl2.twist)
    got = action_on_base(alg.product(igl2.twist), alg.coord_elem(x0), b)
    assert got == star(x0, b)
    p = NCPoly.from_word(rs, ["L01", "P0"])
    assert action_on_base(alg.product(None), alg.h_elem(p), b) == act(alg.rep, p, b)
    assert action_on_base(alg.product(None), alg.one(), b) == b


def test_canonical_action_is_representation(igl2):
    alg = igl2.smash
    rng = random.Random(15)
    span = alg.spanning(1)
    monos = [PolyCoord.coord(2, alg.order, 0), PolyCoord.coord(2, alg.order, 1)]
    b = monos[0] * monos[1]
    for twist in (None, igl2.twist):
        mul = alg.product(twist)
        for _ in range(15):
            u, v = rng.choice(span), rng.choice(span)
            lhs = action_on_base(mul, mul(u, v), b)
            rhs = action_on_base(mul, u, action_on_base(mul, v, b))
            assert lhs == rhs
