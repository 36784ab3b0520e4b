"""Acceptance gate: every criterion at its stated size and tolerance.

All arithmetic is exact, so every tolerance is literal zero.  Each test
prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -s`
to see them stream.
"""

import random
import time

import pytest

from conftest import normalize_rightmost
from smashtwist.algebroid import (
    bm_bialgebroid,
    bm_bialgebroid_twisted,
    check_bialgebroid_axioms,
    check_qt_shifted,
    shift_twist,
    verify_theorem,
    xu_twist,
)
from smashtwist.hopf import check_cocycle
from smashtwist.modalg import (
    PolyCoord,
    StarProduct,
    check_braided_commutativity,
    monomials_up_to,
    star_commutator_table,
)
from smashtwist.ncpoly import NCPoly
from smashtwist.registry import materialize
from smashtwist.scalars import GaussRational, TruncSeries
from smashtwist.smash import phi, phi_inv, verify_phi_homomorphism

NONTRIVIAL = ("igl2-abelian", "pw-jordanian")


@pytest.fixture(scope="module")
def problems():
    out = {}
    for name in NONTRIVIAL:
        out[(name, 3)] = materialize(name, order=3)
        out[(name, 4)] = materialize(name, order=4)
    out[("trivial", 3)] = materialize("trivial", order=3)
    return out


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_twist_validity(problems):
    # cocycle, inverse cocycle and normalization exactly zero at N=4
    for name in NONTRIVIAL:
        prob = problems[(name, 4)]
        t0 = time.perf_counter()
        res = check_cocycle(prob.bialg, prob.twist)
        bialg, tw = prob.bialg, prob.twist
        one1 = NCPoly.one(bialg.rs, 1)
        normalization_ok = all(
            bialg.counit_on_leg(elem, leg) == one1
            for elem in (tw.F, tw.F_inv)
            for leg in (1, 2)
        )
        elapsed = time.perf_counter() - t0
        ok = (
            res["cocycle"].is_zero()
            and res["inverse-cocycle"].is_zero()
            and normalization_ok
            and elapsed < 60.0
        )
        _report("1", ok, f"{name}: twist validity at N=4 in {elapsed:.2f}s")


def test_criterion_2_deformed_coordinate_table(problems):
    # [x0, xi]* = i h xi and [xi, xj]* = 0 for the abelian preset at every
    # order up to N; the jordanian table agrees at order h
    prob = problems[("igl2-abelian", 4)]
    table = star_commutator_table(StarProduct(prob.rep, prob.twist))
    ih = TruncSeries.h_power(1, prob.order, GaussRational(0, 1))
    ok = True
    for mu in range(prob.rep.dim):
        for nu in range(prob.rep.dim):
            want = PolyCoord.zero(prob.rep.dim, prob.order)
            if mu == 0 and nu != 0:
                want = PolyCoord.coord(prob.rep.dim, prob.order, nu).scale(ih)
            elif nu == 0 and mu != 0:
                want = -PolyCoord.coord(prob.rep.dim, prob.order, mu).scale(ih)
            ok = ok and table[mu][nu] == want
    _report("2", ok, "igl2-abelian table equals the deformed-coordinate relations at all orders <= N")

    pw = problems[("pw-jordanian", 3)]
    pw_table = star_commutator_table(StarProduct(pw.rep, pw.twist))
    ok = True
    for mu in range(pw.rep.dim):
        for nu in range(pw.rep.dim):
            got_h1 = {e: c.coefficient(1) for e, c in pw_table[mu][nu].terms.items()}
            want_h1 = {}
            if mu == 0 and nu != 0:
                want_h1 = {(0, 1): GaussRational(0, 1)}
            elif nu == 0 and mu != 0:
                want_h1 = {(0, 1): GaussRational(0, -1)}
            ok = ok and got_h1 == want_h1
    _report("2", ok, "pw-jordanian table matches at order h")


def test_criterion_3_braided_commutativity(problems):
    prob = problems[("igl2-abelian", 3)]
    star = StarProduct(prob.rep, prob.twist)
    R = prob.twist.r_matrix
    report = check_braided_commutativity(star, R, degree=3)
    _report("3", report.ok(), f"braided commutativity zero on {report.checked} monomial pairs (deg <= 3, N=3)")

    wrong = check_braided_commutativity(star, NCPoly.one(prob.bialg.rs, 2), degree=3)
    ok = not wrong.ok()
    if ok:
        _, res = wrong.failures[0]
        ok = min(c.lowest_order() for c in res.terms.values()) == 1
    _report("3", ok, "negative control: wrong R-matrix fails at order h")


def test_criterion_4_smash_isomorphism(problems):
    for name in NONTRIVIAL:
        prob = problems[(name, 3)]
        rep = verify_phi_homomorphism(prob.smash, prob.twist, degree=2)
        _report("4", rep.ok(), f"{name}: phi homomorphism zero on {rep.checked} pairs (N=3, d=2)")
        alg = prob.smash
        span = alg.spanning(2)
        ok = all(
            phi(alg, prob.twist, phi_inv(alg, prob.twist, u)) == u
            and phi_inv(alg, prob.twist, phi(alg, prob.twist, u)) == u
            for u in span
        )
        _report("4", ok, f"{name}: phi and its inverse compose to the identity on {len(span)} basis elements")


def test_criterion_5_bialgebroid_axioms(problems):
    prob = problems[("igl2-abelian", 3)]
    bd0 = bm_bialgebroid(prob.smash)
    out = check_bialgebroid_axioms(bd0, degree=2)
    _report("5", all(r.ok() for r in out.values()), "undeformed bialgebroid axioms (N=3, d=2)")
    for name in NONTRIVIAL:
        p = problems[(name, 3)]
        bdF = bm_bialgebroid_twisted(p.smash, p.twist)
        out = check_bialgebroid_axioms(bdF, degree=2)
        _report("5", all(r.ok() for r in out.values()), f"{name}: twisted smash bialgebroid axioms")
        base = bm_bialgebroid(p.smash)
        bdX = xu_twist(base, shift_twist(base, p.twist))
        out = check_bialgebroid_axioms(bdX, degree=2)
        _report("5", all(r.ok() for r in out.values()), f"{name}: twistor-deformed bialgebroid axioms")


def test_criterion_6_main_equivalence(problems):
    for name in NONTRIVIAL:
        prob = problems[(name, 3)]
        t0 = time.perf_counter()
        out = verify_theorem(prob.smash, prob.twist, degree=2)
        elapsed = time.perf_counter() - t0
        ok = all(law.ok() for law in out.values()) and elapsed < 600.0
        detail = (
            f"{name}: base products equal, phi intertwines products/source/target/"
            f"counit/coproduct ({', '.join(out)}) in {elapsed:.1f}s"
        )
        _report("6", ok, detail)


def test_criterion_7_shifted_r_matrix(problems):
    for name in NONTRIVIAL:
        prob = problems[(name, 3)]
        bdF = bm_bialgebroid_twisted(prob.smash, prob.twist)
        R = prob.twist.r_matrix
        out = check_qt_shifted(bdF, R, degree=1)
        intertwining = out["intertwining"]
        ok = (out["preserved"].ok() and out["closed_forms"].ok()
              and intertwining.status() == "witness")
        _report("7", ok, f"{name}: coproduct/counit laws preserved, intertwining "
                         f"{intertwining.summary()}")
    triv = problems[("trivial", 3)]
    bd = bm_bialgebroid(triv.smash)
    out = check_qt_shifted(bd, NCPoly.one(triv.smash.rs, 2), degree=1)
    ok = out["preserved"].ok() and out["intertwining"].status() == "pass"
    _report("7", ok, "trivial twist: intertwining difference vanishes identically")


def test_criterion_8_kernel_properties(problems):
    prob = problems[("igl2-abelian", 3)]
    rs = prob.smash.rs
    n = len(rs.generators)
    ok = True
    for a in range(n):
        for b in range(n):
            for c in range(n):
                word = ((a, b, c),)
                ok = ok and rs.normalize_word(word) == normalize_rightmost(rs, word)
    _report("8", ok, f"confluence: both rewrite orders agree on all {n ** 3} length-3 words")

    rng = random.Random(1234)
    alg = prob.smash
    span = alg.spanning(2)
    ok = True
    for twist in (None, prob.twist):
        mul = alg.product(twist)
        for _ in range(15):
            u, v, w = (rng.choice(span) for _ in range(3))
            ok = ok and mul(mul(u, v), w) == mul(u, mul(v, w))
    _report("8", ok, "associativity of both smash products on random degree-2 triples")

    bdF = bm_bialgebroid_twisted(prob.smash, prob.twist)
    bd0 = bm_bialgebroid(prob.smash)
    monos = [
        PolyCoord.monomial(2, prob.order, e)
        for e in monomials_up_to(2, 2)
        if sum(e) > 0
    ]
    samples = 0
    ok = True
    for bd in (bdF, bd0):
        for _ in range(60):
            a = rng.choice(monos)
            m, v = rng.choice(span), rng.choice(span)
            one = bd.smash.rs.unit
            lhs = bd.tensor_from_pairs([(bd.total(bd.target(a), m), v, one)])
            rhs = bd.tensor_from_pairs([(m, bd.total(bd.source(a), v), one)])
            ok = ok and lhs == rhs
            samples += 1
    _report("8", ok and samples >= 100,
            f"tensor-over-base well-definedness oracle on {samples} random samples")
