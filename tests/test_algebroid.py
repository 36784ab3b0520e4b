"""Bialgebroid constructions, canonical tensor forms, twisting, equivalence."""

import copy
import random

import pytest

import algebroid_oracle as ref
from conftest import smash_elem, trivial_twist
from smashtwist.algebroid import (
    SmashBialgebroid,
    TensorOverA,
    bm_bialgebroid,
    bm_bialgebroid_twisted,
    check_bialgebroid_axioms,
    check_qt_shifted,
    delta_left,
    delta_right,
    shift_legs,
    shift_twist,
    shifted_twist_residuals,
    verify_theorem,
    xu_twist,
)
from smashtwist.modalg import PolyCoord, act, monomials_up_to
from smashtwist.ncpoly import NCPoly
from smashtwist.registry import materialize
from smashtwist.reporting import ResidualReport, evaluate
from smashtwist.scalars import GaussRational, TruncSeries
from smashtwist.smash import SmashAlgebra, SmashElem, SmashProduct, phi, spanning_words


@pytest.fixture(scope="module")
def igl2():
    return materialize("igl2-abelian", order=2)


@pytest.fixture(scope="module")
def pw():
    return materialize("pw-jordanian", order=2)


@pytest.fixture(scope="module")
def bd_plain(igl2):
    return bm_bialgebroid(igl2.smash)


@pytest.fixture(scope="module")
def bd_twisted(igl2):
    return bm_bialgebroid_twisted(igl2.smash, igl2.twist)


@pytest.fixture(scope="module")
def bd_xu(igl2):
    bd0 = bm_bialgebroid(igl2.smash)
    return xu_twist(bd0, shift_twist(bd0, igl2.twist))


def coords(prob):
    return [PolyCoord.coord(prob.rep.dim, prob.order, mu) for mu in range(prob.rep.dim)]


def test_normalize_moves_coordinates_left(igl2, bd_plain):
    alg = igl2.smash
    x0, _ = coords(igl2)
    one = alg.rs.unit
    T = bd_plain.tensor_from_pairs([(alg.one(), alg.coord_elem(x0), one)])
    # trivial R: t(x0) = x0 (x) 1, so the left factor absorbs the coordinate
    assert T.terms == {((1, 0), (), ()): TruncSeries.one(igl2.order)}
    # already-canonical input is unchanged
    u = smash_elem(alg, x0, NCPoly.gen(alg.rs, "P0"))
    T2 = bd_plain.tensor_from_pairs([(u, bd_plain.pure((alg.rs.rank_of["L01"],)), one)])
    key = ((1, 0), (alg.rs.rank_of["P0"],), (alg.rs.rank_of["L01"],))
    assert T2.terms == {key: TruncSeries.one(igl2.order)}


def test_tensor_well_definedness_oracle(igl2, bd_twisted):
    # normalize(t(a) m (x) n) == normalize(m (x) s(a) n) on random samples
    alg = igl2.smash
    rng = random.Random(2024)
    span = alg.spanning(1)
    monos = [
        PolyCoord.monomial(2, igl2.order, e)
        for e in [(1, 0), (0, 1), (1, 1), (2, 0)]
    ]
    for bd in (bd_twisted,):
        for _ in range(40):
            a = rng.choice(monos)
            m, n = rng.choice(span), rng.choice(span)
            lhs = bd.tensor_from_pairs([(bd.total(bd.target(a), m), n, alg.rs.unit)])
            rhs = bd.tensor_from_pairs([(m, bd.total(bd.source(a), n), alg.rs.unit)])
            assert lhs == rhs


def test_bm_maps(igl2, bd_plain, bd_twisted):
    alg = igl2.smash
    x0, x1 = coords(igl2)
    # trivial R: target equals source
    assert bd_plain.target(x0) == bd_plain.source(x0) == alg.coord_elem(x0)
    # twisted side: source is unchanged, target picks up R-legs
    assert bd_twisted.source(x1) == alg.coord_elem(x1)
    assert bd_twisted.target(x1) != alg.coord_elem(x1)
    R = igl2.twist.r_matrix
    want = SmashElem(alg, {})
    for word, c in R.terms.items():
        part = act(alg.rep, NCPoly(alg.rs, 1, {(word[1],): TruncSeries.one(igl2.order)}), x1)
        hw = NCPoly(alg.rs, 1, {(word[0],): TruncSeries.one(igl2.order)})
        want = want + smash_elem(alg, part, hw).scale(c)
    assert bd_twisted.target(x1) == want


def test_bm_coproduct_and_counit(igl2, bd_plain):
    alg = igl2.smash
    x0, _ = coords(igl2)
    pnu = NCPoly.gen(alg.rs, "P1")
    m = smash_elem(alg, x0, pnu)
    T = bd_plain.coproduct(m)
    rank = alg.rs.rank_of["P1"]
    assert T.terms == {
        ((1, 0), (rank,), ()): TruncSeries.one(igl2.order),
        ((1, 0), (), (rank,)): TruncSeries.one(igl2.order),
    }
    assert bd_plain.counit(m).is_zero()
    assert bd_plain.counit(alg.coord_elem(x0)) == x0


def test_construction_refused_without_braided_base(igl2):
    # the twisted R-matrix with the undeformed commutative product is not
    # braided commutative, so the constructor must refuse
    R = igl2.twist.r_matrix
    with pytest.raises(ValueError, match="braided"):
        SmashBialgebroid("smash-bialgebroid", igl2.smash, igl2.smash.product(None), R)


def test_anchor_action(igl2, bd_plain, bd_twisted):
    alg = igl2.smash
    x0, x1 = coords(igl2)
    b = x0 * x1
    p = NCPoly.from_word(alg.rs, ["L01", "P0"])
    for bd, m, a, value in ((bd_plain, alg.one(), b, b),
                            (bd_plain, alg.h_elem(p), b, act(alg.rep, p, b)),
                            (bd_twisted, alg.coord_elem(x0), x1, bd_twisted.base(x0, x1))):
        assert bd.anchor(m, a) == value
        # the anchor reads the same through the target: eps(m s(a)) = eps(m t(a))
        assert bd.counit(bd.total(m, bd.target(a))) == value


def test_a_target_that_breaks_the_anchor_fails_the_counit_product_law(igl2, bd_plain):
    broken = copy.copy(bd_plain)
    broken._memos = {}  # the copy must not fill the fixture's memos
    broken.target = lambda a: SmashElem(igl2.smash, {})
    law = check_bialgebroid_axioms(broken, 1)["counit-product"]
    # eps(1 s(eps(1))) = 1, while eps(1 t(eps(1))) = 0
    assert law.failures[0][0].startswith("t-form (1)*1#1")


def test_shift_twist_validates(igl2, bd_plain):
    shifted = shift_twist(bd_plain, igl2.twist)
    report = shifted_twist_residuals(bd_plain, shifted)
    assert all(rep.ok() for rep in report.values())
    # trivial twist shifts to the tensor unit
    triv = shift_twist(bd_plain, trivial_twist(igl2.bialg))
    assert triv.forward == bd_plain.tensor_unit()


def test_shift_rmatrix_laws(igl2, bd_twisted):
    R = igl2.twist.r_matrix
    Rt = shift_legs(bd_twisted, R)
    # counit contractions collapse to the unit
    assert Rt.counit_left() == bd_twisted.unit()
    assert Rt.counit_right() == bd_twisted.unit()
    # coproduct laws are preserved (reported by the qt check below as well)
    lhs = delta_left(bd_twisted, Rt)
    r13 = shift_legs(bd_twisted, R, (1, 3), 3)
    r23 = shift_legs(bd_twisted, R, (2, 3), 3)
    assert lhs == r13.mul(r23)


def test_report_check_records_a_failure_iff_the_residual_is_nonzero(bd_plain, monkeypatch):
    calls = []
    record = ResidualReport.record

    def spy(self, *args, **kwargs):
        calls.append((args, kwargs))
        record(self, *args, **kwargs)

    monkeypatch.setattr(ResidualReport, "record", spy)
    unit = bd_plain.tensor_unit()
    rep = evaluate("two tensors", lambda: [("zero", unit - unit), ("unit", unit)])
    assert rep.checked == 2
    assert rep.failures == [("unit", unit)]
    # positional, as a hook on record reads its arguments
    assert calls == [(("zero", False, unit - unit), {}), (("unit", True, unit), {})]


def test_a_callable_label_is_made_only_for_a_failing_case(bd_plain, monkeypatch):
    calls = []
    record = ResidualReport.record

    def spy(self, *args):
        calls.append(args)
        record(self, *args)

    def label(text):
        def make():
            made.append(text)
            return text
        return make

    made = []
    monkeypatch.setattr(ResidualReport, "record", spy)
    unit = bd_plain.tensor_unit()
    rep = evaluate("two tensors", lambda: [(label("zero"), unit - unit), (label("unit"), unit)])
    assert made == ["unit"]
    assert rep.failures == [("unit", unit)]
    # a passing case hands record an empty label
    assert calls == [("", False, unit - unit), ("unit", True, unit)]


def test_qt_shifted_trivial_has_no_witness(igl2, bd_plain):
    out = check_qt_shifted(bd_plain, NCPoly.one(igl2.smash.rs, 2), degree=1)
    assert out["preserved"].ok()
    assert out["closed_forms"].ok()
    law = out["intertwining"]
    assert (law.status(), law.summary(), law.checked) == \
        ("pass", "no witness: difference vanishes", 1)


def test_qt_shifted_twisted_has_witness(igl2, bd_twisted):
    R = igl2.twist.r_matrix
    out = check_qt_shifted(bd_twisted, R, degree=1)
    assert out["preserved"].ok()
    assert out["closed_forms"].ok()
    assert out["intertwining"].status() == "witness"
    _, diff = out["intertwining"].failures[0]
    lowest = min(
        c.lowest_order() for c in diff.terms.values()
    )
    assert lowest == 1


def test_qt_shifted_specific_witness(igl2, bd_twisted):
    # the intertwining failure is visible on x0 (x) P0 at order h
    from smashtwist.hopf import inv_unipotent
    alg = igl2.smash
    R = igl2.twist.r_matrix
    Rt = shift_legs(bd_twisted, R)
    Rt_inv = shift_legs(bd_twisted, inv_unipotent(R))
    m = smash_elem(alg, PolyCoord.coord(2, igl2.order, 0), NCPoly.gen(alg.rs, "P0"))
    lhs = Rt.mul(bd_twisted.coproduct(m)).mul(Rt_inv)
    rhs = bd_twisted.coproduct(m).flip()
    diff = lhs - rhs
    assert not diff.is_zero()
    assert min(c.lowest_order() for c in diff.terms.values()) == 1


def test_xu_trivial_twist_changes_nothing(igl2, bd_plain):
    alg = igl2.smash
    bd = xu_twist(bd_plain, shift_twist(bd_plain, trivial_twist(igl2.bialg)))
    x0, x1 = coords(igl2)
    assert bd.base(x0, x1) == bd_plain.base(x0, x1)
    assert bd.source(x0) == bd_plain.source(x0)
    assert bd.target(x0) == bd_plain.target(x0)
    for m in alg.spanning(1)[:8]:
        assert bd.coproduct(m).terms == bd_plain.coproduct(m).terms


def test_xu_source_target_formulas(igl2, bd_plain, bd_xu):
    # s(a) = (Fbar_1 on a) (x) Fbar_2 for the shifted twist
    alg = igl2.smash
    twist = igl2.twist
    for mu in range(2):
        a = PolyCoord.coord(2, igl2.order, mu)
        want = SmashElem(alg, {})
        for fword, cf in twist.F_inv.terms.items():
            apart = alg.rep.act_word(fword[0], (1, 0) if mu == 0 else (0, 1))
            hw = NCPoly(alg.rs, 1, {(fword[1],): TruncSeries.one(igl2.order)})
            want = want + smash_elem(alg, apart, hw).scale(cf)
        assert bd_xu.source(a) == want
        # and phi transports the twisted-side source onto it
        assert phi(alg, twist, alg.coord_elem(a)) == want


def test_xu_base_is_star_product(igl2, bd_xu):
    from smashtwist.modalg import StarProduct, monomials_up_to
    star = StarProduct(igl2.rep, igl2.twist)
    for ea in monomials_up_to(2, 2):
        for eb in monomials_up_to(2, 2):
            a = PolyCoord.monomial(2, igl2.order, ea)
            b = PolyCoord.monomial(2, igl2.order, eb)
            assert bd_xu.base(a, b) == star(a, b)


def test_xu_coproduct_explicit_form(igl2, bd_plain, bd_xu):
    # the twisted coproduct in its fully expanded form:
    # (((F1)_(1) on a) (x) (F1)_(2) J_(1) Fbar_1') (x)_A (1 (x) F2 J_(2) Fbar_2')
    alg = igl2.smash
    rs = alg.rs
    twist = igl2.twist
    b = igl2.bialg

    def explicit(m):
        pairs = []
        for (e, w), c in m.terms.items():
            a_word = e
            for jsplit in b.word_splits(w):
                j1, j2, mult = jsplit
                for f_word, cf in twist.F.terms.items():
                    f1 = f_word[0]
                    f2 = f_word[1]
                    for f1split in b.word_splits(f1):
                        f1a, f1b, mult1 = f1split
                        for fi_word, cfi in twist.F_inv.terms.items():
                            fi1 = fi_word[0]
                            fi2 = fi_word[1]
                            apart = alg.rep.act_word(f1a, a_word)
                            if apart.is_zero():
                                continue
                            lw = rs.normalize_word((f1b + j1 + fi1,))
                            rw = rs.normalize_word((f2 + j2 + fi2,))
                            coeff = c * cf * cfi * (mult * mult1)
                            for w1, c1 in lw.items():
                                lelem = smash_elem(alg, apart, NCPoly(rs, 1, {w1: TruncSeries.one(rs.order)}))
                                for w2, c2 in rw.items():
                                    relem = bd_xu.pure(w2[0])
                                    pairs.append((lelem, relem, coeff * c1 * c2))
        return bd_xu.tensor_from_pairs(pairs)

    for m in list(alg.spanning(1))[:10]:
        assert bd_xu.coproduct(m) == explicit(m)


def test_axioms_all_three_constructions(igl2, bd_plain, bd_twisted, bd_xu):
    for bd in (bd_plain, bd_twisted, bd_xu):
        out = check_bialgebroid_axioms(bd, degree=1)
        assert all(rep.ok() for rep in out.values()), bd.name


def _takeuchi_invariant(bd, T):
    alg = bd.smash
    for mu in range(alg.dim):
        a = PolyCoord.coord(alg.dim, alg.rs.order, mu)
        ta, sa = bd.target(a), bd.source(a)
        lhs = bd.tensor_from_pairs([
            (bd.total(alg.basis_elem(e, wl), ta), bd.pure(wr), c)
            for (e, wl, wr), c in T.terms.items()
        ])
        rhs = bd.tensor_from_pairs([
            (alg.basis_elem(e, wl), bd.total(bd.pure(wr), sa), c)
            for (e, wl, wr), c in T.terms.items()
        ])
        if lhs != rhs:
            return False
    return True


def test_takeuchi_closed_under_products(igl2, bd_twisted):
    # coproduct images are invariant, and their component-wise products
    # re-pass the invariance check
    alg = igl2.smash
    span = alg.spanning(1)[:6]
    images = [bd_twisted.coproduct(m) for m in span]
    for T in images:
        assert _takeuchi_invariant(bd_twisted, T)
    for T in images[:3]:
        for S in images[:3]:
            assert _takeuchi_invariant(bd_twisted, T.mul(S))


def test_twisted_construction_with_trivial_twist_degenerates(igl2, bd_plain):
    alg = igl2.smash
    bd = bm_bialgebroid_twisted(alg, trivial_twist(igl2.bialg))
    x0, x1 = coords(igl2)
    assert bd.base(x0, x1) == bd_plain.base(x0, x1)
    assert bd.source(x0) == bd_plain.source(x0)
    assert bd.target(x0) == bd_plain.target(x0)
    for m in alg.spanning(1)[:6]:
        assert bd.coproduct(m).terms == bd_plain.coproduct(m).terms


def test_twisted_coproduct_of_pure_elements_matches_hopf_level(igl2, bd_twisted):
    # independent construction: conjugate the primitive coproduct at the
    # Hopf level, then shift legs into the tensor square
    from smashtwist.hopf import CoproductMap

    alg = igl2.smash
    rs = alg.rs
    for name in ("P0", "P1", "L01", "L11"):
        J = NCPoly.gen(rs, name)
        want = shift_legs(bd_twisted, CoproductMap(igl2.bialg, igl2.twist)(J))
        assert bd_twisted.coproduct(alg.h_elem(J)) == want


def test_coassociativity_checks_both_orders(igl2, bd_twisted):
    alg = igl2.smash
    for m in alg.spanning(1)[:6]:
        T = bd_twisted.coproduct(m)
        assert delta_left(bd_twisted, T) == delta_right(bd_twisted, T)


def test_verify_theorem_trivial(igl2):
    out = verify_theorem(igl2.smash, trivial_twist(igl2.bialg), degree=1)
    assert all(rep.ok() for rep in out.values())


def test_verify_theorem_small(pw):
    out = verify_theorem(pw.smash, pw.twist, degree=2)
    assert all(rep.ok() for rep in out.values())


def test_verify_theorem_larger_algebra():
    # 20-generator alphabet with a four-dimensional coordinate sector
    prob = materialize("igl4-abelian", order=2)
    out = verify_theorem(prob.smash, prob.twist, degree=1)
    assert all(rep.ok() for rep in out.values())


def _direct_xu_maps(bd, shifted, new_bd):
    """The xu_twist source, target and coproduct evaluated from the formula
    on every call: the reference for the maps memoized on basis elements."""
    Ft, Fi = shifted.forward, shifted.inverse
    smash = bd.smash

    def source(a):
        out = SmashElem(smash, {})
        for (e, wl, wr), c in Fi.terms.items():
            la = bd.anchor(smash.basis_elem(e, wl), a)
            out = out + bd.total(bd.source(la), bd.pure(wr)).scale(c)
        return out

    def target(a):
        out = SmashElem(smash, {})
        for (e, wl, wr), c in Fi.terms.items():
            ra = bd.anchor(bd.pure(wr), a)
            out = out + bd.total(bd.target(ra), smash.basis_elem(e, wl)).scale(c)
        return out

    def coproduct(m):
        pairs = []
        for (e, wl, wr), c in bd.coproduct(m).mul(Fi).terms.items():
            for (ef, flw, frw), cf in Ft.terms.items():
                pairs.append((
                    bd.total(smash.basis_elem(ef, flw), smash.basis_elem(e, wl)),
                    bd.total(bd.pure(frw), bd.pure(wr)),
                    c * cf,
                ))
        return new_bd.tensor_from_pairs(pairs)

    return source, target, coproduct


@pytest.mark.parametrize("name, order", [
    ("trivial", 2), ("heisenberg", 2), ("igl2-abelian", 2),
    ("igl4-abelian", 1), ("pw-jordanian", 2),
])
def test_xu_memoized_maps_match_direct_formula(name, order):
    prob = materialize(name, order=order)
    smash = prob.smash
    bd0 = bm_bialgebroid(smash)
    shifted = shift_twist(bd0, prob.twist)
    bd = xu_twist(bd0, shifted)
    source, target, coproduct = _direct_xu_maps(bd0, shifted, bd)

    top = TruncSeries.h_power(order, order)  # h^N: any O(h) product truncates
    mixed = TruncSeries(order, [2] + [GaussRational(1, -3)] * order)
    span = smash.spanning(1)
    combos = list(span)
    combos += [span[k].scale(mixed) + span[-1 - k].scale(top) for k in range(len(span))]
    combos += [m.scale(top) for m in span]
    truncated = 0
    for m in combos:
        got = bd.coproduct(m)
        assert got == coproduct(m), repr(m)
        assert all(not c.is_zero() for c in got.terms.values())
        if m.terms and len(got.terms) < len(bd.coproduct(SmashElem(
                smash, {k: TruncSeries.one(order) for k in m.terms})).terms):
            truncated += 1
    if not prob.twist.is_trivial():
        assert truncated  # some h^N-scaled image lost terms to truncation

    dim = smash.dim
    monos = [PolyCoord.monomial(dim, order, e) for e in monomials_up_to(dim, 2)]
    polys = monos + [
        monos[k].scale(mixed) + monos[-1 - k].scale(top) for k in range(len(monos))
    ]
    for a in polys:
        for memoized, direct in ((bd.source, source), (bd.target, target)):
            got = memoized(a)
            assert got == direct(a), repr(a)
            assert all(not c.is_zero() for c in got.terms.values())


def test_axiom_and_theorem_reports_are_each_timed():
    prob = materialize("heisenberg", order=1)
    bd = bm_bialgebroid_twisted(prob.smash, prob.twist)
    reports = list(check_bialgebroid_axioms(bd, 1).values())
    out = verify_theorem(prob.smash, prob.twist, degree=1)
    reports += list(out.values())
    assert len(reports) == 12
    for rep in reports:
        assert rep.wall_ms > 0, rep.domain


# -- key-level products against the element-level formula --------------------


def _old_total(bd, ku, kv):
    """Product of two basis keys formed as the tensor layer used to: wrap
    both keys as carrier elements and multiply them.  The oracle for
    ``SmashProduct.on_basis``."""
    return bd.total(bd.smash.basis_elem(*ku), bd.smash.basis_elem(*kv))


def _old_mul(S, T):
    bd, z = S.bd, S.bd._zero_exp
    return ref.tensor_from_pairs(bd, [
        (_old_total(bd, (e1, w1), (e2, w2)), _old_total(bd, (z, r1), (z, r2)), c1 * c2)
        for (e1, w1, r1), c1 in S.terms.items()
        for (e2, w2, r2), c2 in T.terms.items()
    ])


def _old_mul3(S, T):
    bd, z = S.bd, S.bd._zero_exp
    return ref.tensor_from_triples(bd, [
        (_old_total(bd, (e1, w1), (e2, w2)), _old_total(bd, (z, m1), (z, m2)),
         _old_total(bd, (z, r1), (z, r2)), c1 * c2)
        for (e1, w1, m1, r1), c1 in S.terms.items()
        for (e2, w2, m2, r2), c2 in T.terms.items()
    ])


def _old_xu_coproduct(bd0, shifted, new_bd, m):
    z = bd0._zero_exp
    pairs = []
    for (e, wl, wr), c in _old_mul(bd0.coproduct(m), shifted.inverse).terms.items():
        for (ef, flw, frw), cf in shifted.forward.terms.items():
            pairs.append((_old_total(bd0, (ef, flw), (e, wl)),
                          _old_total(bd0, (z, frw), (z, wr)), c * cf))
    return ref.tensor_from_pairs(new_bd, pairs)


def _old_right_split(bd0, shifted, exp, word):
    smash, z = bd0.smash, bd0._zero_exp
    a = PolyCoord.monomial(smash.dim, smash.order, exp)
    items = []
    for (e, wl, wr), c in shifted.forward.terms.items():
        apoly = bd0.anchor(smash.basis_elem(e, wl), a)
        if apoly.is_zero():
            continue
        for (_, wr2), cr2 in _old_total(bd0, (z, wr), (z, word)).terms.items():
            items.append((apoly, wr2, c * cr2))
    return items


def _assert_same(new, old):
    assert new.terms == old.terms
    assert list(new.terms) == list(old.terms)  # same term order, so same bytes


def _assert_pair_caches_stripped(smash):
    for product in smash._memos[SmashAlgebra.product.__qualname__].values():
        for terms in product._memos.get(SmashProduct._pair.__qualname__, {}).values():
            assert all(not c.is_zero() for c in terms.values())


@pytest.fixture(scope="module", params=[
    "trivial", "heisenberg", "igl2-abelian", "igl4-abelian", "pw-jordanian",
])
def key_case(request):
    prob = materialize(request.param, order=2, degree=1)
    smash = prob.smash
    bd0 = bm_bialgebroid(smash)
    shifted = shift_twist(bd0, prob.twist)
    bds = (bd0, bm_bialgebroid_twisted(smash, prob.twist),
           xu_twist(bd0, shifted))
    span = smash.spanning(1)
    sample = span[::max(1, len(span) // 6)] + [span[-1]]
    return prob, bd0, shifted, bds, sample


def test_tensor_mul_by_key_matches_element_products(key_case):
    prob, bd0, shifted, bds, sample = key_case
    for bd in bds:
        images = [bd.coproduct(m) for m in sample]
        if bd is bd0:
            images += [shifted.forward, shifted.inverse]
        for S in images:
            for T in images:
                _assert_same(S.mul(T), _old_mul(S, T))
    _assert_pair_caches_stripped(prob.smash)


def test_tensor3_mul_by_key_matches_element_products(key_case):
    prob, bd0, shifted, bds, sample = key_case
    for bd in bds:
        images = [bd.coproduct(m) for m in sample[:3]]
        triples = [delta_left(bd, T) for T in images] + [delta_right(bd, images[-1])]
        for S in triples:
            for T in triples:
                _assert_same(S.mul(T), _old_mul3(S, T))
                _assert_same(S.mul(T), ref.mul3(S, T))
    _assert_pair_caches_stripped(prob.smash)


def test_xu_coproduct_and_right_split_by_key_match_element_products(key_case):
    prob, bd0, shifted, bds, sample = key_case
    bd_xu = bds[2]
    smash = prob.smash
    for m in smash.spanning(1):
        _assert_same(bd_xu.coproduct(m), _old_xu_coproduct(bd0, shifted, bd_xu, m))
    for exp in monomials_up_to(smash.dim, 1):
        for word in spanning_words(smash.rs, 1):
            got = [(a.terms, w, c) for a, w, c in bd_xu.right_split(exp, word)]
            want = [(a.terms, w, c) for a, w, c in _old_right_split(bd0, shifted, exp, word)]
            assert got == want, (exp, word)
            assert all(not c.is_zero() for _, _, c in got)
    _assert_pair_caches_stripped(smash)


def _bump_keeping_zeros(d: dict, key, value):
    """An accumulator that stores a fresh zero and deletes a sum that cancels."""
    if key not in d:
        d[key] = value
        return
    s = d[key] + value
    if s.is_zero():
        del d[key]
    else:
        d[key] = s


def _unstripped_pair(product, ku, kv):
    """The pair product's term dict before zero coefficients are dropped."""
    alg = product.algebra
    a = PolyCoord.monomial(alg.dim, alg.order, ku[0])
    out: dict = {}
    for left, right, cd in product.delta.word_splits(ku[1]):
        acted = alg.rep.act_word(left, kv[0])
        if acted.is_zero():
            continue
        hpart = alg.rs.leg_form(right + kv[1])
        for e2, c2 in product.star(a, acted).terms.items():
            for hw, ch in hpart.items():
                _bump_keeping_zeros(out, (e2, hw), cd * c2 * ch)
    return out


def test_key_product_drops_coefficients_that_truncate(pw):
    # on pw-jordanian at N=2, x1 # D times x0 # 1 under the twisted product
    # has a coefficient whose h-orders sum past N
    smash = pw.smash
    product = smash.product(pw.twist)
    rs = smash.rs
    ku, kv = ((0, 1), (rs.rank_of["D"],)), ((1, 0), ())
    raw = _unstripped_pair(product, ku, kv)
    assert any(c.is_zero() for c in raw.values())
    got = product.on_basis(ku, kv)
    want = product(smash.basis_elem(*ku), smash.basis_elem(*kv))
    _assert_same(got, want)
    assert got.terms == {k: c for k, c in raw.items() if not c.is_zero()}
    bd = bm_bialgebroid_twisted(smash, pw.twist)
    S = TensorOverA(bd, 2, {(ku[0], ku[1], ()): TruncSeries.one(smash.order)})
    T = TensorOverA(bd, 2, {(kv[0], kv[1], ()): TruncSeries.one(smash.order)})
    _assert_same(S.mul(T), _old_mul(S, T))
    _assert_pair_caches_stripped(smash)
