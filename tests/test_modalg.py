"""The coordinate module algebra: actions, star products, braided laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smashtwist.hopf import trivial_twist
from smashtwist.modalg import (
    PolyCoord,
    RepData,
    StarProduct,
    _mat_mul,
    act,
    check_braided_commutativity,
    check_module_algebra,
    coaction,
    monomials_up_to,
    star_commutator_table,
)
from smashtwist.ncpoly import NCPoly
from smashtwist.registry import materialize, preset
from smashtwist.scalars import GaussRational, TruncSeries


@pytest.fixture(scope="module")
def igl2():
    return materialize("igl2-abelian", order=3)


@pytest.fixture(scope="module")
def pw():
    return materialize("pw-jordanian", order=3)


def coords(prob):
    dim, order = prob.rep.dim, prob.rep.rs.order
    return [PolyCoord.coord(dim, order, mu) for mu in range(dim)]


def test_action_on_generators(igl2):
    rep = igl2.rep
    rs = rep.rs
    x0, x1 = coords(igl2)
    one = PolyCoord.one(2, rs.order)
    # momenta differentiate their own coordinate
    assert act(rep, NCPoly.gen(rs, "P0"), x0) == one
    assert act(rep, NCPoly.gen(rs, "P0"), x1).is_zero()
    # symmetry: L^mu_nu sends x^mu to -x^nu and kills the others
    assert act(rep, NCPoly.gen(rs, "L01"), x0) == -x1
    assert act(rep, NCPoly.gen(rs, "L01"), x1).is_zero()
    assert act(rep, NCPoly.gen(rs, "L11"), x1) == -x1


def test_action_leibniz(igl2):
    rep = igl2.rep
    rs = rep.rs
    x0, x1 = coords(igl2)
    assert act(rep, NCPoly.gen(rs, "P0"), x0 * x1) == x1
    # scalar part acts by scaling
    mixed = NCPoly.scalar(rs, 3) + NCPoly.gen(rs, "P0").scale(TruncSeries.h_power(1, rs.order))
    got = act(rep, mixed, x0)
    want = x0.scale(3) + PolyCoord.one(2, rs.order).scale(TruncSeries.h_power(1, rs.order))
    assert got == want
    assert act(rep, NCPoly.one(rs), x0 * x0) == x0 * x0


def test_action_is_representation(igl2):
    rep = igl2.rep
    rs = rep.rs
    rng = random.Random(9)
    names = [g.name for g in rs.generators]
    monos = monomials_up_to(2, 3)
    for _ in range(25):
        p = NCPoly.from_word(rs, [rng.choice(names) for _ in range(2)])
        q = NCPoly.from_word(rs, [rng.choice(names) for _ in range(2)])
        a = PolyCoord.monomial(2, rs.order, rng.choice(monos))
        assert act(rep, p * q, a) == act(rep, p, act(rep, q, a))


def test_degree_bookkeeping(igl2):
    rep = igl2.rep
    rs = rep.rs
    for exp in monomials_up_to(2, 3):
        mono = PolyCoord.monomial(2, rs.order, exp)
        for name, shift in (("P0", -1), ("P1", -1), ("L01", 0), ("L11", 0)):
            out = act(rep, NCPoly.gen(rs, name), mono)
            for e in out.terms:
                assert sum(e) == sum(exp) + shift


def bad_l01_representation():
    """igl2-abelian's momenta and matrices, with L01 swapping the coordinates."""
    representation = preset("igl2-abelian")["representation"]
    representation["matrices"]["L01"] = [["0", "1"], ["1", "0"]]
    return representation["momenta"], representation["matrices"]


def test_representation_validation_catches_corruption(igl2):
    momenta, bad = bad_l01_representation()  # not the matrix of L01 in this bracket table
    rep = RepData(igl2.rep.rs, bad, momenta)
    assert not rep.representation_residuals().ok()


def test_representation_composes_against_the_brackets():
    # with [D, P0] = 2 P0 the Jacobi identity still holds and D's matrix is
    # unchanged, but P0 D = D P0 - 2 P0 no longer acts as P0 after D on x0
    cfg = preset("pw-jordanian", 2)
    cfg["algebra"]["brackets"][0]["terms"][0]["coeff"] = "2"
    prob = materialize(cfg)
    assert prob.jacobi.ok()
    report = prob.representation
    assert not report.ok()
    assert report.witness()[0] == "compose [D,P0] on x0"


def test_module_algebra_residuals(igl2):
    report = check_module_algebra(igl2.bialg, igl2.rep, degree=2)
    assert report.ok()
    assert report.checked > 0


def test_module_algebra_negative_control(igl2):
    # a corrupted matrix keeps the letterwise Leibniz law but breaks the
    # compatibility of the action with the rewriting relations
    momenta, bad = bad_l01_representation()
    rep = RepData(igl2.rep.rs, bad, momenta)
    report = check_module_algebra(igl2.bialg, rep, degree=2)
    assert not report.ok()
    label, _ = report.witness()
    assert "relations" in label


def test_star_trivial_is_commutative_product(igl2):
    star = StarProduct(igl2.rep, trivial_twist(igl2.bialg))
    x0, x1 = coords(igl2)
    assert star(x0, x1) == x0 * x1
    assert star.twist is None


def test_star_kappa_relations(igl2):
    star = StarProduct(igl2.rep, igl2.twist)
    x0, x1 = coords(igl2)
    ih = TruncSeries.h_power(1, igl2.order, GaussRational(0, 1))
    assert star(x0, x1) - star(x1, x0) == x1.scale(ih)
    assert star(x1, x1) == x1 * x1


def test_star_table(igl2, pw):
    triv_table = star_commutator_table(StarProduct(igl2.rep, trivial_twist(igl2.bialg)))
    assert all(entry.is_zero() for row in triv_table for entry in row)
    for prob in (igl2, pw):
        table = star_commutator_table(StarProduct(prob.rep, prob.twist))
        ih = TruncSeries.h_power(1, prob.order, GaussRational(0, 1))
        x1 = PolyCoord.coord(prob.rep.dim, prob.order, 1)
        assert table[0][1] == x1.scale(ih)
        assert table[1][1].is_zero()
        assert table[1][0] == -table[0][1]


def test_star_unit_and_associativity(igl2, pw):
    for prob in (igl2, pw):
        star = StarProduct(prob.rep, prob.twist)
        one = PolyCoord.one(prob.rep.dim, prob.order)
        monos = [
            PolyCoord.monomial(prob.rep.dim, prob.order, e)
            for e in monomials_up_to(prob.rep.dim, 2)
        ]
        for a in monos:
            assert star(one, a) == a
            assert star(a, one) == a
        rng = random.Random(13)
        for _ in range(20):
            a, b, c = (rng.choice(monos) for _ in range(3))
            assert star(star(a, b), c) == star(a, star(b, c))


def test_braided_commutativity(igl2, pw):
    for prob in (igl2, pw):
        star = StarProduct(prob.rep, prob.twist)
        R = prob.twist.r_matrix
        assert check_braided_commutativity(star, R, degree=2).ok()
    # plain product with trivial R is plainly commutative
    star0 = StarProduct(igl2.rep, None)
    assert check_braided_commutativity(star0, NCPoly.one(igl2.bialg.rs, 2), 2).ok()


def test_braided_commutativity_negative_control(igl2):
    # the deformed product with the WRONG R-matrix fails at order h
    star = StarProduct(igl2.rep, igl2.twist)
    report = check_braided_commutativity(star, NCPoly.one(igl2.bialg.rs, 2), degree=2)
    assert not report.ok()
    _, res = report.witness()
    assert min(c.lowest_order() for c in res.terms.values()) == 1


def test_coaction(igl2):
    alg = igl2.smash
    rs = igl2.bialg.rs
    x0 = PolyCoord.coord(2, rs.order, 0)
    # trivial R: delta(a) = a (x) 1
    got = coaction(alg, NCPoly.one(rs, 2), x0)
    assert got == alg.coord_elem(x0)
    R = igl2.twist.r_matrix
    mixed = coaction(alg, R, x0)
    # leading term a (x) 1 plus h-corrections with nontrivial Hopf factors
    assert mixed.terms[((1, 0), ())] == TruncSeries.one(rs.order)
    assert any(w for (_, w) in mixed.terms)
    # counit collapse: contracting the Hopf leg returns the input
    collapsed = PolyCoord(2, rs.order, {
        e: c for (e, w), c in mixed.terms.items() if not w
    })
    assert collapsed == x0


# entries that are zero about half of the time, as in representation matrices
_entries = st.one_of(
    st.just(GaussRational(0)),
    st.builds(GaussRational, st.fractions(max_denominator=5), st.fractions(max_denominator=5)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(*(
    st.lists(st.lists(_entries, min_size=m, max_size=m).map(tuple), min_size=m, max_size=m)
    .map(tuple) for _ in range(2)))))
def test_sparse_matrix_product_matches_the_dense_one(ab):
    a, b = ab
    m = len(a)
    dense = tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), GaussRational(0)) for j in range(m))
        for i in range(m)
    )
    assert _mat_mul(a, b) == dense


def test_coordinate_product_drops_a_coefficient_that_truncates():
    # h^2 * h^2 vanishes at order 3: no (0)*x0 x1 term may be kept
    h2 = TruncSeries.h_power(2, 3)
    product = PolyCoord.monomial(2, 3, (1, 0), h2) * PolyCoord.monomial(2, 3, (0, 1), h2)
    assert product.is_zero()
    assert product == PolyCoord.zero(2, 3)
    assert repr(product) == "0"
    # a surviving term keeps its value
    h = TruncSeries.h_power(1, 3)
    kept = PolyCoord.monomial(2, 3, (1, 0), h2) * PolyCoord.monomial(2, 3, (0, 1), h)
    assert kept == PolyCoord.monomial(2, 3, (1, 1), TruncSeries.h_power(3, 3))


def test_coordinate_generators_carry_the_problems_unit(monkeypatch):
    from smashtwist import cli

    probs, made = [], []

    def materialize_recording(*args, **kwargs):
        probs.append(materialize(*args, **kwargs))
        return probs[-1]

    def recording(build):
        def wrapper(*args):
            made.append(build(*args))
            return made[-1]
        return staticmethod(wrapper)

    monkeypatch.setattr(cli, "materialize", materialize_recording)
    monkeypatch.setattr(PolyCoord, "coord", recording(PolyCoord.coord))
    monkeypatch.setattr(PolyCoord, "one", recording(PolyCoord.one))
    common = ["--preset", "pw-jordanian", "--order", "2", "--degree", "1"]
    for argv in (["algebroid-verify", *common], ["star-table", *common],
                 ["commutator", "x0", "x1", "--deformed", *common]):
        probs.clear()
        made.clear()
        assert cli.main(argv) == cli.EXIT_PASS
        prob, = probs
        assert made, argv[0]
        unit = prob.bialg.rs.unit
        assert all(c is unit for p in made for c in p.terms.values()), argv[0]


def test_module_algebra_sweep_shares_the_problems_presentation(monkeypatch):
    from smashtwist import cli, hopf

    built = []
    init = hopf.BialgebraPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hopf.BialgebraPresentation, "__init__", counting)
    argv = ["star-table", "--preset", "pw-jordanian", "--order", "2", "--degree", "1"]
    assert cli.main(argv) == cli.EXIT_PASS
    assert len(built) == 1


def test_module_algebra_refuses_a_presentation_of_another_alphabet(igl2):
    other = materialize("pw-jordanian", order=2)
    with pytest.raises(ValueError, match="different alphabets"):
        check_module_algebra(other.bialg, igl2.rep, 1)
