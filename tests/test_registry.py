"""Shipped presets and the reports that check them."""

import json
from fractions import Fraction

import pytest

from smashtwist.cli import EXIT_PASS, main
from smashtwist.modalg import PolyCoord, StarProduct, star_commutator_table
from smashtwist.ncpoly import NCPoly, RewriteSystem
from smashtwist.registry import (
    PRESET_NAMES,
    materialize,
    presentation,
    preset,
    twist_exponent,
)
from smashtwist.scalars import GaussRational, TruncSeries


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_passes_check_twist(name, capsys):
    # at the recommended order, check-twist's records cover what a preset
    # promises: Jacobi, the representation, the cocycle, the inverse and the
    # counit normalization
    assert main(["check-twist", "--preset", name]) == EXIT_PASS, capsys.readouterr().out


def test_unknown_preset():
    with pytest.raises(KeyError, match="unknown preset"):
        preset("su5-mystery")


def test_trivial_preset_is_trivial():
    prob = materialize("trivial")
    assert prob.twist.is_trivial()
    table = star_commutator_table(StarProduct(prob.rep, prob.twist))
    assert all(entry.is_zero() for row in table for entry in row)


def test_igl2_table_reproduces_deformed_coordinates():
    prob = materialize("igl2-abelian", order=3)
    table = star_commutator_table(StarProduct(prob.rep, prob.twist))
    ih = TruncSeries.h_power(1, 3, GaussRational(0, 1))
    x1 = PolyCoord.coord(2, 3, 1)
    assert table[0][1] == x1.scale(ih)
    assert table[1][0] == -x1.scale(ih)
    assert table[0][0].is_zero() and table[1][1].is_zero()


def test_jordanian_matches_abelian_at_first_order():
    a = materialize("igl2-abelian", order=3)
    j = materialize("pw-jordanian", order=3)
    ta = star_commutator_table(StarProduct(a.rep, a.twist))
    tj = star_commutator_table(StarProduct(j.rep, j.twist))
    for mu in range(2):
        for nu in range(2):
            ca = {e: c.coefficient(1) for e, c in ta[mu][nu].terms.items()}
            cj = {e: c.coefficient(1) for e, c in tj[mu][nu].terms.items()}
            assert ca == cj


def _bracket(cfg, left, right):
    return next(b for b in cfg["algebra"]["brackets"]
                if (b["left"], b["right"]) == (left, right))


def test_perturbed_preset_fails_with_witness():
    bad = preset("igl2-abelian", 2)
    bad["name"] = "bad"
    _bracket(bad, "L00", "L01")["terms"].append({"coeff": "1", "gen": "P1"})
    prob = materialize(bad)
    label, residual = prob.jacobi.witness()
    assert (label, repr(residual)) == ("(L00, L01, L11)", "(-2)*P1")


def test_perturbed_matrix_fails():
    bad = preset("igl2-abelian", 2)
    bad["name"] = "bad"
    bad["representation"]["matrices"]["L00"] = [["0", "1"], ["0", "0"]]
    prob = materialize(bad)
    assert prob.jacobi.ok()
    assert prob.representation.witness()[0] == "matrix [L00,L01]"


def test_igl4_spatial_trace_twist():
    prob = materialize("igl4-abelian", order=2)
    table = star_commutator_table(StarProduct(prob.rep, prob.twist))
    ih = TruncSeries.h_power(1, 2, GaussRational(0, 1))
    for k in range(1, 4):
        xk = PolyCoord.coord(4, 2, k)
        assert table[0][k] == xk.scale(ih)
    for j in range(1, 4):
        for k in range(1, 4):
            assert table[j][k].is_zero()


def test_preset_export_round_trip():
    from smashtwist.cli import validate_config

    for name in ("igl2-abelian", "pw-jordanian", "heisenberg"):
        cfg = json.loads(json.dumps(preset(name)))
        assert validate_config(cfg) == []
        orig = materialize(name)
        redo = materialize(cfg)
        # fresh context, so compare the coefficient data
        assert redo.twist.F.terms == orig.twist.F.terms
        assert redo.bialg.rs.names() == orig.bialg.rs.names()


def _log_series_exponent(rs):
    """D (x) log(1 - i h P0), the log expanded at rs's order in NCPoly arithmetic."""
    d = NCPoly.gen(rs, "D", leg=1, nlegs=2)
    u = NCPoly.gen(rs, "P0", leg=2, nlegs=2).scale(
        TruncSeries.h_power(1, rs.order, GaussRational(0, -1)))
    sigma, power = NCPoly.zero(rs, 2), NCPoly.one(rs, 2)
    for k in range(1, rs.order + 1):
        power = power * u
        sigma = sigma + power.scale(Fraction(1 if k % 2 else -1, k))
    return d * sigma


@pytest.mark.parametrize("order", range(7))
def test_jordanian_literals_are_the_log_series(order):
    cfg = preset("pw-jordanian", order)
    rs = RewriteSystem(order, *presentation(cfg))
    assert cfg["order"] == order and len(cfg["twist"]["exponent"]) == order
    assert twist_exponent(cfg, rs) == _log_series_exponent(rs)


def test_order_above_the_config_is_refused():
    cfg = preset("pw-jordanian", 3)
    assert materialize(cfg, order=2).order == 2
    with pytest.raises(ValueError, match=r"^order: 4 is above the config's order 3"):
        materialize(cfg, order=4)
