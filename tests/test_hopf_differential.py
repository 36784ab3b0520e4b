"""Differential test: the twisted coproduct through the exponent against
conjugation by the full twist.

``CoproductMap`` sums exp(ad t) over the twist's exponent t;
tests/hopf_oracle.py keeps the F Delta(x) F^{-1} it replaced.  Both must give
the same terms, coefficients and string form on every preset at orders 2-5
(igl4-abelian at 2), on the non-cocycle exponent of
``test_hopf.py::test_cocycle_negative_control`` and on the perturbed
jordanian exponent of the golden corpus, for 1-, 2- and 3-leg elements on
every leg.
"""

import functools
import json
import random
from pathlib import Path

import pytest

import hopf_oracle as ref
from smashtwist.hopf import BialgebraPresentation, CoproductMap, twist_from_exponent
from smashtwist.ncpoly import NCPoly, RewriteSystem
from smashtwist.registry import PRESET_NAMES, presentation, preset, twist_exponent
from smashtwist.scalars import TruncSeries, parse_scalar_literal

PERTURBED = Path(__file__).parent / "golden" / "pw-jordanian-perturbed.json"


def non_cocycle_exponent(rs):
    t = NCPoly.gen(rs, "L01", leg=1, nlegs=2) * NCPoly.gen(rs, "L10", leg=2, nlegs=2)
    return t.scale(TruncSeries.h_power(1, rs.order))


CASES = [(name, order, "config") for name in PRESET_NAMES
         for order in ((2,) if name == "igl4-abelian" else (2, 3, 4, 5))]
CASES += [("igl2-abelian", order, "non-cocycle") for order in (2, 3, 4, 5)]
CASES += [("perturbed", order, "config") for order in (2, 3, 4, 5)]


@functools.cache
def problem(name, order, exponent):
    cfg = json.loads(PERTURBED.read_text()) if name == "perturbed" else preset(name, order)
    rs = RewriteSystem(order, *presentation(cfg))
    bialg = BialgebraPresentation(rs)
    t = non_cocycle_exponent(rs) if exponent == "non-cocycle" else twist_exponent(cfg, rs)
    return bialg, twist_from_exponent(bialg, t)


def elements(rs, nlegs, seed):
    """Every generator on every leg, and a few sums of normal-ordered words
    with one to three letters in all and coefficients of mixed valuation."""
    names = [g.name for g in rs.generators]
    out = [NCPoly.gen(rs, n, leg=leg, nlegs=nlegs)
           for n in names for leg in range(1, nlegs + 1)]
    rng = random.Random(seed)
    coeffs = [parse_scalar_literal(c, rs.order) for c in ("1", "-1/2", "i", "h", "2*i*h", "h^2")]
    for _ in range(4):
        x = NCPoly.zero(rs, nlegs)
        for _ in range(3):
            term = NCPoly.one(rs, nlegs)
            for _ in range(rng.randint(1, 3)):
                term = term * NCPoly.gen(rs, rng.choice(names), leg=rng.randint(1, nlegs),
                                         nlegs=nlegs)
            x = x + term.scale(rng.choice(coeffs))
        out.append(x)
    return out


def assert_same_poly(got, want):
    assert got.nlegs == want.nlegs
    assert got.terms == want.terms
    assert repr(got) == repr(want)


@pytest.mark.parametrize("nlegs", (1, 2, 3))
@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_twisted_coproduct_matches_full_conjugation(case, nlegs):
    bialg, twist = problem(*case)
    delta = CoproductMap(bialg, twist)
    for x in elements(bialg.rs, nlegs, seed=3 * CASES.index(case) + nlegs):
        for leg in range(1, nlegs + 1):
            assert_same_poly(delta.on_leg(x, leg), ref.twisted_on_leg(bialg, twist, x, leg))
        if nlegs == 1:
            assert_same_poly(delta(x), ref.twisted_on_leg(bialg, twist, x, 1))
