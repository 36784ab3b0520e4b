"""Built-in example problems, and the one way a problem config is materialized.

A preset is a config: ``preset(name, order)`` returns the dict that
``config.schema.json`` describes, the same a user writes in a config file and
the one ``export-preset`` prints.  Each bundles structure constants,
representation matrices and a twist exponent written out as literals to h^order.
The exponents are engineering choices tuned so that the deformed coordinate
commutators come out in the standard normalization [x^0, x^i] = i h x^i.

``materialize`` only builds: it checks no law of the table.  Jacobi closure
and the representation property are the ``Problem``'s reports, and the twist
laws are ``check-twist``'s records, each with a witness when it fails.

A config's exponent is exact only to h^order, so ``materialize`` refuses a
higher truncation order; a preset is built at the order it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .hopf import BialgebraPresentation, Twist, twist_from_exponent
from .modalg import RepData
from .ncpoly import COORDINATE, MOMENTUM, NCPoly, RewriteSystem, SYMMETRY
from .reporting import ResidualReport, evaluate
from .scalars import parse_scalar_literal
from .smash import SmashAlgebra

PRESET_NAMES = ("trivial", "heisenberg", "igl2-abelian", "igl4-abelian", "pw-jordanian")


def _config(name, order, generators, brackets, matrices, momenta, exponent):
    return {
        "name": name,
        "order": order,
        "degree": 2,
        "algebra": {
            "generators": [{"name": g, "sort": s} for g, s in generators],
            # sorted by the pair, so an export lists them in a fixed order
            "brackets": [{"left": a, "right": b,
                          "terms": [{"coeff": c, "gen": g} for c, g in terms]}
                         for (a, b), terms in sorted(brackets.items())],
        },
        "representation": {"momenta": list(momenta), "matrices": matrices},
        "twist": {"exponent": [{"coeff": c, "left": list(l), "right": list(r)}
                               for c, l, r in exponent]},
        "checks": ["twist", "star-table", "smash", "algebroid-bm", "algebroid-xu", "theorem"],
    }


def _igl(n, name, order, twisted=True):
    symmetries = [(mu, nu) for mu in range(n) for nu in range(n)]
    generators = [(f"L{mu}{nu}", SYMMETRY) for mu, nu in symmetries]
    generators += [(f"P{mu}", MOMENTUM) for mu in range(n)]
    brackets = {}
    # [L^mu_nu, L^alpha_beta] = delta^alpha_nu L^mu_beta - delta^mu_beta L^alpha_nu
    for i, (mu, nu) in enumerate(symmetries):
        for al, be in symmetries[i + 1:]:
            terms = [("1", f"L{mu}{be}")] if al == nu else []
            terms += [("-1", f"L{al}{nu}")] if mu == be else []
            if terms:
                brackets[(f"L{mu}{nu}", f"L{al}{be}")] = terms
        # [L^mu_nu, P_rho] = delta_{nu rho} P_mu
        brackets[(f"L{mu}{nu}", f"P{nu}")] = [("1", f"P{mu}")]
    # L^mu_nu acts through the matrix unit with a 1 in row mu, column nu
    matrices = {f"L{mu}{nu}": [["1" if (r, c) == (mu, nu) else "0" for c in range(n)]
                               for r in range(n)] for mu, nu in symmetries}
    # abelian twist exponent i*h * P0 (x) (spatial trace of L)
    exponent = [("1*i*h", ["P0"], [f"L{k}{k}"]) for k in range(1, n) if twisted]
    return _config(name, order, generators, brackets, matrices,
                   [f"P{mu}" for mu in range(n)], exponent)


def _pw_jordanian(order):
    # dilation plus momenta; jordanian exponent D (x) log(1 - i h P0), whose
    # h^k term is -(i h P0)^k / k
    exponent = []
    for k in range(1, order + 1):
        re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]  # i^k
        hpow = "h" if k == 1 else f"h^{k}"
        coeff = "*".join([str(Fraction(-(re or im), k))] + ["i"] * abs(im) + [hpow])
        exponent.append((coeff, ["D"], ["P0"] * k))
    return _config(
        "pw-jordanian", order, [("D", SYMMETRY), ("P0", MOMENTUM), ("P1", MOMENTUM)],
        {("D", "P0"): [("1", "P0")], ("D", "P1"): [("1", "P1")]},
        {"D": [["1", "0"], ["0", "1"]]}, ["P0", "P1"], exponent,
    )


def _heisenberg(order):
    # no symmetry sector; constant-commutator twist on the momenta
    return _config(
        "heisenberg", order, [("P0", MOMENTUM), ("P1", MOMENTUM)], {}, {}, ["P0", "P1"],
        [("-1/2*i*h", ["P0"], ["P1"]), ("1/2*i*h", ["P1"], ["P0"])],
    )


# name -> (builder of the config at an order, recommended order)
_PRESETS = {
    "trivial": (lambda order: _igl(2, "trivial", order, twisted=False), 3),
    "heisenberg": (_heisenberg, 4),
    "igl2-abelian": (lambda order: _igl(2, "igl2-abelian", order), 4),
    "igl4-abelian": (lambda order: _igl(4, "igl4-abelian", order), 2),
    "pw-jordanian": (_pw_jordanian, 3),
}


def preset(name: str, order: int | None = None) -> dict:
    """The named preset as a problem config, at ``order`` or its recommended one."""
    try:
        build, default_order = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return build(default_order if order is None else order)


@dataclass
class Problem:
    """A config materialized at a concrete truncation order, with its foundation reports."""

    config: dict
    order: int
    degree: int
    bialg: BialgebraPresentation
    rep: RepData
    smash: SmashAlgebra
    twist: Twist

    @cached_property
    def jacobi(self) -> ResidualReport:
        return jacobi_report(self.bialg.rs)

    @cached_property
    def representation(self) -> ResidualReport:
        return self.rep.representation_residuals()


def presentation(cfg: dict):
    """The config's alphabet and brackets in the form RewriteSystem takes."""
    algebra = cfg["algebra"]
    generators = [(g["name"], g["sort"]) for g in algebra["generators"]
                  if g["sort"] != COORDINATE]
    brackets = {(b["left"], b["right"]): [(t["coeff"], t.get("gen")) for t in b["terms"]]
                for b in algebra.get("brackets", [])}
    return generators, brackets


def twist_exponent(cfg: dict, rs: RewriteSystem) -> NCPoly:
    """The config's twist exponent as a two-leg element at rs's order."""
    t = NCPoly.zero(rs, 2)
    for term in cfg.get("twist", {}).get("exponent", []):
        lw = NCPoly.from_word(rs, term["left"], nlegs=2, leg=1)
        rw = NCPoly.from_word(rs, term["right"], nlegs=2, leg=2)
        t = t + (lw * rw).scale(parse_scalar_literal(term["coeff"], rs.order))
    return t


def materialize(cfg: dict | str, order: int | None = None,
                degree: int | None = None) -> Problem:
    """Build the working objects of a config, or of the preset so named, at a
    truncation order no higher than the config's."""
    if isinstance(cfg, str):
        cfg = preset(cfg, order)
    order = cfg["order"] if order is None else order
    if order > cfg["order"]:
        raise ValueError(f"order: {order} is above the config's order {cfg['order']}; "
                         f"its twist exponent is exact only to h^{cfg['order']}")
    degree = cfg.get("degree", 2) if degree is None else degree
    rs = RewriteSystem(order, *presentation(cfg))
    bialg = BialgebraPresentation(rs)
    representation = cfg["representation"]
    rep = RepData(rs, representation.get("matrices", {}), representation["momenta"])
    smash = SmashAlgebra(bialg, rep)
    twist = twist_from_exponent(bialg, twist_exponent(cfg, rs))
    return Problem(cfg, order, degree, bialg, rep, smash, twist)


def jacobi_report(rs: RewriteSystem) -> ResidualReport:
    """A failing case per triple with a nonzero Jacobi residual, or one passing case."""
    def cases():
        failing = [(f"({na}, {nb}, {nc})", res) for na, nb, nc, res in rs.jacobi_residuals()]
        yield from failing or [("all triples", NCPoly.zero(rs))]

    return evaluate(f"triples of {len(rs.generators)} generators: failing ones, else 1", cases)
