"""Built-in example presentations: algebras, representations and twists.

Each preset bundles structure constants, representation matrices and a twist
exponent that together pass every validity check shipped with the package:
Jacobi closure, the representation property, and the cocycle condition at the
recommended truncation order.  The exact exponents are engineering choices
tuned so that the deformed coordinate commutators come out in the standard
normalization [x^0, x^i] = i h x^i; validate() re-derives all of this rather
than trusting the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hopf import BialgebraPresentation, Twist, check_cocycle, twist_from_exponent
from .modalg import RepData
from .ncpoly import MOMENTUM, NCPoly, RewriteSystem, SYMMETRY
from .reporting import ResidualReport
from .scalars import GaussRational, TruncSeries, parse_scalar_literal, scalar_literals
from .smash import SmashAlgebra

PRESET_NAMES = ("trivial", "heisenberg", "igl2-abelian", "igl4-abelian", "pw-jordanian")


class InvalidPresetError(ValueError):
    """A preset failed one of its validity checks; the witness says where."""


@dataclass(frozen=True)
class ExamplePreset:
    name: str
    description: str
    order: int                      # recommended truncation order
    degree: int                     # recommended sampling degree
    generators: tuple               # ((name, sort), ...)
    brackets: dict                  # (a, b) -> ((coeff, name-or-None), ...)
    matrices: dict                  # symmetry name -> matrix rows
    momenta: tuple                  # momentum names in coordinate order
    exponent: tuple = field(default=())  # ((coeff, left names, right names), ...)


def _igl_generators(n):
    gens = [(f"L{mu}{nu}", SYMMETRY) for mu in range(n) for nu in range(n)]
    gens += [(f"P{mu}", MOMENTUM) for mu in range(n)]
    return tuple(gens)


def _igl_brackets(n):
    out = {}
    # [L^mu_nu, L^alpha_beta] = delta^alpha_nu L^mu_beta - delta^mu_beta L^alpha_nu
    pairs = [(mu, nu) for mu in range(n) for nu in range(n)]
    for i, (mu, nu) in enumerate(pairs):
        for al, be in pairs[i + 1 :]:
            terms = []
            if al == nu:
                terms.append((1, f"L{mu}{be}"))
            if mu == be:
                terms.append((-1, f"L{al}{nu}"))
            if terms:
                out[(f"L{mu}{nu}", f"L{al}{be}")] = tuple(terms)
    # [L^mu_nu, P_rho] = delta_{nu rho} P_mu
    for mu in range(n):
        for nu in range(n):
            for rho in range(n):
                if nu == rho:
                    out[(f"L{mu}{nu}", f"P{rho}")] = ((1, f"P{mu}"),)
    return out


def _igl_matrices(n):
    # L^mu_nu acts through the matrix unit with a 1 in row mu, column nu
    mats = {}
    for mu in range(n):
        for nu in range(n):
            rows = [[0] * n for _ in range(n)]
            rows[mu][nu] = 1
            mats[f"L{mu}{nu}"] = tuple(tuple(r) for r in rows)
    return mats


def _igl_preset(n, order, degree):
    # abelian twist exponent i*h * P0 (x) (spatial trace of L)
    trace = tuple(f"L{k}{k}" for k in range(1, n))
    exponent = tuple(("i*h", ("P0",), (name,)) for name in trace)
    return ExamplePreset(
        name=f"igl{n}-abelian",
        description=f"inhomogeneous gl({n}) with the abelian momentum/trace twist",
        order=order,
        degree=degree,
        generators=_igl_generators(n),
        brackets=_igl_brackets(n),
        matrices=_igl_matrices(n),
        momenta=tuple(f"P{mu}" for mu in range(n)),
        exponent=exponent,
    )


def _pw_preset():
    # dilation plus momenta; jordanian exponent D (x) log(1 - i h P0)
    n = 2
    gens = (("D", SYMMETRY),) + tuple((f"P{mu}", MOMENTUM) for mu in range(n))
    brackets = {("D", f"P{mu}"): ((1, f"P{mu}"),) for mu in range(n)}
    identity = tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n))
    return ExamplePreset(
        name="pw-jordanian",
        description="dilation-extended momentum algebra with the jordanian twist",
        order=3,
        degree=2,
        generators=gens,
        brackets=brackets,
        matrices={"D": identity},
        momenta=tuple(f"P{mu}" for mu in range(n)),
        exponent=("jordanian",),
    )


def _heisenberg_preset():
    # no symmetry sector; constant-commutator twist on the momenta
    n = 2
    return ExamplePreset(
        name="heisenberg",
        description="momenta and coordinates only, constant-commutator twist",
        order=4,
        degree=2,
        generators=tuple((f"P{mu}", MOMENTUM) for mu in range(n)),
        brackets={},
        matrices={},
        momenta=tuple(f"P{mu}" for mu in range(n)),
        exponent=(
            ("1/2*i*h", ("P1",), ("P0",)),
            ("-1/2*i*h", ("P0",), ("P1",)),
        ),
    )


def _trivial_preset():
    base = _igl_preset(2, 3, 2)
    return ExamplePreset(
        name="trivial",
        description="inhomogeneous gl(2) with the zero twist exponent",
        order=base.order,
        degree=base.degree,
        generators=base.generators,
        brackets=base.brackets,
        matrices=base.matrices,
        momenta=base.momenta,
        exponent=(),
    )


_PRESETS = {
    "trivial": _trivial_preset,
    "heisenberg": _heisenberg_preset,
    "igl2-abelian": lambda: _igl_preset(2, 4, 2),
    "igl4-abelian": lambda: _igl_preset(4, 2, 2),
    "pw-jordanian": _pw_preset,
}


def preset(name: str) -> ExamplePreset:
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()


@dataclass
class Problem:
    """A preset materialized at a concrete truncation order."""

    preset: ExamplePreset
    order: int
    degree: int
    bialg: BialgebraPresentation
    rep: RepData
    smash: SmashAlgebra
    twist: Twist


def _jordanian_exponent(rs: RewriteSystem) -> NCPoly:
    """D (x) log(1 - i h P0), the log truncated at the working order."""
    d = NCPoly.gen(rs, "D", leg=1, nlegs=2)
    p0 = NCPoly.gen(rs, "P0", leg=2, nlegs=2)
    u = p0.scale(TruncSeries.h_power(1, rs.order, GaussRational(0, -1)))
    sigma = NCPoly.zero(rs, 2)
    power = NCPoly.one(rs, 2)
    for k in range(1, rs.order + 1):
        power = power * u
        if power.is_zero():
            break
        sign = 1 if k % 2 else -1
        sigma = sigma + power.scale(GaussRational(sign) / GaussRational(k))
    return d * sigma


def twist_exponent(pre: ExamplePreset, rs: RewriteSystem) -> NCPoly:
    """The preset's twist exponent as a two-leg element at rs's order."""
    if pre.exponent == ("jordanian",):
        return _jordanian_exponent(rs)
    t = NCPoly.zero(rs, 2)
    for coeff, left, right in pre.exponent:
        if isinstance(coeff, str):
            coeff = parse_scalar_literal(coeff, rs.order)
        lw = NCPoly.from_word(rs, left, nlegs=2, leg=1)
        rw = NCPoly.from_word(rs, right, nlegs=2, leg=2)
        t = t + (lw * rw).scale(coeff)
    return t


def _entry_literal(v) -> str:
    g = GaussRational.coerce(v)
    if g.im == 0:
        return str(g.re)
    if g.re == 0:
        if g.im == 1:
            return "i"
        if g.im == -1:
            return "-i"
        return f"{g.im}*i"
    raise ValueError("matrix entries mixing real and imaginary parts are not exportable")


def preset_to_config(pre: ExamplePreset | str, order: int | None = None) -> dict:
    """Export a preset in the problem-config format used by the CLI."""
    if isinstance(pre, str):
        pre = preset(pre)
    order = pre.order if order is None else order
    rs = RewriteSystem(order, pre.generators, pre.brackets)
    names = [g.name for g in rs.generators]
    exponent = []
    for word, coeff in sorted(twist_exponent(pre, rs).terms.items()):
        left = [names[r] for l, r in word if l == 1]
        right = [names[r] for l, r in word if l == 2]
        for literal in scalar_literals(coeff):
            exponent.append({"coeff": literal, "left": left, "right": right})
    brackets = []
    for (na, nb), terms in sorted(pre.brackets.items()):
        brackets.append({
            "left": na,
            "right": nb,
            "terms": [
                {"coeff": str(c), "gen": g} for c, g in terms
            ],
        })
    return {
        "name": pre.name,
        "order": order,
        "degree": pre.degree,
        "algebra": {
            "generators": [
                {"name": g.name, "sort": g.sort} for g in rs.generators
            ],
            "brackets": brackets,
        },
        "representation": {
            "momenta": list(pre.momenta),
            "matrices": {
                name: [[_entry_literal(v) for v in row] for row in rows]
                for name, rows in sorted(pre.matrices.items())
            },
        },
        "twist": {"exponent": exponent},
        "checks": ["twist", "star-table", "smash", "algebroid-bm", "algebroid-xu", "theorem"],
    }


def materialize(pre: ExamplePreset | str, order: int | None = None,
                degree: int | None = None, validate: bool = True) -> Problem:
    """Build the working objects for a preset at a chosen truncation order."""
    if isinstance(pre, str):
        pre = preset(pre)
    order = pre.order if order is None else order
    degree = pre.degree if degree is None else degree
    rs = RewriteSystem(order, pre.generators, pre.brackets, validate=validate)
    bialg = BialgebraPresentation(rs)
    rep = RepData(rs, pre.matrices, pre.momenta, validate=validate)
    smash = SmashAlgebra(bialg, rep)
    twist = twist_from_exponent(bialg, twist_exponent(pre, rs))
    return Problem(pre, order, degree, bialg, rep, smash, twist)


def jacobi_report(rs: RewriteSystem) -> ResidualReport:
    """One failure per triple with a nonzero Jacobi residual, or one passing case."""
    report = ResidualReport("jacobi")
    for na, nb, nc, res in rs.jacobi_residuals():
        report.record(f"({na}, {nb}, {nc})", True, res)
    if report.checked == 0:
        report.record("all triples", False)
    return report


def validate(pre: ExamplePreset | str, order: int | None = None) -> dict:
    """Re-derive every preset guarantee and report the residuals.

    Raises InvalidPresetError with the first witness when anything is
    nonzero, so a perturbed preset fails loudly.
    """
    if isinstance(pre, str):
        pre = preset(pre)
    order = pre.order if order is None else order
    rs = RewriteSystem(order, pre.generators, pre.brackets, validate=False)
    jacobi = jacobi_report(rs)
    rep_data = RepData(rs, pre.matrices, pre.momenta, validate=False)
    representation = rep_data.representation_residuals()

    bialg = BialgebraPresentation(rs)
    twist = twist_from_exponent(bialg, twist_exponent(pre, rs))
    cocycle = ResidualReport("cocycle")
    for label, res in check_cocycle(bialg, twist).items():
        cocycle.check(label, res)

    report = {"jacobi": jacobi, "representation": representation, "cocycle": cocycle}
    for name, rep in report.items():
        if not rep.ok():
            label, res = rep.witness()
            raise InvalidPresetError(
                f"preset {pre.name!r} fails {name} at {label}: {res!r}"
            )
    return report
