"""Command-line driver: load a problem, run check suites, emit reports.

Problems come either from a named preset or from a JSON config file following
the schema in docs/config.schema.json.  Every command produces a table of
check records, one per verified identity, and optionally a machine-readable
JSON report whose content is deterministic for a given input.  Exit status:
0 all requested checks have zero residual, 1 some residual is nonzero,
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .algebroid import (
    bm_bialgebroid,
    bm_bialgebroid_twisted,
    check_bialgebroid_axioms,
    check_qt_shifted,
    shift_twist,
    shifted_twist_residuals,
    verify_theorem,
    xu_twist,
)
from .hopf import (
    CoproductMap,
    InvalidTwistError,
    check_cocycle,
    check_quasitriangular,
    classical_r_extract,
    r_matrix_from_twist,
)
from .modalg import (
    PolyCoord,
    StarProduct,
    check_braided_commutativity,
    check_module_algebra,
    star_commutator_table,
)
from .ncpoly import COORDINATE, MOMENTUM, NCPoly, SYMMETRY
from .registry import (
    ExamplePreset,
    PRESET_NAMES,
    materialize,
    preset,
    preset_to_config,
)
from .reporting import ResidualReport
from .scalars import TruncSeries, parse_scalar_literal
from .smash import phi, phi_inv

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_INPUT = 2


class ConfigError(ValueError):
    """Schema violation in a problem config; message lists the paths."""


# -- report assembly -------------------------------------------------------


class Report:
    def __init__(self, command: str, source: str, order: int, degree: int):
        self.command = command
        self.source = source
        self.order = order
        self.degree = degree
        self.records = []

    def add(self, name, identity, status, residual, checked=1, wall_ms=0.0):
        self.records.append({
            "name": name,
            "identity": identity,
            "status": status,
            "residual": residual,
            "checked": checked,
            "wall_ms": wall_ms,
        })
        return status != "fail"

    def add_residual_report(self, name, identity, rep: ResidualReport, wall_ms=None):
        """Add one record for a report; its time defaults to ``rep.wall_ms``."""
        if wall_ms is None:
            wall_ms = rep.wall_ms
        if rep.ok():
            return self.add(name, identity, "pass", "0", rep.checked, wall_ms)
        label, res = rep.witness()
        return self.add(
            name, identity, "fail", f"{label}: {res!r}", rep.checked, wall_ms
        )

    @property
    def ok(self) -> bool:
        return all(r["status"] != "fail" for r in self.records)

    @property
    def exit_code(self) -> int:
        return EXIT_PASS if self.ok else EXIT_RESIDUAL

    def to_json(self) -> dict:
        # wall time is excluded so the artifact is byte-stable across runs
        return {
            "command": self.command,
            "source": self.source,
            "order": self.order,
            "degree": self.degree,
            "ok": self.ok,
            "records": [
                {k: v for k, v in r.items() if k != "wall_ms"} for r in self.records
            ],
        }

    def human(self) -> str:
        rows = [("status", "check", "identity", "cases", "time", "residual")]
        for r in self.records:
            rows.append((
                r["status"].upper(),
                r["name"],
                r["identity"],
                str(r["checked"]),
                f"{r['wall_ms']:.0f}ms",
                r["residual"] if len(r["residual"]) <= 60 else r["residual"][:57] + "...",
            ))
        widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * widths[k] for k in range(len(widths))))
        head = f"{self.command} [{self.source}] order={self.order} degree={self.degree}"
        tail = "all checks passed" if self.ok else "RESIDUAL FAILURE"
        return "\n".join([head, ""] + lines + ["", tail])


# -- config handling -------------------------------------------------------

_SORTS = (SYMMETRY, MOMENTUM, COORDINATE)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _non_negative_int(x) -> bool:
    # JSON true/false are not integers, though bool subclasses int
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def validate_config(cfg) -> list:
    """Structural validation; returns a list of error messages."""
    errors = []
    if not isinstance(cfg, dict):
        return ["config root must be an object"]

    def expect(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    def known_keys(obj, path, allowed):
        # every object of the schema sets additionalProperties: false
        for key in obj:
            expect(key in allowed, f"{path}{key}: unknown key")

    known_keys(cfg, "", ("name", "order", "degree", "algebra", "representation",
                         "twist", "checks"))
    if "name" in cfg:
        expect(isinstance(cfg["name"], str), "name: must be a string")
    expect(_non_negative_int(cfg.get("order")), "order: required non-negative integer")
    if "degree" in cfg:
        expect(_non_negative_int(cfg["degree"]), "degree: must be a non-negative integer")

    algebra = cfg.get("algebra")
    declared = set()
    sorts = {}

    def is_declared(name):
        # a list or an object is unhashable, so the type is checked first
        return isinstance(name, str) and name in declared

    if expect(isinstance(algebra, dict), "algebra: required object"):
        known_keys(algebra, "algebra.", ("generators", "brackets"))
        gens = algebra.get("generators")
        if expect(isinstance(gens, list) and gens, "algebra.generators: required non-empty list"):
            for k, g in enumerate(gens):
                path = f"algebra.generators[{k}]"
                if not expect(isinstance(g, dict), f"{path}: must be an object"):
                    continue
                known_keys(g, f"{path}.", ("name", "sort"))
                name = g.get("name")
                if expect(isinstance(name, str), f"{path}.name: required string"):
                    expect(_NAME.fullmatch(name) is not None,
                           f"{path}.name: {name!r} does not match {_NAME.pattern}")
                expect(g.get("sort") in _SORTS,
                       f"{path}.sort: must be one of {', '.join(_SORTS)}")
                if isinstance(name, str):
                    expect(name not in declared, f"{path}.name: duplicate {name!r}")
                    declared.add(name)
                    sorts[name] = g.get("sort")
        brackets = algebra.get("brackets", [])
        if not expect(isinstance(brackets, list), "algebra.brackets: must be a list"):
            brackets = []
        for k, b in enumerate(brackets):
            path = f"algebra.brackets[{k}]"
            if not expect(isinstance(b, dict), f"{path}: must be an object"):
                continue
            known_keys(b, f"{path}.", ("left", "right", "terms"))
            for side in ("left", "right"):
                expect(is_declared(b.get(side)),
                       f"{path}.{side}: undeclared generator {b.get(side)!r}")
            terms = b.get("terms")
            if expect(isinstance(terms, list), f"{path}.terms: required list"):
                for j, t in enumerate(terms):
                    tp = f"{path}.terms[{j}]"
                    if not expect(isinstance(t, dict), f"{tp}: must be an object"):
                        continue
                    known_keys(t, f"{tp}.", ("coeff", "gen"))
                    expect(isinstance(t.get("coeff"), str), f"{tp}.coeff: required string")
                    gen = t.get("gen")
                    expect(gen is None or is_declared(gen),
                           f"{tp}.gen: undeclared generator {gen!r}")

    rep = cfg.get("representation")
    if expect(isinstance(rep, dict), "representation: required object"):
        known_keys(rep, "representation.", ("momenta", "matrices"))
        momenta = rep.get("momenta")
        dim = 0
        if expect(isinstance(momenta, list) and momenta,
                  "representation.momenta: required non-empty list"):
            dim = len(momenta)
            for k, name in enumerate(momenta):
                expect(is_declared(name) and sorts.get(name) == MOMENTUM,
                       f"representation.momenta[{k}]: {name!r} is not a declared momentum")
        matrices = rep.get("matrices", {})
        if expect(isinstance(matrices, dict), "representation.matrices: must be an object"):
            for name, rows in matrices.items():
                path = f"representation.matrices.{name}"
                expect(name in declared and sorts.get(name) == SYMMETRY,
                       f"{path}: {name!r} is not a declared symmetry generator")
                if expect(isinstance(rows, list) and len(rows) == dim, f"{path}: needs {dim} rows"):
                    for rk, row in enumerate(rows):
                        if expect(isinstance(row, list) and len(row) == dim,
                                  f"{path}[{rk}]: needs {dim} entries"):
                            for ck, entry in enumerate(row):
                                expect(isinstance(entry, str),
                                       f"{path}[{rk}][{ck}]: must be a string")
            for name, sort in sorts.items():
                if sort == SYMMETRY:
                    expect(name in matrices, f"representation.matrices: missing {name!r}")

    twist = cfg.get("twist", {"exponent": []})
    if expect(isinstance(twist, dict), "twist: must be an object"):
        known_keys(twist, "twist.", ("exponent",))
        exponent = twist.get("exponent", [])
        if expect(isinstance(exponent, list), "twist.exponent: must be a list"):
            for k, term in enumerate(exponent):
                path = f"twist.exponent[{k}]"
                if not expect(isinstance(term, dict), f"{path}: must be an object"):
                    continue
                known_keys(term, f"{path}.", ("coeff", "left", "right"))
                expect(isinstance(term.get("coeff"), str), f"{path}.coeff: required string")
                for side in ("left", "right"):
                    words = term.get(side)
                    if expect(isinstance(words, list), f"{path}.{side}: required list"):
                        for j, name in enumerate(words):
                            expect(is_declared(name),
                                   f"{path}.{side}[{j}]: undeclared generator {name!r}")

    if "checks" in cfg:
        checks = cfg["checks"]
        if expect(isinstance(checks, list), "checks: must be a list"):
            for k, c in enumerate(checks):
                expect(isinstance(c, str) and c in SUITE_CHECKS,
                       f"checks[{k}]: unknown check {c!r}")
    return errors


def config_to_preset(cfg: dict) -> ExamplePreset:
    """Turn a validated config into the internal preset form."""
    gens = tuple(
        (g["name"], g["sort"])
        for g in cfg["algebra"]["generators"]
        if g["sort"] != COORDINATE
    )
    brackets = {}
    for b in cfg["algebra"].get("brackets", []):
        brackets[(b["left"], b["right"])] = tuple(
            (t["coeff"], t.get("gen")) for t in b["terms"]
        )
    exponent = tuple(
        (t["coeff"], tuple(t["left"]), tuple(t["right"]))
        for t in cfg.get("twist", {}).get("exponent", [])
    )
    return ExamplePreset(
        name=cfg.get("name", "config"),
        description="user config",
        order=cfg["order"],
        degree=cfg.get("degree", 2),
        generators=gens,
        brackets=brackets,
        matrices=cfg["representation"].get("matrices", {}),
        momenta=tuple(cfg["representation"]["momenta"]),
        exponent=exponent,
    )


def load_problem(args):
    """Build the working objects from --preset or --config."""
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("give either --preset or --config, not both")
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        errors = validate_config(cfg)
        if errors:
            raise ConfigError("config violates the schema:\n  " + "\n  ".join(errors))
        pre = config_to_preset(cfg)
        source = f"config:{args.config}"
        checks = cfg.get("checks")
    else:
        name = getattr(args, "preset", None) or "igl2-abelian"
        try:
            pre = preset(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
        source = f"preset:{name}"
        checks = None
    order = args.order if getattr(args, "order", None) is not None else pre.order
    degree = args.degree if getattr(args, "degree", None) is not None else pre.degree
    try:
        prob = materialize(pre, order=order, degree=degree, validate=False)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, InvalidTwistError):
            raise
        raise ConfigError(f"cannot build the problem: {exc}") from None
    return prob, source, checks


# -- shared check fragments -------------------------------------------------


def _timed(fn, *a, **kw):
    t0 = time.perf_counter()
    out = fn(*a, **kw)
    return out, (time.perf_counter() - t0) * 1000.0


def _poly_record(report, name, identity, residual, wall_ms=0.0):
    status = "pass" if residual.is_zero() else "fail"
    text = "0" if residual.is_zero() else repr(residual)
    return report.add(name, identity, status, text, 1, wall_ms)


def run_foundation_checks(report: Report, prob, fail_fast=False) -> bool:
    """Jacobi, representation and twist-validity records shared by commands."""
    rs = prob.bialg.rs
    t0 = time.perf_counter()
    jac = ResidualReport("jacobi")
    for na, nb, nc, res in rs.jacobi_residuals():
        jac.record(f"({na}, {nb}, {nc})", True, res)
    if jac.checked == 0:
        jac.record("all triples", False)
    ok = report.add_residual_report(
        "structure-constants", "jacobi-identity", jac,
        (time.perf_counter() - t0) * 1000.0,
    )
    if fail_fast and not ok:
        return False
    rep_res, ms = _timed(prob.rep.representation_residuals)
    ok = report.add_residual_report("representation", "representation-property", rep_res, ms)
    return ok or not fail_fast


def run_twist_checks(report: Report, prob, fail_fast=False) -> bool:
    bialg, twist = prob.bialg, prob.twist
    one2 = NCPoly.one(bialg.rs, 2)
    one1 = NCPoly.one(bialg.rs, 1)

    res, ms = _timed(lambda: twist.F * twist.F_inv - one2)
    if not _poly_record(report, "twist-inverse (left)", "two-sided-inverse", res, ms) and fail_fast:
        return False
    res, ms = _timed(lambda: twist.F_inv * twist.F - one2)
    if not _poly_record(report, "twist-inverse (right)", "two-sided-inverse", res, ms) and fail_fast:
        return False
    for leg, tag in ((1, "left"), (2, "right")):
        res, ms = _timed(lambda: bialg.counit_on_leg(twist.F, leg) - one1)
        if not _poly_record(report, f"normalization ({tag})", "counit-normalization", res, ms) and fail_fast:
            return False
        res, ms = _timed(lambda: bialg.counit_on_leg(twist.F_inv, leg) - one1)
        if not _poly_record(report, f"inverse normalization ({tag})", "counit-normalization", res, ms) and fail_fast:
            return False

    coc, ms = _timed(check_cocycle, bialg, twist)
    if not _poly_record(report, "cocycle", "twist-cocycle", coc["cocycle"], ms) and fail_fast:
        return False
    if not _poly_record(report, "inverse cocycle", "inverse-twist-cocycle", coc["inverse-cocycle"]) and fail_fast:
        return False

    R = r_matrix_from_twist(bialg, twist)
    delta = CoproductMap(bialg, twist)
    qt, ms = _timed(check_quasitriangular, bialg, R, delta)
    worst = ResidualReport("quasitriangular")
    for label, res in qt.items():
        worst.record(label, not res.is_zero(), res)
    if not report.add_residual_report("r-matrix laws", "quasi-triangularity", worst, ms) and fail_fast:
        return False

    (_, cybe), cybe_ms = _timed(classical_r_extract, R)
    triang, ms = _timed(lambda: R * R.swap_legs() - one2)
    if not _poly_record(report, "triangularity", "r-matrix-triangularity", triang, ms) and fail_fast:
        return False
    return _poly_record(report, "classical limit", "classical-yang-baxter", cybe, cybe_ms) or not fail_fast


# -- commands ---------------------------------------------------------------


def cmd_check_twist(args, loaded=None) -> Report:
    prob, source, _ = loaded or load_problem(args)
    report = Report("check-twist", source, prob.order, prob.degree)
    if run_foundation_checks(report, prob, args.fail_fast):
        run_twist_checks(report, prob, args.fail_fast)
    return report


def cmd_star_table(args, loaded=None) -> Report:
    prob, source, _ = loaded or load_problem(args)
    report = Report("star-table", source, prob.order, prob.degree)
    if not run_foundation_checks(report, prob, args.fail_fast):
        return report
    star = StarProduct(prob.rep, prob.twist)
    table, ms = _timed(star_commutator_table, star)
    names = prob.rep.coordinates
    for mu in range(prob.rep.dim):
        for nu in range(mu + 1, prob.rep.dim):
            entry = table[mu][nu]
            text = "0" if entry.is_zero() else repr(entry)
            report.add(
                f"[{names[mu]}, {names[nu]}]*", "star-commutator", "witness", text, 1,
                ms if (mu, nu) == (0, 1) else 0.0,
            )
    R = r_matrix_from_twist(prob.bialg, prob.twist)
    braided, ms = _timed(check_braided_commutativity, star, R, prob.degree + 1)
    report.add_residual_report("braided commutativity", "braided-commutativity", braided, ms)
    mod, ms = _timed(check_module_algebra, prob.rep, prob.degree)
    report.add_residual_report("module algebra", "action-leibniz-compatibility", mod, ms)
    return report


def cmd_smash_verify(args, loaded=None) -> Report:
    import random

    prob, source, _ = loaded or load_problem(args)
    report = Report("smash-verify", source, prob.order, prob.degree)
    if not run_foundation_checks(report, prob, args.fail_fast):
        return report
    alg = prob.smash
    rng = random.Random(4711)
    span = alg.spanning(prob.degree)
    triples = [tuple(rng.choice(span) for _ in range(3)) for _ in range(25)]
    for label, twist in (("undeformed", None), ("deformed", prob.twist)):
        mul = alg.product(twist)
        assoc = ResidualReport(f"associativity-{label}")
        unital = ResidualReport("unit")
        with assoc.timed():
            for u, v, w in triples:
                res = mul(mul(u, v), w) - mul(u, mul(v, w))
                assoc.record(f"{u!r};{v!r};{w!r}", not res.is_zero(), res)
            for u in span[:10]:
                res = mul(alg.one(), u) - u
                unital.record(f"1*{u!r}", not res.is_zero(), res)
                res = mul(u, alg.one()) - u
                unital.record(f"{u!r}*1", not res.is_zero(), res)
        assoc.merge(unital)
        if not report.add_residual_report(
            f"{label} product", "smash-associativity-unitality", assoc
        ) and args.fail_fast:
            return report

    bij = ResidualReport("phi-bijective")
    with bij.timed():
        for u in span:
            res = phi(alg, prob.twist, phi_inv(alg, prob.twist, u)) - u
            bij.record(f"phi.phi_inv {u!r}", not res.is_zero(), res)
            res = phi_inv(alg, prob.twist, phi(alg, prob.twist, u)) - u
            bij.record(f"phi_inv.phi {u!r}", not res.is_zero(), res)
    if not report.add_residual_report("phi bijectivity", "phi-invertibility", bij) and args.fail_fast:
        return report

    hom, ms = _timed(alg.phi_report, prob.twist, prob.degree)
    report.add_residual_report("phi homomorphism", "phi-intertwines-products", hom, ms)
    return report


def cmd_algebroid_verify(args, loaded=None) -> Report:
    prob, source, _ = loaded or load_problem(args)
    report = Report(f"algebroid-verify:{args.side}", source, prob.order, prob.degree)
    if not run_foundation_checks(report, prob, args.fail_fast):
        return report
    smash = prob.smash
    t0 = time.perf_counter()
    try:
        if args.side == "bm-twisted":
            bd = bm_bialgebroid_twisted(smash, prob.twist)
        else:
            bd0 = bm_bialgebroid(smash)
            shifted = shift_twist(bd0, prob.twist, validate=False)
            for name, rep in shifted_twist_residuals(bd0, shifted).items():
                report.add_residual_report(f"twistor {name}", f"twistor-{name}", rep)
            bd = xu_twist(bd0, shifted)
    except ValueError as exc:
        report.add("construction", "braided-commutativity-precondition", "fail",
                   str(exc), 1, (time.perf_counter() - t0) * 1000.0)
        return report
    build_ms = (time.perf_counter() - t0) * 1000.0
    report.add("construction", "braided-commutativity-precondition", "pass", "0", 1, build_ms)

    axioms = check_bialgebroid_axioms(bd, prob.degree)
    for name, rep in axioms.items():
        if not report.add_residual_report(name, f"bialgebroid-{name}", rep) and args.fail_fast:
            return report

    R = r_matrix_from_twist(prob.bialg, prob.twist)
    qt = check_qt_shifted(bd, R, min(prob.degree, 1))
    report.add_residual_report("shifted R preserved laws", "shifted-r-coproduct-counit", qt["preserved"])
    report.add_residual_report("shifted R closed forms", "shifted-r-closed-forms", qt["closed_forms"])
    if qt["witness"] is None:
        report.add("shifted R intertwining", "shifted-r-intertwining", "pass",
                   "no witness: difference vanishes", 1)
    else:
        label, _diff = qt["witness"]
        report.add("shifted R intertwining", "shifted-r-intertwining", "witness",
                   f"differs on {label}", 1)
    return report


def cmd_theorem(args, loaded=None) -> Report:
    prob, source, _ = loaded or load_problem(args)
    report = Report("theorem", source, prob.order, prob.degree)
    if not run_foundation_checks(report, prob, args.fail_fast):
        return report
    try:
        out = verify_theorem(prob.smash, prob.twist, prob.degree)
    except ValueError as exc:
        report.add("construction", "braided-commutativity-precondition", "fail",
                   str(exc), 1)
        return report
    for name, rep in out.items():
        if name.startswith("_"):
            continue
        report.add_residual_report(name, f"equivalence-{name}", rep)
        if not report.ok and args.fail_fast:
            return report
    return report


SUITE_CHECKS = {
    "twist": cmd_check_twist,
    "star-table": cmd_star_table,
    "smash": cmd_smash_verify,
    "algebroid-bm": lambda a, loaded: cmd_algebroid_verify(_with_side(a, "bm-twisted"), loaded),
    "algebroid-xu": lambda a, loaded: cmd_algebroid_verify(_with_side(a, "xu-twisted"), loaded),
    "theorem": cmd_theorem,
}


def _with_side(args, side):
    out = argparse.Namespace(**vars(args))
    out.side = side
    return out


def cmd_suite(args) -> Report:
    loaded = load_problem(args)
    prob, source, checks = loaded
    wanted = checks or list(SUITE_CHECKS)
    combined = Report("suite", source, prob.order, prob.degree)
    for name in wanted:
        # every sub-check runs on the one problem, so its caches stay warm
        sub = SUITE_CHECKS[name](args, loaded)
        for rec in sub.records:
            rec = dict(rec)
            rec["name"] = f"{name}: {rec['name']}"
            combined.records.append(rec)
        if not combined.ok and args.fail_fast:
            break
    return combined


# -- expression parsing for the commutator command --------------------------

_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*|\^|[()+\-*])")


class _ExprParser:
    """Minimal infix grammar over declared generators, rationals, i and h."""

    def __init__(self, text: str, prob, mul):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ConfigError(f"cannot tokenize expression at {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0
        self.prob = prob
        self.mul = mul
        alg = prob.smash
        self.atoms = {}
        for g in alg.rs.generators:
            self.atoms[g.name] = alg.h_elem(NCPoly.gen(alg.rs, g.name))
        for k, name in enumerate(prob.rep.coordinates):
            self.atoms[name] = alg.coord_elem(
                PolyCoord.coord(alg.dim, alg.order, k)
            )

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ConfigError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ConfigError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = self.mul(value, self.factor())
        return value

    def factor(self):
        value = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ConfigError(f"exponent must be a non-negative integer, got {tok!r}")
            power = int(tok)
            out = self.prob.smash.one()
            for _ in range(power):
                out = self.mul(out, value)
            value = out
        return value

    def atom(self):
        tok = self.take()
        alg = self.prob.smash
        if tok == "-":
            return -self.atom()
        if tok == "+":
            return self.atom()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ConfigError("unbalanced parentheses")
            return value
        if tok == "i":
            return alg.one().scale(parse_scalar_literal("i", alg.order))
        if tok == "h":
            return alg.one().scale(TruncSeries.h_power(1, alg.order))
        if tok in self.atoms:
            return self.atoms[tok]
        if re.fullmatch(r"\d+(?:/\d+)?", tok):
            return alg.one().scale(TruncSeries.const(Fraction(tok), alg.order))
        raise ConfigError(f"unknown symbol {tok!r} in expression")


def cmd_commutator(args) -> Report:
    prob, source, _ = load_problem(args)
    report = Report("commutator", source, prob.order, prob.degree)
    mul = prob.smash.product(prob.twist if args.deformed else None)
    lhs = _ExprParser(args.lhs, prob, mul).parse()
    rhs = _ExprParser(args.rhs, prob, mul).parse()
    out, ms = _timed(lambda: mul(lhs, rhs) - mul(rhs, lhs))
    label = "deformed" if args.deformed else "undeformed"
    report.add(
        f"[{args.lhs}, {args.rhs}] ({label})", "commutator-evaluation", "witness",
        repr(out), 1, ms,
    )
    return report


def cmd_export_preset(args) -> Report:
    name = args.preset or "igl2-abelian"
    cfg = preset_to_config(name, order=args.order)
    text = json.dumps(cfg, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    report = Report("export-preset", f"preset:{name}", cfg["order"], cfg["degree"])
    report.add("export", "config-serialization", "pass", "written", 1)
    return report


# -- entry point ------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--preset", choices=PRESET_NAMES, help="built-in example")
    sub.add_argument("--config", help="path to a problem config (JSON)")
    sub.add_argument("--order", type=int, help="truncation order override")
    sub.add_argument("--degree", type=int, help="sampling degree override")
    sub.add_argument("--json", help="write the machine-readable report here")
    sub.add_argument("--fail-fast", action="store_true",
                     help="stop at the first failing check")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smashtwist",
        description="Exact order-by-order verification of twist-deformed "
                    "smash products and their bialgebroid structures.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check-twist", help="cocycle, normalization and R-matrix checks")
    _add_common(p)
    p.set_defaults(fn=cmd_check_twist)

    p = sub.add_parser("star-table", help="deformed coordinate commutators and braided laws")
    _add_common(p)
    p.set_defaults(fn=cmd_star_table)

    p = sub.add_parser("smash-verify", help="smash products, phi and its homomorphism law")
    _add_common(p)
    p.set_defaults(fn=cmd_smash_verify)

    p = sub.add_parser("algebroid-verify", help="bialgebroid axiom suite for one construction")
    _add_common(p)
    p.add_argument("--side", choices=("bm-twisted", "xu-twisted"), default="bm-twisted")
    p.set_defaults(fn=cmd_algebroid_verify)

    p = sub.add_parser("theorem", help="end-to-end equivalence of the two constructions")
    _add_common(p)
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("suite", help="run the checks listed in the config")
    _add_common(p)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("commutator", help="evaluate a commutator in the smash product")
    _add_common(p)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--deformed", action="store_true",
                   help="use the twist-deformed product")
    p.set_defaults(fn=cmd_commutator)

    p = sub.add_parser("export-preset", help="print a preset in config format")
    _add_common(p)
    p.set_defaults(fn=cmd_export_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvalidTwistError as exc:
        print(f"error: invalid twist: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    if args.fn is not cmd_export_preset:
        print(report.human())
        if getattr(args, "json", None):
            with open(args.json, "w") as fh:
                json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
