"""Command-line driver: load a problem, run check suites, emit reports.

Problems come either from a named preset, which the registry builds as a
config, or from a JSON config file; both follow the schema in
src/smashtwist/config.schema.json, which this module interprets.
Every command produces a table of check records, one per verified identity,
and optionally a machine-readable JSON report whose content is deterministic
for a given input.  Exit status: 0 all requested checks have zero residual,
1 some residual is nonzero, 2 malformed input; a problem command that exits 0
or 1 has written its report.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from .algebroid import (
    bm_side,
    check_bialgebroid_axioms,
    check_qt_shifted,
    verify_theorem,
    xu_side,
)
from .hopf import (
    CoproductMap,
    InvalidTwistError,
    check_cocycle,
    check_quasitriangular,
    classical_r_extract,
)
from .modalg import (
    PolyCoord,
    check_braided_commutativity,
    check_module_algebra,
    star_commutator_table,
)
from .ncpoly import COORDINATE, MOMENTUM, NCPoly, SYMMETRY
from .registry import PRESET_NAMES, materialize, preset
from .reporting import evaluate
from .scalars import TruncSeries, parse_gauss_literal, parse_scalar_literal
from .smash import phi, phi_inv

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_INPUT = 2


class ConfigError(ValueError):
    """Schema violation in a problem config; message lists the paths."""


# -- report assembly -------------------------------------------------------


class _FailFast(Exception):
    """Raised by a fail-fast report at its first failing record."""


class Report:
    """The records of one command.  Each name is added under ``prefix``; with
    ``fail_fast`` a failing record ends the run that adds it.  A record names
    the domain its cases ran over; the human table shows it, the JSON does
    not."""

    def __init__(self, command: str, source: str, order: int, degree: int,
                 fail_fast: bool = False):
        self.command = command
        self.source = source
        self.order = order
        self.degree = degree
        self.fail_fast = fail_fast
        self.prefix = ""
        self.records = []
        self._charged = set()  # the laws whose time a record carries

    def add(self, name, identity, status, residual, checked, wall_ms, *, domain):
        self.records.append({
            "name": self.prefix + name,
            "identity": identity,
            "status": status,
            "residual": residual,
            "checked": checked,
            "wall_ms": wall_ms,
            "domain": domain,
        })
        if status == "fail" and self.fail_fast:
            raise _FailFast

    def add_law(self, name, identity, law):
        """Add the record of an evaluated law.  A law entered again, a memoized
        sweep that two checks share, ran once: it is charged no time again."""
        wall_ms = 0.0 if law in self._charged else law.wall_ms
        self._charged.add(law)
        self.add(name, identity, "pass" if law.ok() else "fail", law.summary(),
                 law.checked, wall_ms, domain=law.domain)

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
                {k: v for k, v in r.items() if k not in ("wall_ms", "domain")}
                for r in self.records
            ],
        }

    def human(self) -> str:
        rows = [("status", "check", "identity", "cases", "domain", "time", "residual")]
        for r in self.records:
            rows.append((
                r["status"].upper(),
                r["name"],
                r["identity"],
                str(r["checked"]),
                r["domain"],
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

# JSON types by their schema names; a bool is no integer, and 2.0 is none either
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float), "boolean": bool, "null": type(None)}
_KEYWORDS = {"type", "properties", "additionalProperties", "required", "items", "minItems",
             "minimum", "enum", "pattern", "$schema", "title", "description", "default"}
# ECMA-262's '$' matches only at the very end, Python's also before a final
# newline; escapes and character classes are copied unchanged
_ECMA_END = re.compile(r"(\\.|\[(?:\\.|[^\]])*\])|\$")


def _has_type(value, type_name: str) -> bool:
    return (isinstance(value, _TYPES[type_name])
            and isinstance(value, bool) == (type_name == "boolean"))


def schema_errors(schema: dict, value, path: str = "") -> list:
    """Errors of ``value`` against a draft-07 schema, as ``path: message`` lines.

    Interprets the keywords in ``_KEYWORDS`` and raises ValueError on any
    other, so the schema cannot outgrow this function unnoticed.
    """
    if set(schema) - _KEYWORDS:
        raise ValueError(f"unsupported schema keywords {sorted(set(schema) - _KEYWORDS)}")
    at = path or "config"
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_has_type(value, t) for t in types):
        return [f"{at}: must be {' or '.join(types)}"]
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{at}: {value!r} is not one of {', '.join(map(str, schema['enum']))}")
    pattern = schema.get("pattern")
    if isinstance(value, str) and pattern is not None and not re.search(
            _ECMA_END.sub(lambda m: m[1] or r"\Z", pattern), value):
        errors.append(f"{at}: {value!r} does not match {pattern}")
    if "minimum" in schema and _has_type(value, "number") and value < schema["minimum"]:
        errors.append(f"{at}: must be >= {schema['minimum']}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{at}: needs at least {schema['minItems']} item(s)")
        for k, item in enumerate(value if "items" in schema else ()):
            errors += schema_errors(schema["items"], item, f"{path}[{k}]")
    if isinstance(value, dict):
        prefix = f"{path}." if path else ""
        errors += [f"{prefix}{key}: required key missing"
                   for key in schema.get("required", ()) if key not in value]
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, schema.get("additionalProperties", True))
            if sub is False:
                errors.append(f"{prefix}{key}: unknown key")
            elif sub is not True:
                errors += schema_errors(sub, item, f"{prefix}{key}")
    return errors


def _get(obj, key, kind):
    """``obj[key]`` if obj is an object holding a ``kind`` there, else ``kind()``."""
    value = obj.get(key) if isinstance(obj, dict) else None
    return value if isinstance(value, kind) else kind()


def validate_config(cfg) -> list:
    """Schema errors plus the rules the schema cannot state, as ``path: message``.

    The second pass reads only values of the right type, so it runs on any
    JSON value and reports bad names next to unrelated schema errors.
    """
    with open(os.path.join(os.path.dirname(__file__), "config.schema.json")) as fh:
        errors = schema_errors(json.load(fh), cfg)
    algebra = _get(cfg, "algebra", dict)
    sorts = {}
    for k, g in enumerate(_get(algebra, "generators", list)):
        name = _get(g, "name", str)
        if name in sorts:
            errors.append(f"algebra.generators[{k}].name: duplicate {name!r}")
        elif name:
            sorts[name] = g.get("sort")

    def declared(path, name):
        # coordinates are not letters of U(g); a list or an object is
        # unhashable, so the type is checked first
        if not (isinstance(name, str) and sorts.get(name, COORDINATE) != COORDINATE):
            errors.append(f"{path}: {name!r} is not a declared symmetry or momentum generator")

    def literal(path, text, parse, *args):
        try:
            if isinstance(text, str):
                parse(text, *args)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")

    first_at = {}
    for k, b in enumerate(_get(algebra, "brackets", list)):
        path = f"algebra.brackets[{k}]"
        b = b if isinstance(b, dict) else {}
        for side in ("left", "right"):
            if side in b:
                declared(f"{path}.{side}", b[side])
        left, right = _get(b, "left", str), _get(b, "right", str)
        if left and left == right:
            errors.append(f"{path}: bracket of {left!r} with itself")
        elif left and right:
            first = first_at.setdefault(frozenset((left, right)), k)
            if first != k:
                errors.append(f"{path}: duplicate bracket for ({left}, {right}), "
                              f"first at algebra.brackets[{first}]")
        for j, t in enumerate(_get(b, "terms", list)):
            if isinstance(t, dict) and t.get("gen") is not None:
                declared(f"{path}.terms[{j}].gen", t["gen"])
            literal(f"{path}.terms[{j}].coeff", _get(t, "coeff", str), parse_scalar_literal, 0)

    rep = _get(cfg, "representation", dict)
    momenta = _get(rep, "momenta", list)
    for k, name in enumerate(momenta):
        if not (isinstance(name, str) and sorts.get(name) == MOMENTUM) or name in momenta[:k]:
            errors.append(f"representation.momenta[{k}]: {name!r} is not a declared momentum listed once")
    dim = len(momenta)
    coordinates = {f"x{mu}" for mu in range(dim)}
    for k, g in enumerate(_get(algebra, "generators", list)):
        name = _get(g, "name", str)
        if name and g.get("sort") == COORDINATE and name not in coordinates:
            errors.append(f"algebra.generators[{k}].name: coordinates are x0..x{dim - 1} "
                          f"in momentum order, not {name!r}")
    matrices = _get(rep, "matrices", dict)
    for name, rows in matrices.items():
        path = f"representation.matrices.{name}"
        if sorts.get(name) != SYMMETRY:
            errors.append(f"{path}: {name!r} is not a declared symmetry generator")
        if not isinstance(rows, list):
            continue
        if len(rows) != dim:
            errors.append(f"{path}: needs {dim} rows")
        for rk, row in enumerate(rows):
            if isinstance(row, list) and len(row) != dim:
                errors.append(f"{path}[{rk}]: needs {dim} entries")
            for ck, entry in enumerate(row if isinstance(row, list) else ()):
                literal(f"{path}[{rk}][{ck}]", entry, parse_gauss_literal)
    for name, sort in sorts.items():
        if sort == SYMMETRY and name not in matrices:
            errors.append(f"representation.matrices: missing {name!r}")
        if sort == MOMENTUM and name not in momenta:
            errors.append(f"representation.momenta: missing {name!r}")

    for k, term in enumerate(_get(_get(cfg, "twist", dict), "exponent", list)):
        literal(f"twist.exponent[{k}].coeff", _get(term, "coeff", str), parse_scalar_literal, 0)
        for side in ("left", "right"):
            for j, name in enumerate(_get(term, side, list)):
                declared(f"twist.exponent[{k}].{side}[{j}]", name)
    return errors


def load_problem(args):
    """Build the working objects from --preset or --config.

    A preset is built as a config at the requested order, so both sources
    pass the same validate_config and materialize.
    """
    order, degree = getattr(args, "order", None), getattr(args, "degree", None)
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("give either --preset or --config, not both")
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        source = f"config:{args.config}"
    else:
        name = getattr(args, "preset", None) or "igl2-abelian"
        try:
            cfg = preset(name, order)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
        source = f"preset:{name}"
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("config violates the schema:\n  " + "\n  ".join(errors))
    try:
        prob = materialize(cfg, order=order, degree=degree)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot build the problem: {exc}") from None
    return prob, source


# -- shared check fragments -------------------------------------------------


def run_foundation_checks(report: Report, prob):
    """Jacobi and representation records shared by commands; the problem
    keeps both laws, and a report charges their time to its first rows."""
    report.add_law("structure-constants", "jacobi-identity", prob.jacobi)
    report.add_law("representation", "representation-property", prob.representation)


def run_twist_checks(report: Report, prob):
    """Twist-inverse, normalization, cocycle and R-matrix records."""
    bialg, twist = prob.bialg, prob.twist
    F, Fi = twist.F, twist.F_inv
    one2, one1 = NCPoly.one(bialg.rs, 2), NCPoly.one(bialg.rs, 1)

    def law(name, identity, domain, residual):
        """A law of one unlabelled case, whose residual ``residual()`` makes."""
        report.add_law(name, identity, evaluate(domain, lambda: [("", residual())]))

    for a, b, tag, product in ((F, Fi, "left", "F Finv"), (Fi, F, "right", "Finv F")):
        law(f"twist-inverse ({tag})", "two-sided-inverse", f"the product {product}",
            lambda: a * b - one2)
    for leg, tag in ((1, "left"), (2, "right")):
        law(f"normalization ({tag})", "counit-normalization", f"F, counit on leg {leg}",
            lambda: bialg.counit_on_leg(F, leg) - one1)
        law(f"inverse normalization ({tag})", "counit-normalization",
            f"Finv, counit on leg {leg}", lambda: bialg.counit_on_leg(Fi, leg) - one1)

    cocycle = {}  # both residuals, made by the first law
    law("cocycle", "twist-cocycle", "F on three legs",
        lambda: cocycle.update(check_cocycle(bialg, twist)) or cocycle["cocycle"])
    law("inverse cocycle", "inverse-twist-cocycle", "Finv on three legs",
        lambda: cocycle["inverse-cocycle"])

    R = twist.r_matrix
    report.add_law("r-matrix laws", "quasi-triangularity", evaluate(
        f"{len(bialg.rs.generators)} generators, hexagons, counits, Yang-Baxter",
        lambda: check_quasitriangular(bialg, R, CoproductMap(bialg, twist)).items()))
    law("triangularity", "r-matrix-triangularity", "the product R R21",
        lambda: R * R.swap_legs() - one2)
    law("classical limit", "classical-yang-baxter", "r, the h^1 part of R",
        lambda: classical_r_extract(R)[1])


# -- commands ---------------------------------------------------------------
#
# A problem command ``cmd_x(args, prob, report)`` adds its records to the
# report that ``run`` opens for it; it returns nothing.


def cmd_check_twist(args, prob, report):
    run_foundation_checks(report, prob)
    run_twist_checks(report, prob)


def cmd_star_table(args, prob, report):
    run_foundation_checks(report, prob)
    star = prob.smash.product(prob.twist).star
    table = []  # made by the first pair's law

    def entry(mu, nu):
        if not table:
            table.extend(star_commutator_table(star))
        return [("", table[mu][nu])]

    names = prob.rep.coordinates
    for mu in range(prob.rep.dim):
        for nu in range(mu + 1, prob.rep.dim):
            # a witness row: the commutator, evaluated as a law of one case
            law = evaluate(f"the coordinate pair ({names[mu]}, {names[nu]})",
                           lambda: entry(mu, nu))
            report.add(f"[{names[mu]}, {names[nu]}]*", "star-commutator", "witness",
                       law.summary(), law.checked, law.wall_ms, domain=law.domain)
    R = prob.twist.r_matrix
    report.add_law("braided commutativity", "braided-commutativity",
                   check_braided_commutativity(star, R, prob.degree + 1))
    report.add_law("module algebra", "action-leibniz-compatibility",
                   check_module_algebra(prob.bialg, prob.rep, prob.degree))


def cmd_smash_verify(args, prob, report):
    import random

    run_foundation_checks(report, prob)
    alg, twist = prob.smash, prob.twist
    rng = random.Random(4711)
    span = alg.spanning(prob.degree)
    triples = [tuple(rng.choice(span) for _ in range(3)) for _ in range(25)]
    for label, product_twist in (("undeformed", None), ("deformed", twist)):
        mul = alg.product(product_twist)

        def products():
            for u, v, w in triples:
                yield lambda: f"{u!r};{v!r};{w!r}", mul(mul(u, v), w) - mul(u, mul(v, w))
            for u in span[:10]:
                yield lambda: f"1*{u!r}", mul(alg.one(), u) - u
                yield lambda: f"{u!r}*1", mul(u, alg.one()) - u

        report.add_law(f"{label} product", "smash-associativity-unitality", evaluate(
            f"25 triples, seed 4711 + {len(span[:10])} elements x 2 sides", products))

    def bijectivity():
        for u in span:
            yield lambda: f"phi.phi_inv {u!r}", phi(alg, twist, phi_inv(alg, twist, u)) - u
            yield lambda: f"phi_inv.phi {u!r}", phi_inv(alg, twist, phi(alg, twist, u)) - u

    report.add_law("phi bijectivity", "phi-invertibility", evaluate(
        f"{len(span)} spanning elements to degree {prob.degree}, both ways", bijectivity))
    report.add_law("phi homomorphism", "phi-intertwines-products",
                   alg.phi_report(twist, prob.degree))


def _construction_identity(exc: ValueError) -> str:
    """The law a refused construction failed: a twistor law, or the braided
    commutativity of the base."""
    if isinstance(exc, InvalidTwistError):
        return "twistor-laws"
    return "braided-commutativity-precondition"


def cmd_algebroid_verify(args, prob, report, side=None):
    """The construction of ``side``, by default ``--side``."""
    side = side or args.side
    run_foundation_checks(report, prob)
    built = "braided commutativity to degree 2"
    t0 = time.perf_counter()
    try:
        # built at the check degree verify_theorem uses, so theorem reuses them
        if side == "bm-twisted":
            bd = bm_side(prob.smash, prob.twist, 2)
        else:
            twistor_reports, bd = xu_side(prob.smash, prob.twist, 2)
            for name, law in twistor_reports.items():
                report.add_law(f"twistor {name}", f"twistor-{name}", law)
    except ValueError as exc:
        report.add("construction", _construction_identity(exc), "fail",
                   str(exc), 1, (time.perf_counter() - t0) * 1000.0, domain=built)
        return
    build_ms = (time.perf_counter() - t0) * 1000.0
    report.add("construction", "braided-commutativity-precondition", "pass", "0", 1, build_ms,
               domain=built)

    for name, law in check_bialgebroid_axioms(bd, prob.degree).items():
        report.add_law(name, f"bialgebroid-{name}", law)

    degree = min(prob.degree, 1)
    qt = check_qt_shifted(bd, prob.twist.r_matrix, degree)
    report.add_law("shifted R preserved laws", "shifted-r-coproduct-counit", qt["preserved"])
    report.add_law("shifted R closed forms", "shifted-r-closed-forms", qt["closed_forms"])
    witness = qt["witness"]
    report.add("shifted R intertwining", "shifted-r-intertwining",
               "pass" if witness is None else "witness",
               "no witness: difference vanishes" if witness is None else f"differs on {witness[0]}",
               1, 0.0, domain=f"spanning elements to degree {degree}, first difference")


def cmd_theorem(args, prob, report):
    run_foundation_checks(report, prob)
    try:
        out = verify_theorem(prob.smash, prob.twist, prob.degree)
    except ValueError as exc:
        report.add("construction", _construction_identity(exc), "fail", str(exc), 1, 0.0,
                   domain="braided commutativity to degree 2, twistor laws")
        return
    for name, law in out.items():
        if not name.startswith("_"):
            report.add_law(name, f"equivalence-{name}", law)


SUITE_CHECKS = {
    "twist": cmd_check_twist,
    "star-table": cmd_star_table,
    "smash": cmd_smash_verify,
    "algebroid-bm": lambda a, prob, report: cmd_algebroid_verify(a, prob, report, "bm-twisted"),
    "algebroid-xu": lambda a, prob, report: cmd_algebroid_verify(a, prob, report, "xu-twisted"),
    "theorem": cmd_theorem,
}


def cmd_suite(args, prob, report):
    for name in prob.config.get("checks") or SUITE_CHECKS:
        # every sub-check runs on the one problem, so its memos stay warm
        report.prefix = f"{name}: "
        SUITE_CHECKS[name](args, prob, report)


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
                PolyCoord.coord(alg.dim, alg.order, k, alg.rs.unit)
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
        # a unary sign applies to the whole factor, so ^ binds tighter: -x^2 = -(x^2)
        if self.peek() in ("-", "+"):
            sign = self.take()
            value = self.factor()
            return -value if sign == "-" else value
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


def cmd_commutator(args, prob, report):
    mul = prob.smash.product(prob.twist if args.deformed else None)
    lhs = _ExprParser(args.lhs, prob, mul).parse()
    rhs = _ExprParser(args.rhs, prob, mul).parse()
    # a witness row: the commutator, evaluated as a law of one case
    law = evaluate("the two given expressions", lambda: [("", mul(lhs, rhs) - mul(rhs, lhs))])
    label = "deformed" if args.deformed else "undeformed"
    report.add(f"[{args.lhs}, {args.rhs}] ({label})", "commutator-evaluation", "witness",
               law.summary(), law.checked, law.wall_ms, domain=law.domain)


def run(args) -> Report:
    """Run a problem command: load the problem once, open its one report and
    let the command fill it.  Under --fail-fast the report ends the command
    at its first failing record and keeps the records up to it."""
    prob, source = load_problem(args)
    title = f"{args.cmd}:{args.side}" if "side" in args else args.cmd
    report = Report(title, source, prob.order, prob.degree, args.fail_fast)
    try:
        args.fn(args, prob, report)
    except _FailFast:
        pass
    return report


def cmd_export_preset(args):
    """Print or write a preset's config; builds no problem and no report.
    Refuses an order the config schema refuses."""
    cfg = preset(args.preset or "igl2-abelian", args.order)
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("\n  ".join(errors))
    text = json.dumps(cfg, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- entry point ------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--preset", choices=PRESET_NAMES, help="built-in example")
    sub.add_argument("--config", help="path to a problem config (JSON)")
    sub.add_argument("--order", type=int, help="truncation order override")
    sub.add_argument("--degree", type=int, help="sampling degree override")
    sub.add_argument("--json", help="write the machine-readable report here")
    sub.add_argument("--fail-fast", action="store_true",
                     help="stop at the first failing record")


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
    p.add_argument("--preset", choices=PRESET_NAMES, help="built-in example")
    p.add_argument("--order", type=int, help="truncation order of the export")
    p.add_argument("--json", help="write the config here instead of printing it")
    p.set_defaults(fn=cmd_export_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.fn is cmd_export_preset:
            cmd_export_preset(args)
            return EXIT_PASS
        report = run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(report.human())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
