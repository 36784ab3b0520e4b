"""The per-owner memo behind every basis-level cache.

Each structure map is linear and fixed by its basis images, so each image is
computed once and kept by the object whose map it is, through one decorator
(``smashtwist.ncpoly.memoized``).  These cases pin that design: no
hand-written cache, no ``functools`` cache but the scalar literal parser's and
no ``id()`` key in the package, memos that die with their problem and are
never shared between problems, and wrappers the layer tracer still charges
to the right module.  The same decorator, or a cached property of the twist
or the problem, keeps the structures that the commands of one ``suite``
share, so each is built once per problem.
"""

import ast
import gc
import importlib.util
import inspect
import json
import sys
import weakref
from pathlib import Path

import pytest

import smashtwist
from smashtwist import algebroid, cli, hopf, registry
from smashtwist.algebroid import TensorOverA, bm_side, check_qt_shifted, xu_side
from smashtwist.modalg import RepData
from smashtwist.ncpoly import memoized
from smashtwist.registry import materialize
from smashtwist.scalars import TruncSeries

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "smashtwist").glob("*.py"))


def _functools_caches(tree):
    """The nodes that import, name or reach ``cache`` or ``lru_cache``."""
    for node in ast.walk(tree):
        name = (node.name if isinstance(node, ast.alias) else
                node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name in ("cache", "lru_cache"):
            yield name, node


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_id_keys_or_hand_written_caches(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "id", f"{path.name}:{node.lineno} calls id()"
        if isinstance(node, ast.Attribute):
            assert not node.attr.endswith("_cache"), f"{path.name}:{node.lineno} .{node.attr}"
    # the one functools cache is the lru_cache of the scalar literal parser,
    # whose keys are strings and values immutable: the import and the decorator
    allowed = set()
    if path.name == "scalars.py":
        parser, = [n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "_parse_product"]
        allowed = {d.lineno for d in parser.decorator_list}
        allowed |= {n.lineno for n in tree.body
                    if isinstance(n, ast.ImportFrom) and n.module == "functools"}
    for name, node in _functools_caches(tree):
        assert name == "lru_cache" and node.lineno in allowed, \
            f"{path.name}:{node.lineno} uses functools.{name}"


def test_memoized_takes_one_or_two_arguments():
    with pytest.raises(TypeError, match="one or two arguments"):
        memoized(lambda self, a, b, c: None)


def _memos(obj) -> dict:
    """The memos ``memoized`` keeps on one object, by method qualname."""
    return getattr(obj, "_memos", {})


def _memo_owners(prob) -> list:
    smash = prob.smash
    owners = [prob.bialg.rs, prob.bialg, prob.rep, smash]
    for product in _memos(smash)["SmashAlgebra.product"].values():
        owners += [product, product.delta, product.star]
    return owners


def test_memos_die_with_their_problem(monkeypatch):
    refs = []

    def recording(build):
        def wrapper(*args, **kwargs):
            out = build(*args, **kwargs)
            refs.append(weakref.ref(out))
            return out
        return wrapper

    def materialize_recording(*args, **kwargs):
        prob = materialize(*args, **kwargs)
        refs.extend(weakref.ref(o) for o in (prob.bialg.rs, prob.bialg.rs.scalars,
                                             prob.rep, prob.smash))
        return prob

    monkeypatch.setattr(cli, "materialize", materialize_recording)
    # the constructions bm_side and xu_side call, which the smash algebra keeps
    for name in ("bm_bialgebroid", "bm_bialgebroid_twisted", "xu_twist"):
        monkeypatch.setattr(algebroid, name, recording(getattr(algebroid, name)))
    argv = ["suite", "--preset", "pw-jordanian", "--order", "2", "--degree", "1"]
    assert cli.main(argv) == cli.EXIT_PASS
    # the rewrite system, its intern table, representation, smash algebra and
    # three bialgebroids
    assert len(refs) == 7
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def _count_runs(functions: dict, run) -> dict:
    """How often the body of each function runs during ``run()``: a memo hit
    does not enter it.  Counted by code object, so a memoized function counts
    through its wrapper."""
    codes = {inspect.unwrap(fn).__code__: name for name, fn in functions.items()}
    counts = dict.fromkeys(functions, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


SHARED_CONSTRUCTIONS = {
    "bm": algebroid.bm_bialgebroid,
    "bm-twisted": algebroid.bm_bialgebroid_twisted,
    "xu_twist": algebroid.xu_twist,
    "shifted_twist_residuals": algebroid.shifted_twist_residuals,
    "r_matrix": hopf.Twist.r_matrix.func,
    "representation_residuals": RepData.representation_residuals,
    "jacobi_report": registry.jacobi_report,
}


@pytest.mark.parametrize("argv", [
    ["--preset", "pw-jordanian", "--order", "1", "--degree", "1"],
    ["--config", str(ROOT / "tests" / "golden" / "pw-jordanian-perturbed.json"),
     "--order", "3", "--degree", "1"],
], ids=["pw-jordanian", "perturbed"])
def test_suite_builds_each_shared_structure_once(argv):
    codes = []
    counts = _count_runs(SHARED_CONSTRUCTIONS, lambda: codes.append(cli.main(["suite"] + argv)))
    assert codes[0] in (cli.EXIT_PASS, cli.EXIT_RESIDUAL)
    assert counts == dict.fromkeys(SHARED_CONSTRUCTIONS, 1)


def test_refused_construction_raises_again_and_is_not_kept(monkeypatch):
    prob = materialize("pw-jordanian", order=1, degree=1)

    def refuse(smash, twist):
        raise ValueError("base is not braided commutative; construction refused")

    monkeypatch.setattr(algebroid, "bm_bialgebroid_twisted", refuse)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            bm_side(prob.smash, prob.twist)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert _memos(prob.smash).get("bm_side", {}) == {}


def test_refused_theorem_is_refused_again_from_the_kept_side():
    cfg = json.loads((ROOT / "tests" / "golden" / "pw-jordanian-perturbed.json").read_text())
    # the perturbation sits at h^3
    prob = materialize(cfg, order=3, degree=1)
    refusals = []

    def theorem():
        report = cli.Report("theorem", "test", 3, 1)
        cli.cmd_theorem(None, prob, report)
        refusals.append({k: report.records[-1][k] for k in ("name", "identity", "residual")})

    counts = _count_runs(SHARED_CONSTRUCTIONS, lambda: (theorem(), theorem()))
    assert refusals == [{"name": "construction", "identity": "twistor-laws",
                         "residual": "shifted twist fails cocycle"}] * 2
    # the failing twistor reports are kept with the side they belong to
    assert counts["xu_twist"] == counts["shifted_twist_residuals"] == 1


@pytest.mark.parametrize("name, evaluated", [("pw-jordanian", 5), ("trivial", None)])
def test_xu_intertwining_sweep_stops_at_its_witness(monkeypatch, name, evaluated):
    prob = materialize(name, order=2, degree=1)
    bd = xu_side(prob.smash, prob.twist)
    flips = []
    flip = TensorOverA.flip
    monkeypatch.setattr(TensorOverA, "flip", lambda T: flips.append(T) or flip(T))
    out = check_qt_shifted(bd, prob.twist.r_matrix, 1)
    span = prob.smash.spanning(1)
    if evaluated is None:
        # no witness: every spanning element is evaluated
        assert out["intertwining"].ok()
        assert len(flips) == len(span) == 21
    else:
        assert len(span) == 12
        assert len(flips) == evaluated
        assert out["intertwining"].failures[0][0] == repr(span[evaluated - 1])


def test_check_twist_problem_is_freed_without_the_collector(monkeypatch):
    # check-twist builds no smash product, so no memo holds a cycle: its
    # problem, R-matrix and scalar intern table included, dies when the
    # command returns
    refs = []

    def materialize_recording(*args, **kwargs):
        prob = materialize(*args, **kwargs)
        refs.extend(weakref.ref(o) for o in (prob.bialg, prob.bialg.rs.scalars, prob.rep,
                                             prob.smash, prob.twist))
        return prob

    monkeypatch.setattr(cli, "materialize", materialize_recording)
    gc.collect()
    gc.disable()
    try:
        assert cli.main(["check-twist", "--preset", "pw-jordanian", "--order", "2"]) == 0
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def _coefficients(value):
    """The scalar series a memo value holds, in containers and elements."""
    if isinstance(value, TruncSeries):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _coefficients(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _coefficients(v)
    elif hasattr(value, "terms"):
        yield from _coefficients(value.terms)


def test_problems_share_no_memo_entries():
    # two problems at one order could share coefficients through a global table
    probs = [materialize("pw-jordanian", order=n, degree=1) for n in (2, 3, 2)]
    for prob in probs:
        assert prob.smash.phi_report(prob.twist, 1).ok()
    memos, values, coefficients = [], [], []
    for prob in probs:
        found = [m for owner in _memo_owners(prob) for m in _memos(owner).values()]
        assert len(found) >= 8
        memos.append({id(m) for m in found})
        # the empty tuple is one object everywhere
        values.append({id(v) for m in found for v in m.values() if v != ()})
        coeffs = {id(c) for m in found for c in _coefficients(list(m.values()))}
        assert len(coeffs) >= 15
        # every coefficient a memo keeps is canonical in its problem's table
        canon = {id(c) for c in prob.bialg.rs.scalars.canon}
        assert coeffs <= canon
        coefficients.append(canon)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert not memos[a] & memos[b]
        assert not values[a] & values[b]
        assert not coefficients[a] & coefficients[b]


def _tracer_boundaries() -> list:
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [entry[:2] for entry in tracer.HOT + tracer.COARSE]


BOUNDARIES = _tracer_boundaries()


@pytest.mark.parametrize("short, path", BOUNDARIES, ids=[f"{s}.{p}" for s, p in BOUNDARIES])
def test_tracer_boundaries_resolve_in_their_module(short, path):
    owner = getattr(smashtwist, short)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # the tracer wraps only what a class itself defines
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
    assert callable(fn)
    assert fn.__module__ == f"smashtwist.{short}"
