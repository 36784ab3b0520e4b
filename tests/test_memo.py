"""The per-owner memo behind every basis-level cache.

Each structure map is linear and fixed by its basis images, so each image is
computed once and kept by the object whose map it is, through one decorator
(``smashtwist.ncpoly.memoized``), ``linear_on_basis`` or a closure's
``functools.cache``.  These cases pin that design: no hand-written cache and
no ``id()`` key in the package, memos that die with their problem and are
never shared between problems, and wrappers the layer tracer still charges
to the right module.
"""

import ast
import gc
import importlib.util
import weakref
from pathlib import Path

import pytest

import smashtwist
from smashtwist import cli
from smashtwist.ncpoly import memoized
from smashtwist.registry import materialize

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "smashtwist").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_id_keys_or_hand_written_caches(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "id", f"{path.name}:{node.lineno} calls id()"
        if isinstance(node, ast.Attribute):
            assert not node.attr.endswith("_cache"), f"{path.name}:{node.lineno} .{node.attr}"


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
        refs.extend(weakref.ref(o) for o in (prob.bialg.rs, prob.rep, prob.smash))
        return prob

    monkeypatch.setattr(cli, "materialize", materialize_recording)
    for name in ("bm_bialgebroid", "bm_bialgebroid_twisted", "xu_twist"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    argv = ["suite", "--preset", "pw-jordanian", "--order", "2", "--degree", "1"]
    assert cli.main(argv) == cli.EXIT_PASS
    # the rewrite system, representation, smash algebra and three bialgebroids
    assert len(refs) == 6
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_problems_share_no_memo_entries():
    probs = [materialize("pw-jordanian", order=n, degree=1) for n in (2, 3)]
    for prob in probs:
        assert prob.smash.phi_report(prob.twist, 1).ok()
    memos, values = [], []
    for prob in probs:
        found = [m for owner in _memo_owners(prob) for m in _memos(owner).values()]
        assert len(found) >= 8
        memos.append({id(m) for m in found})
        # the empty tuple is one object everywhere
        values.append({id(v) for m in found for v in m.values() if v != ()})
    assert not memos[0] & memos[1]
    assert not values[0] & values[1]


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
