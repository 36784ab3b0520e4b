"""Layer tracer: wrappers on the public boundaries of each smashtwist module.

The tracer never edits the package source and never touches a private name.
It replaces public functions and methods with wrappers, on their class or in
every smashtwist module namespace that imported the name, and keeps:

* per boundary: calls, and for entries that cross from another layer the
  total and child time;
* per layer: self time, the time spent inside the layer's boundaries minus
  the time inside child boundaries of other layers (code that has no boundary
  of its own is charged to the layer of the innermost boundary around it);
* per instance: the distinct inputs a boundary has seen, from which the hit
  ratios are derived (share of calls that repeat an input the same object has
  already seen), never from the program's own caches;
* spans (name, start, end, parent, job) for the coarse boundaries only, so
  memory stays bounded on the hot ones.

A boundary that no longer exists is reported as absent and the run goes on.
"""

from __future__ import annotations

import gc
import sys
import time
import weakref

PACKAGE = "smashtwist"

# Hot boundaries keep aggregates only: (module, attribute path, stat name).
HOT = (
    ("scalars", "TruncSeries.__mul__", "scalars.mul"),
    ("scalars", "TruncSeries.scale", "scalars.mul"),
    ("scalars", "TruncSeries.__add__", "scalars.add"),
    ("scalars", "TruncSeries.__sub__", "scalars.add"),
    ("scalars", "TruncSeries.__neg__", "scalars.add"),
    ("ncpoly", "NCPoly.__mul__", "ncpoly.mul"),
    ("ncpoly", "RewriteSystem.normalize_word", "ncpoly.normalize_word"),
    ("hopf", "CoproductMap.__call__", "hopf.coproduct"),
    ("hopf", "CoproductMap.on_leg", "hopf.coproduct"),
    ("hopf", "CoproductMap.word_splits", "hopf.word_splits"),
    ("hopf", "BialgebraPresentation.word_splits", "hopf.word_splits"),
    ("modalg", "RepData.act_word", "modalg.act_word"),
    ("modalg", "StarProduct.__call__", "modalg.star"),
    ("smash", "SmashProduct.__call__", "smash.product"),
    ("smash", "phi", "smash.phi"),
    ("smash", "phi_inv", "smash.phi"),
    ("algebroid", "Bialgebroid.coproduct", "algebroid.coproduct"),
    ("algebroid", "Bialgebroid.tensor_from_pairs", "algebroid.tensor_from_pairs"),
    ("algebroid", "Bialgebroid.right_split", "algebroid.right_split"),
    ("cli", "Report.add", "reporting.add"),
    ("reporting", "ResidualReport.record", "reporting.record"),
)

# Coarse boundaries also record spans.
COARSE = (
    ("cli", "main"),
    ("cli", "load_problem"),
    ("registry", "materialize"),
    ("ncpoly", "RewriteSystem.__init__"),
    ("hopf", "BialgebraPresentation.__init__"),
    ("hopf", "Twist.__init__"),
    ("hopf", "twist_from_exponent"),
    ("hopf", "check_cocycle"),
    ("hopf", "check_quasitriangular"),
    ("modalg", "RepData.__init__"),
    ("modalg", "check_module_algebra"),
    ("modalg", "check_braided_commutativity"),
    ("modalg", "star_commutator_table"),
    ("smash", "SmashAlgebra.__init__"),
    ("smash", "verify_phi_homomorphism"),
    ("algebroid", "bm_bialgebroid"),
    ("algebroid", "bm_bialgebroid_twisted"),
    ("algebroid", "shift_twist"),
    ("algebroid", "shifted_twist_residuals"),
    ("algebroid", "xu_twist"),
    ("algebroid", "check_bialgebroid_axioms"),
    ("algebroid", "check_qt_shifted"),
    ("algebroid", "verify_theorem"),
)


class _PerInstance:
    """Distinct inputs seen per live object, keyed without keeping it alive."""

    def __init__(self):
        self._sets: dict = {}

    def seen(self, obj) -> set:
        entry = self._sets.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), set())
            self._sets[id(obj)] = entry
        return entry[1]


class Stat:
    """calls; total and child seconds of entries from another layer; hits,
    calls or lookups that repeat an input already seen; extra, the
    boundary's own count (basis lookups, pairs, checked, label characters)."""

    __slots__ = ("calls", "total", "child", "hits", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.hits = 0
        self.extra = 0


class Tracer:
    """``layers`` maps each layer to the modules it is made of."""

    def __init__(self, layers: dict):
        self.layers = tuple(layers)
        self.layer_of_module = {mod: layer for layer, mods in layers.items() for mod in mods}
        self.stats: dict = {}
        self.self_s = {layer: 0.0 for layer in self.layers}
        self.self_s["bench"] = 0.0
        self.spans: list = []
        self.absent: list = []
        self.job = None
        self.live_algebras = weakref.WeakSet()
        self._stack = [["bench", 0.0]]
        self._span_stack = [None]
        self._mark = [time.perf_counter()]

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        observers = self._observers()
        for short, path, stat_name in HOT:
            observe = observers.get(path)
            if observe is not None:
                observe = self._guarded(observe, f"{short}.{path}")
            self._install_one(modules, short, path, stat_name, observe, False)
        for short, path in COARSE:
            observe = self._track_algebra if path == "SmashAlgebra.__init__" else None
            self._install_one(modules, short, path, f"{short}.{path}", observe, True)

    def _install_one(self, modules, short, path, stat_name, observe, span):
        mod = modules.get(f"{PACKAGE}.{short}")
        owner = mod
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)  # only what the class itself defines
        else:
            fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(f"{short}.{path}")
            return
        layer = self.layer_of_module.get(getattr(fn, "__module__", ""), "bench")
        stat = self.stats.setdefault(stat_name, Stat())
        wrapper = self._wrap(fn, layer, stat, observe, f"{short}.{path}" if span else None)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for m in modules.values():
            for name, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, name, wrapper)

    def _wrap(self, fn, layer, stat, observe, span_name):
        stack = self._stack
        mark = self._mark
        layer_self = self.self_s
        clock = time.perf_counter

        if span_name is None:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                if observe is not None:
                    observe(stat, args, kwargs)
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                t0 = clock()
                stack[-1][1] += t0 - mark[0]
                frame = [layer, 0.0]
                stack.append(frame)
                mark[0] = t0
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    frame[1] += t1 - mark[0]
                    stack.pop()
                    mark[0] = t1
                    layer_self[layer] += frame[1]
                    stat.total += t1 - t0
                    stat.child += t1 - t0 - frame[1]
            return wrapper

        spans = self.spans
        span_stack = self._span_stack
        tracer = self

        def span_wrapper(*args, **kwargs):
            stat.calls += 1
            if observe is not None:
                observe(stat, args, kwargs)
            t0 = clock()
            stack[-1][1] += t0 - mark[0]
            frame = [layer, 0.0]
            stack.append(frame)
            mark[0] = t0
            sid = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            span_stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                frame[1] += t1 - mark[0]
                stack.pop()
                span_stack.pop()
                mark[0] = t1
                layer_self[layer] += frame[1]
                stat.total += t1 - t0
                stat.child += t1 - t0 - frame[1]
                spans[sid] = (span_name, t0, t1, parent, tracer.job)
        return span_wrapper

    # -- input observers ---------------------------------------------------

    def _guarded(self, observe, name):
        """Stop observing a boundary whose arguments no longer fit; calls still count."""
        active = [observe]

        def guarded(stat, args, kwargs):
            if active[0] is not None:
                try:
                    active[0](stat, args, kwargs)
                except Exception:
                    active[0] = None
                    self.absent.append(f"{name} (inputs not understood)")
        return guarded

    def _distinct(self, key_of):
        """Observer counting calls whose input the same object already saw."""
        per = _PerInstance()

        def observe(stat, args, kwargs):
            seen = per.seen(args[0])
            key = key_of(args)
            if key in seen:
                stat.hits += 1
            else:
                seen.add(key)
        return observe

    def _observers(self) -> dict:
        pairs = _PerInstance()
        bases = _PerInstance()

        def smash_pairs(stat, args, kwargs):
            u, v = args[1], args[2]
            seen = pairs.seen(args[0])
            for ku in u.terms:
                for kv in v.terms:
                    stat.extra += 1
                    key = (ku, kv)
                    if key in seen:
                        stat.hits += 1
                    else:
                        seen.add(key)

        def transport(direction):
            def observe(stat, args, kwargs):
                algebra, twist, u = args[0], args[1], args[2]
                seen = bases.seen(algebra)
                for key in u.terms:
                    stat.extra += 1
                    full = (direction, id(twist), key)
                    if full in seen:
                        stat.hits += 1
                    else:
                        seen.add(full)
            return observe

        def pair_count(stat, args, kwargs):
            stat.extra += len(args[1])

        def report_add(stat, args, kwargs):
            checked = args[5] if len(args) > 5 else kwargs.get("checked", 1)
            stat.extra += checked

        def record(stat, args, kwargs):
            if not args[2]:  # a passing identity drops its label
                stat.extra += len(args[1])

        return {
            "RewriteSystem.normalize_word": self._distinct(lambda a: a[1]),
            "CoproductMap.word_splits": self._distinct(lambda a: a[1]),
            "BialgebraPresentation.word_splits": self._distinct(lambda a: a[1]),
            "RepData.act_word": self._distinct(lambda a: (a[1], tuple(a[2]))),
            "Bialgebroid.coproduct": self._distinct(lambda a: frozenset(a[1].terms.items())),
            "Bialgebroid.right_split": self._distinct(lambda a: (a[1], a[2])),
            "SmashProduct.__call__": smash_pairs,
            "phi": transport("phi"),
            "phi_inv": transport("phi_inv"),
            "Bialgebroid.tensor_from_pairs": pair_count,
            "Report.add": report_add,
            "ResidualReport.record": record,
        }

    def _track_algebra(self, stat, args, kwargs):
        self.live_algebras.add(args[0])

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; a missing boundary reads zero."""
        def stat(name):
            return self.stats.get(name) or Stat()

        def ratio(name):
            s = stat(name)
            return s.hits / s.calls if s.calls else 0.0

        def per_lookup(name):
            s = stat(name)
            return s.hits / s.extra if s.extra else 0.0

        gc.collect()
        out = {
            "scalars.mul.calls": stat("scalars.mul").calls,
            "scalars.add.calls": stat("scalars.add").calls,
            "ncpoly.mul.calls": stat("ncpoly.mul").calls,
            "ncpoly.normalize_word.calls": stat("ncpoly.normalize_word").calls,
            "ncpoly.normalize_word.hit_ratio": ratio("ncpoly.normalize_word"),
            "hopf.coproduct.calls": stat("hopf.coproduct").calls,
            "hopf.word_splits.calls": stat("hopf.word_splits").calls,
            "hopf.word_splits.hit_ratio": ratio("hopf.word_splits"),
            "modalg.act_word.calls": stat("modalg.act_word").calls,
            "modalg.act_word.hit_ratio": ratio("modalg.act_word"),
            "modalg.star.calls": stat("modalg.star").calls,
            "smash.product.calls": stat("smash.product").calls,
            "smash.pair.lookups": stat("smash.product").extra,
            "smash.pair.hit_ratio": per_lookup("smash.product"),
            "smash.phi.calls": stat("smash.phi").calls,
            "smash.phi.basis_hit_ratio": per_lookup("smash.phi"),
            "smash.live_algebras": len(self.live_algebras),
            "algebroid.coproduct.calls": stat("algebroid.coproduct").calls,
            "algebroid.coproduct.repeat_ratio": ratio("algebroid.coproduct"),
            "algebroid.tensor_from_pairs.calls": stat("algebroid.tensor_from_pairs").calls,
            "algebroid.tensor_from_pairs.pairs": stat("algebroid.tensor_from_pairs").extra,
            "algebroid.right_split.calls": stat("algebroid.right_split").calls,
            "algebroid.right_split.hit_ratio": ratio("algebroid.right_split"),
            "registry.materialize.calls": stat("registry.materialize").calls,
            "reporting.records": stat("reporting.add").extra,
            "reporting.discarded_label_chars": stat("reporting.record").extra,
        }
        for layer in self.layers:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def dump(self) -> dict:
        """Everything kept in memory, for the trace file."""
        return {
            "absent": self.absent,
            "boundaries": {
                name: {"calls": s.calls, "total_s": s.total, "child_s": s.child}
                for name, s in sorted(self.stats.items())
            },
            "self_s": self.self_s,
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p, "job": j}
                for n, t0, t1, p, j in self.spans
            ],
        }
