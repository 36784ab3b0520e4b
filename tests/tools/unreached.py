"""Print the functions in src/smashtwist that no CLI command reaches.

Usage, from the root of a source checkout (standard library only):

    python tests/tools/unreached.py

Every problem command runs on every preset (order 2, igl4-abelian at order
1, degree 1; igl4-abelian leaves out smash-verify, theorem and suite, to keep
the run short), and on both defective configs of the golden corpus; so do
``commutator`` and ``export-preset``.  Each run goes through
``smashtwist.cli.main`` in this process under ``sys.setprofile``, which
records every Python function that starts.

A function or method defined in src/smashtwist (nested functions aside) that
never started is printed, one ``module:Qualified.name`` a line.  ``ALLOWED``
names those that stay anyway, each with its reason; they are printed with
that reason.  The exit status is 1 when a function outside the allow-list is
printed, else 0.  tests/test_unreached.py checks that each allow-list entry
names exactly one function that exists.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "smashtwist"
GOLDEN = ROOT / "tests" / "golden"

ALLOWED = {
    # error paths: only malformed input or a mismatched operand reaches them
    "ncpoly:Generator.__setattr__": "error path: refuses to change a generator",
    "ncpoly:NCPoly._mismatch": "error path: the message of a space mismatch",
    "modalg:PolyCoord._mismatch": "error path: the message of a space mismatch",
    "smash:SmashElem._mismatch": "error path: the message of a space mismatch",
    "algebroid:TensorOverA._mismatch": "error path: the message of a space mismatch",
    "scalars:TruncSeries._check": "error path: refuses series of different orders",
    "reporting:Refusal.is_zero": "error path: a bracket whose matrix cannot be formed",
    # public API: the documented constructor and scalar multiples of elements
    "scalars:TruncSeries.__init__": "public API: a series from its coefficient list",
    "ncpoly:LinearCombination.__mul__": "public API: element * scalar and scalar * element",
    "smash:SmashElem._order": "public API: the order a plain scalar multiple is coerced to",
    "algebroid:TensorOverA._order": "public API: the order a plain scalar multiple is coerced to",
    # reprs: for a reader at a prompt or a debugger
    "ncpoly:Generator.__repr__": "repr",
    "scalars:GaussRational.__repr__": "repr",
    "scalars:TruncSeries.__repr__": "repr",
    "reporting:ResidualReport.__repr__": "repr",
    # boundaries the benchmark's layer tracer wraps (bench/tracer.py, HOT)
    "scalars:TruncSeries.__sub__": "benchmark boundary: bench/tracer.py HOT scalars.add",
}

# each problem command, as its argv head
COMMANDS = (
    ["check-twist"],
    ["star-table"],
    ["smash-verify"],
    ["algebroid-verify", "--side", "bm-twisted"],
    ["algebroid-verify", "--side", "xu-twisted"],
    ["theorem"],
    ["suite"],
)
SLOW_ON_IGL4 = ("smash-verify", "theorem", "suite")
DEFECTIVE = ("pw-jordanian-perturbed.json", "pw-jordanian-nonnormalized.json")


def command_matrix(presets) -> list:
    """The argv of every run, in order."""
    runs = []
    for name in presets:
        order = "1" if name == "igl4-abelian" else "2"
        for head in COMMANDS:
            if name == "igl4-abelian" and head[0] in SLOW_ON_IGL4:
                continue
            runs.append(head + ["--preset", name, "--order", order, "--degree", "1"])
    for config in DEFECTIVE:
        for head in COMMANDS:
            runs.append(head + ["--config", str(GOLDEN / config), "--order", "2",
                                "--degree", "1"])
    runs.append(["commutator", "--preset", "heisenberg", "--order", "2",
                 "(x0 + 1/2*h)^2", "-i*P0 + x1"])
    runs.append(["commutator", "--preset", "pw-jordanian", "--order", "2", "--deformed",
                 "x0", "x1"])
    runs.append(["export-preset", "--preset", "pw-jordanian", "--order", "2"])
    return runs


def defined_functions() -> dict:
    """``module:Qualified.name`` of every module-level function and method in
    the package, by (file, first line of its code object)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            scopes = [(node, "")]
            if isinstance(node, ast.ClassDef):
                scopes = [(child, node.name + ".") for child in node.body]
            for fn, prefix in scopes:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a decorated function's code starts at its first decorator
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out[(str(path), first)] = f"{module}:{prefix}{fn.name}"
    return out


def reached_code() -> set:
    """(file, first line) of every Python function started while the package
    is imported and the command matrix goes through ``smashtwist.cli.main``."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        # the import runs under the profile too: decorators run there
        from smashtwist.cli import main
        from smashtwist.registry import PRESET_NAMES

        with tempfile.TemporaryDirectory() as tmp:
            report = os.path.join(tmp, "report.json")
            for argv in command_matrix(PRESET_NAMES):
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv + ["--json", report])
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in seen}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    defined = defined_functions()
    reached = reached_code()
    unreached = sorted(name for key, name in defined.items() if key not in reached)
    stray = [name for name in unreached if name not in ALLOWED]
    for name in unreached:
        reason = ALLOWED.get(name)
        print(f"{name}  (allowed: {reason})" if reason else name)
    if stray:
        print(f"{len(stray)} function(s) no command reaches, outside the allow-list",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
