"""Rewrite the golden CLI reports in this directory.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tests/golden/rewrite.py [NAME ...]

Each case of cases.json (all of them, or only the named ones) runs through
``smashtwist.cli.main`` with this directory as the working directory, and its
``--json`` report overwrites ``<name>.json`` here.  A case whose exit code
differs from the one cases.json records is reported and not written: change
an expected verdict in cases.json deliberately, never through this script.

Run it only for a change that is meant to alter a report, and review the diff
of the rewritten files; tests/test_golden.py compares them byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_cases() -> list:
    return json.loads((HERE / "cases.json").read_text())["cases"]


def run_case(case: dict, json_path: str) -> int:
    """Run one case with HERE as the working directory; returns the exit code."""
    from smashtwist.cli import main

    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(case["argv"] + ["--json", json_path])
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    wanted = set(sys.argv[1:] if argv is None else argv)
    cases = load_cases()
    unknown = wanted - {case["name"] for case in cases}
    if unknown:
        print(f"unknown case(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    status = 0
    for case in cases:
        if wanted and case["name"] not in wanted:
            continue
        target = HERE / f"{case['name']}.json"
        scratch = target.with_suffix(".json.new")
        code = run_case(case, str(scratch))
        if code != case["exit"]:
            scratch.unlink(missing_ok=True)
            print(f"{case['name']}: exit {code}, cases.json expects {case['exit']}; not written",
                  file=sys.stderr)
            status = 1
            continue
        scratch.replace(target)
        print(f"{case['name']}: written")
    return status


if __name__ == "__main__":
    sys.exit(main())
