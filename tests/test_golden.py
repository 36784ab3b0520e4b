"""Golden corpus: CLI JSON reports must not change by a single byte.

The reports under tests/golden/ were captured from the implementation that
predates the integer scalar kernel; every later change to the arithmetic,
the rewriting or the structure maps must reproduce them exactly.  Rewrite
them only with tests/golden/rewrite.py, for a change meant to alter a report.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_rewrite", GOLDEN / "rewrite.py")
rewrite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rewrite)

CASES = rewrite.load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_report_matches_golden(case, tmp_path):
    out = tmp_path / "report.json"
    assert rewrite.run_case(case, str(out)) == case["exit"]
    assert out.read_bytes() == (GOLDEN / f"{case['name']}.json").read_bytes()


def test_every_golden_report_has_a_case():
    names = {case["name"] for case in CASES}
    reports = {
        p.stem for p in GOLDEN.glob("*.json")
        if p.name not in ("cases.json", "pw-jordanian-perturbed.json",
                          "pw-jordanian-nonnormalized.json")
    }
    assert reports == names
