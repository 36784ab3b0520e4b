"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. The verdict checker accepts real reports and flags doctored ones: a record
   whose ``checked`` is lowered by one, and a negative control reported as
   passing.  The unperturbed jordanian config written by the benchmark must
   pass like the preset it restates.
2. Tracer counts on the heisenberg preset repeat exactly across two traced
   processes with the same PYTHONHASHSEED; a third process with another hash
   seed shows whether the counts depend on it.

Exits 0 when every check of part 1 holds and the counts of part 2 repeat.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import run
import verdicts

TRACED_JOB = ["suite", "--preset", "heisenberg"]
SPEC = json.loads((run.HERE / "spec.json").read_text())
UNASSERTED = SPEC["unasserted"]["check-twist"]


def run_job(cli, argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--json", path])
    with open(path) as fh:
        return code, json.load(fh)


def check_verdicts(work) -> list:
    cli = run.fresh_import()
    failures = []

    def expect(label, problems, want_problems):
        caught = bool(problems)
        ok = caught == want_problems
        print(f"{'ok  ' if ok else 'FAIL'} {label}: "
              f"{'; '.join(problems) if problems else 'no problems'}")
        if not ok:
            failures.append(label)

    exp = verdicts.Expectation("check-twist", "heisenberg", 4, 2)
    code, report = run_job(cli, ["check-twist", "--preset", "heisenberg"], str(work / "pos.json"))
    expect("positive report accepted", verdicts.check(exp, code, report), False)
    doctored = copy.deepcopy(report)
    doctored["records"][1]["checked"] -= 1
    expect("checked lowered by one is caught", verdicts.check(exp, code, doctored), True)

    config = work / "plain.json"
    config.write_text(json.dumps(run.jordanian_config(3, 2, Fraction(0))))
    code, report = run_job(cli, ["check-twist", "--config", str(config)], str(work / "plain-out.json"))
    exp = verdicts.Expectation("check-twist", "pw-jordanian", 3, 2)
    expect("unperturbed jordanian config passes", verdicts.check(exp, code, report), False)

    k, q = 2, Fraction(3, 7)
    config = work / "neg.json"
    config.write_text(json.dumps(run.jordanian_config(3, k, q)))
    code, report = run_job(cli, ["check-twist", "--config", str(config)], str(work / "neg-out.json"))
    exp = verdicts.Expectation("check-twist", "pw-jordanian", 3, 2, (k, q), UNASSERTED)
    expect("negative control fails as predicted", verdicts.check(exp, code, report), False)
    doctored = copy.deepcopy(report)
    doctored["ok"] = True
    for rec in doctored["records"]:
        rec["status"], rec["residual"] = "pass", "0"
    expect("negative control reported as pass is caught", verdicts.check(exp, 0, doctored), True)
    wrong_q = verdicts.Expectation("check-twist", "pw-jordanian", 3, 2, (k, q + 1), UNASSERTED)
    expect("residual of another perturbation is caught", verdicts.check(wrong_q, code, report), True)
    return failures


def traced_counts(work) -> dict:
    """Per-layer counts of one traced job in this process (times dropped)."""
    cli = run.fresh_import()
    tracer = run.Tracer(SPEC["layers"])
    tracer.install()
    run_job(cli, TRACED_JOB, str(work / f"traced-{os.getpid()}.json"))
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


def check_counts() -> list:
    results = []
    for hash_seed in ("0", "0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, __file__, "--counts"], env=env,
                             capture_output=True, text=True, check=True, timeout=600)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    first, again, other = results
    failures = []
    diff = sorted(k for k in first if first[k] != again[k])
    print(f"{'ok  ' if not diff else 'FAIL'} tracer counts repeat under one hash seed"
          + (f": differ on {diff}" if diff else f" ({len(first)} metrics)"))
    if diff:
        failures.append("tracer counts repeat")
    diff = sorted(k for k in first if first[k] != other[k])
    print("note counts " + (f"depend on the hash seed: {diff}" if diff
                            else "do not depend on the hash seed"))
    print("     " + json.dumps(first, sort_keys=True))
    return failures


def main() -> int:
    if not (run.SRC / "smashtwist" / "cli.py").is_file():
        print(f"error: no smashtwist source under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if sys.argv[1:] == ["--counts"]:
            print(json.dumps(traced_counts(work)))
            return 0
        failures = check_verdicts(work) + check_counts()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("FAILED: " + ", ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
