"""End-to-end benchmark of the smashtwist CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload twist-order5 --seed 1 --seconds 50 --trace 0

Each job of the workload (bench/spec.json) goes through the shipped entry
point ``smashtwist.cli.main(argv)`` in this process, one after another, and
every verdict is checked against a known answer (bench/verdicts.py).  The
seed picks the perturbation of the negative controls and the job order.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json: after the
set-up measurement and one warm-up pass, it repeats passes through the job
list for --seconds (at least min_passes of them) and counts each job with
its median time.  A reference loop timed before every job measures how fast
the shared host ran; the time metrics are scaled to its nominal speed
(bench/spec.json, host_speed).  --trace 1 runs one untraced pass, then one pass under the
layer tracer (bench/tracer.py), and reports the per-layer metrics; the spans
go to .bench_work/.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import verdicts  # noqa: E402
from tracer import Tracer  # noqa: E402


class Job:
    def __init__(self, argv, expectation, json_path):
        self.argv = argv
        self.expectation = expectation
        self.json_path = json_path

    @property
    def label(self):
        exp = self.expectation
        tag = f" perturbed k={exp.perturbation[0]}" if exp.perturbation else ""
        return f"{exp.command} {exp.preset} N={exp.order}{tag}"


# -- inputs -------------------------------------------------------------------


def jordanian_config(order: int, k: int, q: Fraction) -> dict:
    """pw-jordanian as a problem config, with q h^k added to D (x) P0^k.

    The exponent is D (x) log(1 - i h P0): the h^j term has coefficient
    (-i)^j (-1)^(j+1) / j, written out to the truncation order.
    """
    exponent = []
    for j in range(1, order + 1):
        re_unit, im_unit = ((1, 0), (0, -1), (-1, 0), (0, 1))[j % 4]
        sign = 1 if j % 2 else -1
        value = Fraction(sign * (re_unit or im_unit), j)
        hpow = "h" if j == 1 else f"h^{j}"
        factors = [str(value)] + (["i"] if im_unit else []) + [hpow]
        exponent.append({"coeff": "*".join(factors), "left": ["D"], "right": ["P0"] * j})
    exponent.append({"coeff": f"{q}*h^{k}", "left": ["D"], "right": ["P0"] * k})
    return {
        "name": "pw-jordanian-perturbed",
        "order": order,
        "degree": 2,
        "algebra": {
            "generators": [
                {"name": "D", "sort": "symmetry"},
                {"name": "P0", "sort": "momentum"},
                {"name": "P1", "sort": "momentum"},
            ],
            "brackets": [
                {"left": "D", "right": p, "terms": [{"coeff": "1", "gen": p}]}
                for p in ("P0", "P1")
            ],
        },
        "representation": {
            "momenta": ["P0", "P1"],
            "matrices": {"D": [["1", "0"], ["0", "1"]]},
        },
        "twist": {"exponent": exponent},
    }


def make_jobs(spec: dict, workload: dict, seed: int, work: Path) -> list:
    """The workload's job list; the seed fixes the perturbations and the order."""
    rng = random.Random(seed)
    jobs = []
    for n, item in enumerate(workload["jobs"]):
        out = str(work / f"report-{n}.json")
        command = item["command"]
        preset = item.get("preset") or item["perturb"]
        facts = verdicts.PRESETS[preset]
        order = item.get("order", facts["order"])
        degree = item.get("degree", facts["degree"])
        if "perturb" in item:
            k = item["k"]
            # denominators prime to every jordanian coefficient keep it nonzero
            den = rng.choice((7, 11, 13))
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, den - 1), den)
            config = work / f"config-{n}.json"
            config.write_text(json.dumps(jordanian_config(order, k, q), indent=2))
            argv = [command, "--config", str(config)]
            exp = verdicts.Expectation(command, preset, order, degree, (k, q),
                                       spec["unasserted"].get(command, ()))
        else:
            argv = [command, "--preset", preset]
            if "order" in item:
                argv += ["--order", str(order)]
            if "degree" in item:
                argv += ["--degree", str(degree)]
            exp = verdicts.Expectation(command, preset, order, degree)
        jobs.append(Job(argv + ["--json", out], exp, out))
    rng.shuffle(jobs)
    return jobs


# -- running ------------------------------------------------------------------


def fresh_import():
    """Import the package from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "smashtwist" or m.startswith("smashtwist.")]:
        del sys.modules[name]
    return importlib.import_module("smashtwist.cli")


def measure_setup(jobs: list, repeats: int):
    """Median over repeats of package import plus cli.load_problem of every job."""
    samples = []
    cli = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        cli = fresh_import()
        for job in jobs:
            cli.load_problem(cli.build_parser().parse_args(job.argv))
        samples.append(time.perf_counter() - t0)
    return cli, statistics.median(samples)


# The host's reference loop: Fraction sums in a dict keyed by tuples, the
# kind of work the program does, but no smashtwist code.  Timed before every
# job, its mean tells how fast the shared host ran this process on average.
_keys = random.Random(0)
REFERENCE_KEYS = [tuple(_keys.randrange(40) for _ in range(_keys.randrange(1, 5)))
                  for _ in range(2000)]


def reference_seconds() -> float:
    # a collection here would walk the program's heap and charge its size
    # to the loop
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for n, key in enumerate(REFERENCE_KEYS):
            for other in REFERENCE_KEYS[n % 50::797]:
                word = key + other
                acc[word] = acc.get(word, 0) + Fraction(n % 7 + 1, len(word) + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(cli, jobs: list, tracer=None, reference=None):
    """Run every job once; returns (seconds per job, identities checked, wrong verdicts).

    With a list as reference, one reference_seconds() sample is appended to
    it before each job.
    """
    times = []
    checked = 0
    wrong = 0
    # once per pass: the transport cache makes a full collection slow
    gc.collect()
    for n, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = n
        if reference is not None:
            reference.append(reference_seconds())
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(job.argv)
        except Exception:  # a crash is a wrong verdict; keep measuring the rest
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        report = None
        if os.path.exists(job.json_path):
            with open(job.json_path) as fh:
                report = json.load(fh)
            os.remove(job.json_path)
        problems = verdicts.check(job.expectation, code, report)
        if report is not None:
            checked += sum(r.get("checked", 0) for r in report.get("records", []))
        if problems:
            wrong += 1
            print(f"WRONG VERDICT {job.label}: " + "; ".join(problems), file=sys.stderr)
    return times, checked, wrong


def main(argv=None) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smashtwist" / "cli.py").is_file():
        print(f"error: no smashtwist source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs = make_jobs(spec, workload, args.seed, work)
        if args.trace:
            cli = fresh_import()
            untraced, _, wrong = run_pass(cli, jobs)
            tracer = Tracer(spec["layers"])
            tracer.install()
            traced, traced_checked, traced_wrong = run_pass(cli, jobs, tracer)
            wrong += traced_wrong
            attempted = 2 * len(jobs)
            values = tracer.metrics()
            values["trace.overhead_s"] = sum(traced) - sum(untraced)
            if tracer.absent:
                print("absent boundaries: " + ", ".join(tracer.absent), file=sys.stderr)
            if values["reporting.records"] != traced_checked:
                print(f"warning: tracer saw {values['reporting.records']} records, "
                      f"reports hold {traced_checked}", file=sys.stderr)
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.dump()))
            wanted = bench["per_layer"]
        else:
            cli, setup = measure_setup(jobs, spec["setup_repeats"])
            _, _, wrong = run_pass(cli, jobs)  # warm-up, verdicts still checked
            samples = [[] for _ in jobs]
            reference = []
            passes = 0
            start = last = time.perf_counter()
            pass_s = 0.0
            # no pass starts that would end after --seconds
            while passes < spec["min_passes"] or last + pass_s - start <= args.seconds:
                times, checked, bad = run_pass(cli, jobs, reference=reference)
                now = time.perf_counter()
                pass_s, last = now - last, now
                for sample, t in zip(samples, times):
                    sample.append(t)
                wrong += bad
                passes += 1
                if passes == spec["min_passes"]:
                    # read after a fixed amount of work: the transport cache
                    # grows with every pass, so later readings would depend
                    # on how many passes the host's speed allowed
                    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # the median pass of each job: a host slowdown shorter than a few
            # passes does not move it
            wall = sum(statistics.median(sample) for sample in samples)
            # a host slower for the whole run: scale to the reference speed.  The
            # mean, not the median: a 20 ms sample lands in either a fast or a
            # slow spell of the host, and only their average tracks the jobs
            host = statistics.fmean(reference) / spec["reference_s"]
            print(f"{passes} timed passes; median seconds: " + ", ".join(
                f"{job.label} {statistics.median(s):.3f}" for job, s in zip(jobs, samples))
                + f"; wall {wall:.3f} s; reference loop {host:.3f}x its nominal time",
                file=sys.stderr)
            print("samples " + json.dumps({"jobs": samples, "reference": reference}), file=sys.stderr)
            attempted = (passes + 1) * len(jobs)
            values = {
                "norm_wall_s": wall / host,
                "setup_s": setup / host,
                "peak_rss_mib": rss,
                "norm_identities_per_s": checked * host / wall,
            }
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
