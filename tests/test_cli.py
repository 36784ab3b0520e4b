"""Driver behavior: configs, reports, exit codes, expressions."""

import json
from pathlib import Path

import pytest

from smashtwist.cli import (
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_RESIDUAL,
    _ExprParser,
    build_parser,
    cmd_commutator,
    config_to_preset,
    main,
    validate_config,
)
from smashtwist.registry import materialize, preset_to_config


@pytest.fixture(scope="module")
def igl2_config():
    return preset_to_config("igl2-abelian", order=2)


def write_config(tmp_path, cfg, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_config_accepts_exports(igl2_config):
    assert validate_config(igl2_config) == []


def test_validate_config_reports_paths(igl2_config):
    cfg = json.loads(json.dumps(igl2_config))
    cfg["order"] = -1
    cfg["algebra"]["brackets"][0]["left"] = "NOPE"
    cfg["twist"]["exponent"][0]["right"] = ["ALSO_NOPE"]
    errors = validate_config(cfg)
    assert any("order" in e for e in errors)
    assert any("NOPE" in e for e in errors)
    assert any("ALSO_NOPE" in e for e in errors)


def test_check_twist_on_config_file(tmp_path, igl2_config):
    path = write_config(tmp_path, igl2_config)
    out = str(tmp_path / "report.json")
    code = main(["check-twist", "--config", path, "--json", out])
    assert code == EXIT_PASS
    data = json.loads(open(out).read())
    assert data["ok"] is True
    assert all("wall_ms" not in rec for rec in data["records"])
    identities = {rec["identity"] for rec in data["records"]}
    assert "twist-cocycle" in identities


def test_schema_violation_exits_2(tmp_path, igl2_config, capsys):
    cfg = json.loads(json.dumps(igl2_config))
    del cfg["representation"]
    path = write_config(tmp_path, cfg)
    assert main(["check-twist", "--config", path]) == EXIT_INPUT
    assert "representation" in capsys.readouterr().err


SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "config.schema.json"


def _schema_path(error):
    """A jsonschema error's instance path in this validator's notation."""
    text = ""
    for part in error.absolute_path:
        text += f"[{part}]" if isinstance(part, int) else f".{part}"
    return text.lstrip(".")


def _add_key(key, value, *where):
    def mutate(cfg):
        obj = cfg
        for part in where:
            obj = obj[part]
        obj[key] = value
    return mutate


def _add_generator(name):
    def mutate(cfg):
        cfg["algebra"]["generators"].append({"name": name, "sort": "coordinate"})
    return mutate


@pytest.mark.parametrize("mutate, path", [
    pytest.param(_add_key("degre", 2), "degre", id="unknown-root-key"),
    pytest.param(_add_key("brackets_", [], "algebra"), "algebra.brackets_",
                 id="unknown-algebra-key"),
    pytest.param(_add_key("comment", "x", "algebra", "generators", 0),
                 "algebra.generators[0].comment", id="unknown-generator-key"),
    pytest.param(_add_key("weight", 1, "algebra", "brackets", 0, "terms", 0),
                 "algebra.brackets[0].terms[0].weight", id="unknown-term-key"),
    pytest.param(_add_key("dim", 2, "representation"), "representation.dim",
                 id="unknown-representation-key"),
    pytest.param(_add_key("inverse", [], "twist"), "twist.inverse", id="unknown-twist-key"),
    pytest.param(_add_key("order", 1, "twist", "exponent", 0), "twist.exponent[0].order",
                 id="unknown-exponent-key"),
    pytest.param(_add_generator("P 1"), "algebra.generators[6].name", id="name-with-space"),
    pytest.param(_add_generator("1X"), "algebra.generators[6].name", id="name-with-digit-first"),
    pytest.param(_add_generator(""), "algebra.generators[6].name", id="empty-name"),
    pytest.param(_add_key("order", True), "order", id="order-true"),
    pytest.param(_add_key("order", False), "order", id="order-false"),
    pytest.param(_add_key("degree", True), "degree", id="degree-true"),
    pytest.param(_add_key(0, 1, "representation", "matrices", "L00", 0),
                 "representation.matrices.L00[0][0]", id="integer-matrix-entry"),
    pytest.param(_add_key("brackets", {}, "algebra"), "algebra.brackets",
                 id="brackets-object"),
    pytest.param(_add_key("left", ["L00"], "algebra", "brackets", 0),
                 "algebra.brackets[0].left", id="list-bracket-left"),
    pytest.param(_add_key("gen", {"x": 1}, "algebra", "brackets", 0, "terms", 0),
                 "algebra.brackets[0].terms[0].gen", id="object-term-gen"),
    pytest.param(_add_key(0, ["P0"], "representation", "momenta"),
                 "representation.momenta[0]", id="list-momentum"),
    pytest.param(_add_key(0, ["P0"], "twist", "exponent", 0, "left"),
                 "twist.exponent[0].left[0]", id="list-exponent-letter"),
    pytest.param(_add_key("checks", [["twist"]]), "checks[0]", id="list-check"),
])
def test_schema_holes_exit_2_like_jsonschema(tmp_path, igl2_config, capsys, mutate, path):
    # jsonschema is a test-time cross-check only; the package never imports it
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
    cfg = json.loads(json.dumps(igl2_config))
    assert not list(validator.iter_errors(cfg))
    mutate(cfg)
    schema_paths = [_schema_path(e) for e in validator.iter_errors(cfg)]
    assert schema_paths, "jsonschema accepts the mutated config"
    assert any(path.startswith(p) for p in schema_paths), schema_paths

    assert main(["check-twist", "--config", write_config(tmp_path, cfg)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"  {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, rows", [
    (["check-twist"], ["twist-inverse (right)", "triangularity", "classical limit"]),
    (["smash-verify"], ["undeformed product", "deformed product", "phi bijectivity"]),
    (["algebroid-verify", "--side", "xu-twisted"],
     ["shifted R closed forms", "twistor inverse", "twistor cocycle", "twistor normalization"]),
])
def test_rows_are_charged_their_own_time(argv, rows):
    args = build_parser().parse_args(
        argv + ["--preset", "igl2-abelian", "--order", "1", "--degree", "1"]
    )
    report = args.fn(args)
    wall = {rec["name"]: rec["wall_ms"] for rec in report.records}
    for row in rows:
        assert wall[row] > 0, row


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-twist", "--config", str(path)]) == EXIT_INPUT


def test_math_failure_exits_1(tmp_path, igl2_config):
    cfg = json.loads(json.dumps(igl2_config))
    # schema-valid but mathematically broken structure constants
    cfg["algebra"]["brackets"][0]["terms"].append({"coeff": "1", "gen": "P0"})
    path = write_config(tmp_path, cfg)
    assert main(["check-twist", "--config", path]) == EXIT_RESIDUAL


def test_constant_order_exponent_exits_2(tmp_path, igl2_config, capsys):
    cfg = json.loads(json.dumps(igl2_config))
    cfg["twist"]["exponent"].append({"coeff": "1", "left": ["P0"], "right": ["L11"]})
    path = write_config(tmp_path, cfg)
    assert main(["check-twist", "--config", path]) == EXIT_INPUT
    assert "h^0" in capsys.readouterr().err


def test_json_report_is_byte_stable(tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    args = ["star-table", "--preset", "heisenberg", "--order", "2"]
    assert main(args + ["--json", out1]) == EXIT_PASS
    assert main(args + ["--json", out2]) == EXIT_PASS
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_json_report_stable_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    import smashtwist

    # the child imports the same smashtwist as this process, whether it is
    # installed or found through PYTHONPATH; nothing else is inherited
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(smashtwist.__file__)))
    outs = []
    for seed in ("1", "7"):
        out = tmp_path / f"p{seed}.json"
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
               "PYTHONPATH": import_root}
        proc = subprocess.run(
            [sys.executable, "-m", "smashtwist.cli", "check-twist",
             "--preset", "heisenberg", "--order", "2", "--json", str(out)],
            env=env, capture_output=True,
        )
        stderr = proc.stderr.decode(errors="replace")
        assert proc.returncode == EXIT_PASS, stderr
        assert out.exists(), f"no report written; stderr: {stderr}"
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_non_cocycle_twist_reported_not_crashing(tmp_path, igl2_config):
    # invertible and normalized, but the legs do not commute and the
    # exponent is not a cocycle: commands must report, not crash
    cfg = json.loads(json.dumps(igl2_config))
    cfg["twist"]["exponent"] = [{"coeff": "h", "left": ["L01"], "right": ["L10"]}]
    path = write_config(tmp_path, cfg)
    code = main(["algebroid-verify", "--config", path, "--side", "bm-twisted",
                 "--order", "2", "--fail-fast"])
    assert code == EXIT_RESIDUAL


def test_suite_respects_checks_list(tmp_path, igl2_config):
    cfg = json.loads(json.dumps(igl2_config))
    cfg["checks"] = ["twist", "star-table"]
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "suite.json")
    assert main(["suite", "--config", path, "--json", out]) == EXIT_PASS
    data = json.loads(open(out).read())
    prefixes = {rec["name"].split(":")[0] for rec in data["records"]}
    assert prefixes == {"twist", "star-table"}


def test_suite_materializes_the_problem_once(monkeypatch):
    import smashtwist.cli as cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return materialize(*args, **kwargs)

    monkeypatch.setattr(cli, "materialize", counting)
    assert main(["suite", "--preset", "pw-jordanian", "--order", "1",
                 "--degree", "1"]) == EXIT_PASS
    assert len(calls) == 1


def test_expression_parser():
    prob = materialize("igl2-abelian", order=2)
    mul = prob.smash.product(None)
    val = _ExprParser("(x0 + 2*x1)^2 - x0^2", prob, mul).parse()
    from smashtwist.modalg import PolyCoord
    x0 = PolyCoord.coord(2, 2, 0)
    x1 = PolyCoord.coord(2, 2, 1)
    want = prob.smash.coord_elem(x0 * x1 * 4 + x1 * x1 * 4)
    assert val == want
    val = _ExprParser("i*h*P0", prob, mul).parse()
    assert not val.is_zero()
    with pytest.raises(Exception):
        _ExprParser("x0 +", prob, mul).parse()
    with pytest.raises(Exception):
        _ExprParser("Q99", prob, mul).parse()


def test_commutator_command_phase_space():
    import argparse

    # canonical phase-space pair: [P0, x0] = 1 in the undeformed product
    args = argparse.Namespace(
        preset="igl2-abelian", config=None, order=2, degree=None,
        json=None, fail_fast=False, lhs="P0", rhs="x0", deformed=False,
    )
    report = cmd_commutator(args)
    assert report.records[0]["residual"] == "(1)*1#1"
    # coordinates commute undeformed
    args.lhs, args.rhs = "x0", "x1"
    report = cmd_commutator(args)
    assert report.records[0]["residual"] == "0"
    # the quadratic momentum invariant stops commuting with x0 at order h
    args.lhs, args.rhs = "P0*P0 + P1*P1", "x0"
    undeformed = cmd_commutator(args).records[0]["residual"]
    args.deformed = True
    deformed = cmd_commutator(args).records[0]["residual"]
    assert undeformed != deformed
    assert "h" in deformed


def test_cli_export_import_cycle(tmp_path, capsys):
    assert main(["export-preset", "--preset", "pw-jordanian"]) == EXIT_PASS
    text = capsys.readouterr().out
    cfg = json.loads(text)
    assert validate_config(cfg) == []
    pre = config_to_preset(cfg)
    prob = materialize(pre)
    assert not prob.twist.is_trivial()
