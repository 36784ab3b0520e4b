"""Driver behavior: configs, reports, exit codes, expressions."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from smashtwist.cli import (
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_RESIDUAL,
    SUITE_CHECKS,
    ConfigError,
    _ExprParser,
    build_parser,
    cmd_commutator,
    main,
    run,
    schema_errors,
    validate_config,
)
from smashtwist.registry import PRESET_NAMES, materialize, preset
from smashtwist.scalars import GaussRational, TruncSeries


@pytest.fixture(scope="module")
def igl2_config():
    return preset("igl2-abelian", 2)


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


SCHEMA = Path(__file__).resolve().parents[1] / "src" / "smashtwist" / "config.schema.json"


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


# scalars a mutation may put anywhere; no integral float and no string with
# a final newline, where this validator is stricter than draft-07 on purpose
_WORDS = ["", "NOPE", "P 1", "1X", "h", "-1/2*i*h", "abc", "1/0", "h^-1", "twist",
          "symmetry", "momentum", "coordinate", "name", "order", "algebra",
          "generators", "brackets", "left", "right", "terms", "coeff", "gen", "sort",
          "representation", "momenta", "matrices", "exponent", "checks"]
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                     st.sampled_from([0.5, -1.5]), st.sampled_from(_WORDS))
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(_WORDS), inner, max_size=3),
), max_leaves=6)


def _nodes(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _at_path(obj, path):
    for part in path:
        obj = obj[part]
    return obj


@st.composite
def mutated_exports(draw):
    """A preset, built at order 1 to 4, with one node replaced, removed or added to."""
    cfg = preset(draw(st.sampled_from(PRESET_NAMES)), draw(st.integers(1, 4)))
    paths = list(_nodes(cfg))
    path = draw(st.sampled_from(paths))
    names = [g["name"] for g in cfg["algebra"]["generators"]]
    value = draw(st.one_of(_JSON, st.sampled_from(names), st.sampled_from(paths).map(
        lambda p: json.loads(json.dumps(_at_path(cfg, p))))))
    node = _at_path(cfg, path)
    op = draw(st.sampled_from(["replace", "remove", "add"]))
    if op == "replace" and path:
        _at_path(cfg, path[:-1])[path[-1]] = value
    elif op == "remove" and path:
        del _at_path(cfg, path[:-1])[path[-1]]
    elif isinstance(node, dict):
        node[draw(st.sampled_from(_WORDS + names))] = value
    elif isinstance(node, list):
        node.insert(draw(st.integers(0, len(node))), value)
    else:
        cfg = value
    return cfg


@pytest.fixture(scope="module")
def draft7():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("order", range(1, 7))
def test_presets_as_built_pass_the_schema(draft7, name, order):
    cfg = preset(name, order)
    assert validate_config(cfg) == []
    assert draft7.is_valid(cfg)


@settings(max_examples=300, deadline=None)
@given(cfg=mutated_exports())
def test_fuzzed_configs_fail_the_schema_like_jsonschema(draft7, cfg):
    assert bool(schema_errors(draft7.schema, cfg)) == (not draft7.is_valid(cfg))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_exports())
def test_fuzzed_configs_never_crash(tmp_path, capsys, cfg):
    errors = validate_config(cfg)
    code = main(["check-twist", "--config", write_config(tmp_path, cfg), "--order", "1"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if errors:
        assert code == EXIT_INPUT
        assert all(f"  {e}" in err for e in errors)


@pytest.mark.parametrize("mutate, path", [
    pytest.param(_add_key("order", 2.0), "order", id="integral-float-order"),
    pytest.param(_add_key("name", "Q\n", "algebra", "generators", 0),
                 "algebra.generators[0].name", id="name-with-final-newline"),
])
def test_stricter_than_draft7(tmp_path, igl2_config, capsys, mutate, path):
    # JSON's integers and ECMA-262's '$', as the hand-written validator had them
    cfg = json.loads(json.dumps(igl2_config))
    mutate(cfg)
    assert any(e.startswith(f"{path}: ") for e in validate_config(cfg))
    assert main(["check-twist", "--config", write_config(tmp_path, cfg)]) == EXIT_INPUT
    assert f"  {path}: " in capsys.readouterr().err
    # the deviation itself: draft-07 as jsonschema implements it accepts both
    jsonschema = pytest.importorskip("jsonschema")
    assert jsonschema.Draft7Validator(json.loads(SCHEMA.read_text())).is_valid(cfg)


def test_schema_interpreter_refuses_unknown_keywords():
    assert schema_errors({"type": "array", "minItems": 1}, [1, 2]) == []
    with pytest.raises(ValueError, match="maxItems"):
        schema_errors({"type": "array", "maxItems": 1}, [1, 2])


def test_schema_checks_match_the_suite():
    checks = json.loads(SCHEMA.read_text())["properties"]["checks"]["items"]["enum"]
    assert checks == list(SUITE_CHECKS)
    assert checks == preset("trivial")["checks"]


def _bracket_twice(reverse):
    def mutate(cfg):
        first = cfg["algebra"]["brackets"][0]
        left, right = (first["right"], first["left"]) if reverse else (first["left"], first["right"])
        cfg["algebra"]["brackets"].append({"left": left, "right": right, "terms": []})
    return mutate


def _coordinate_in_twist(cfg):
    cfg["algebra"]["generators"].append({"name": "y0", "sort": "coordinate"})
    cfg["twist"]["exponent"][0]["left"] = ["y0"]


@pytest.mark.parametrize("mutate, line", [
    pytest.param(_bracket_twice(False),
                 "algebra.brackets[9]: duplicate bracket for (L00, L01), "
                 "first at algebra.brackets[0]", id="same-order"),
    pytest.param(_bracket_twice(True),
                 "algebra.brackets[9]: duplicate bracket for (L01, L00), "
                 "first at algebra.brackets[0]", id="reversed"),
    pytest.param(_add_key("coeff", "abc", "algebra", "brackets", 0, "terms", 0),
                 "algebra.brackets[0].terms[0].coeff: bad factor 'abc'", id="bad-coeff"),
    pytest.param(_add_key("coeff", "1/0", "twist", "exponent", 0),
                 "twist.exponent[0].coeff: bad factor '1/0'", id="zero-denominator"),
    pytest.param(_add_key(0, "x", "representation", "matrices", "L00", 0),
                 "representation.matrices.L00[0][0]: bad factor 'x'", id="bad-entry"),
    pytest.param(_add_key(0, "h", "representation", "matrices", "L00", 0),
                 "representation.matrices.L00[0][0]: literal 'h' must not involve h",
                 id="entry-with-h"),
    pytest.param(_add_key("right", "L00", "algebra", "brackets", 0),
                 "algebra.brackets[0]: bracket of 'L00' with itself", id="self-bracket"),
    pytest.param(lambda cfg: cfg["representation"]["momenta"].pop(),
                 "representation.momenta: missing 'P1'", id="missing-momentum"),
    pytest.param(lambda cfg: cfg["representation"]["momenta"].append("P0"),
                 "representation.momenta[2]: 'P0' is not a declared momentum listed once",
                 id="repeated-momentum"),
    pytest.param(_coordinate_in_twist,
                 "twist.exponent[0].left[0]: 'y0' is not a declared symmetry or momentum",
                 id="coordinate-in-twist"),
    pytest.param(_add_generator("y0"),
                 "algebra.generators[6].name: coordinates are x0..x1 in momentum order, "
                 "not 'y0'", id="coordinate-not-named-by-momentum"),
    pytest.param(_add_generator("x2"),
                 "algebra.generators[6].name: coordinates are x0..x1 in momentum order, "
                 "not 'x2'", id="coordinate-past-the-momenta"),
    *(pytest.param(_add_key("coeff", coeff, "algebra", "brackets", 0, "terms", 0),
                   f"algebra.brackets[0].terms[0].coeff: bad factor {coeff!r}", id=f"coeff-{coeff}")
      for coeff in ("1e5", "1.5", "1_000", "1e999999999", "+3", "3/-2")),
    pytest.param(_add_key("coeff", "h^1_0", "algebra", "brackets", 0, "terms", 0),
                 "algebra.brackets[0].terms[0].coeff: bad power of h in 'h^1_0'",
                 id="coeff-h-power-underscore"),
])
def test_semantic_errors_exit_2_with_path(tmp_path, igl2_config, capsys, mutate, line):
    cfg = json.loads(json.dumps(igl2_config))
    mutate(cfg)
    assert main(["check-twist", "--config", write_config(tmp_path, cfg)]) == EXIT_INPUT
    assert f"  {line}" in capsys.readouterr().err


def test_coordinates_named_by_momentum_are_accepted(tmp_path, igl2_config):
    cfg = json.loads(json.dumps(igl2_config))
    for name in ("x0", "x1"):
        _add_generator(name)(cfg)
    assert validate_config(cfg) == []
    assert main(["check-twist", "--config", write_config(tmp_path, cfg)]) == EXIT_PASS


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
    report = run(args)
    wall = {rec["name"]: rec["wall_ms"] for rec in report.records}
    for row in rows:
        assert wall[row] > 0, row


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-twist", "--config", str(path)]) == EXIT_INPUT


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["check-twist", "--config", str(path)]) == EXIT_INPUT
    assert "not valid JSON" in capsys.readouterr().err


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


NONNORMALIZED = Path(__file__).parent / "golden" / "pw-jordanian-nonnormalized.json"


def _check_twist_failures(tmp_path, capsys, cfg_path):
    """check-twist's exit code and its failing rows, name -> residual; the
    report must be written and stderr free of errors."""
    out = tmp_path / "report.json"
    code = main(["check-twist", "--config", str(cfg_path), "--json", str(out)])
    assert "error:" not in capsys.readouterr().err
    records = json.loads(out.read_text())["records"]
    passing = {r["name"] for r in records if r["status"] == "pass"}
    assert {"cocycle", "inverse cocycle", "r-matrix laws", "triangularity",
            "classical limit"} <= passing
    return code, {r["name"]: r["residual"] for r in records if r["status"] != "pass"}


def _normalization_rows(up: str, down: str) -> dict:
    return {"normalization (left)": up, "inverse normalization (left)": down,
            "normalization (right)": up, "inverse normalization (right)": down}


def test_non_normalized_twist_fails_only_its_normalization_rows(tmp_path, capsys):
    # the central exponent term h (1 (x) 1) keeps the cocycle, and each counit
    # contraction of exp(+-t) keeps its scalar factor exp(+-h)
    code, failing = _check_twist_failures(tmp_path, capsys, NONNORMALIZED)
    assert code == EXIT_RESIDUAL
    assert failing == _normalization_rows("(h + 1/2*h^2 + 1/6*h^3)*1",
                                          "(-h + 1/2*h^2 - 1/6*h^3)*1")


def _exp_minus_one(c: GaussRational, order: int) -> TruncSeries:
    """exp(c h) - 1 truncated at h^order, summed term by term."""
    coeffs, term = [GaussRational(0)], GaussRational(1)
    for k in range(1, order + 1):
        term = term * c * GaussRational(Fraction(1, k))
        coeffs.append(term)
    return TruncSeries(order, coeffs)


_small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(re=_small_fractions, im=_small_fractions)
def test_central_exponent_term_fails_exactly_the_normalization_rows(tmp_path, capsys, re, im):
    c = GaussRational(re, im)
    assume(not c.is_zero())
    cfg = preset("pw-jordanian", 3)
    for coeff in (f"{re}*h" if re else None, f"{im}*i*h" if im else None):
        if coeff:
            cfg["twist"]["exponent"].append({"coeff": coeff, "left": [], "right": []})
    code, failing = _check_twist_failures(tmp_path, capsys, write_config(tmp_path, cfg))
    assert code == EXIT_RESIDUAL
    assert failing == _normalization_rows(f"({_exp_minus_one(c, 3)})*1",
                                          f"({_exp_minus_one(-c, 3)})*1")


PERTURBED = str(Path(__file__).parent / "golden" / "pw-jordanian-perturbed.json")


@pytest.mark.parametrize("argv, code", [
    (["check-twist"], EXIT_RESIDUAL),
    (["star-table"], EXIT_PASS),
    (["smash-verify"], EXIT_RESIDUAL),
    (["algebroid-verify", "--side", "bm-twisted"], EXIT_RESIDUAL),
    (["algebroid-verify", "--side", "xu-twisted"], EXIT_RESIDUAL),
    (["theorem"], EXIT_RESIDUAL),
    (["suite"], EXIT_RESIDUAL),
    (["commutator", "x0", "x1", "--deformed"], EXIT_PASS),
], ids=["twist", "star-table", "smash", "bm", "xu", "theorem", "suite", "commutator"])
def test_fail_fast_stops_at_the_first_failing_record(argv, code, tmp_path, capsys):
    # the perturbed twist fails the cocycle law, and every check built on it;
    # star-table and commutator only write witnesses and passes, which never stop
    def records(*extra):
        out = str(tmp_path / "report.json")
        assert main(argv + ["--config", PERTURBED, "--order", "3", "--degree", "1",
                            "--json", out, *extra]) == code
        return json.loads(open(out).read())["records"]

    full, fast = records(), records("--fail-fast")
    failing = [k for k, rec in enumerate(full) if rec["status"] == "fail"]
    assert bool(failing) == (code == EXIT_RESIDUAL)
    assert fast == (full[:failing[0] + 1] if failing else full)


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
    with pytest.raises(ConfigError, match="end of expression"):
        _ExprParser("x0 +", prob, mul).parse()
    with pytest.raises(ConfigError, match="unknown symbol 'Q99'"):
        _ExprParser("Q99", prob, mul).parse()
    with pytest.raises(ConfigError, match="zero denominator in '1/0'"):
        _ExprParser("x0 + 1/0", prob, mul).parse()


def test_commutator_with_a_zero_denominator_exits_2(capsys):
    assert main(["commutator", "--preset", "heisenberg", "--order", "2",
                 "x0", "1/0"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "zero denominator in '1/0'" in err
    assert "Traceback" not in err


def test_unary_minus_binds_looser_than_a_power():
    prob = materialize("heisenberg", order=2)
    mul = prob.smash.product(None)

    def parse(text):
        return _ExprParser(text, prob, mul).parse()

    assert parse("-P0^2") == parse("0-P0^2") == -parse("P0^2")
    assert parse("-2^2") == parse("0-4")
    assert parse("(-2)^2") == parse("4")
    assert parse("x0*-P0^2") == -parse("x0*P0^2")


def test_commutator_command_phase_space():
    import argparse

    # canonical phase-space pair: [P0, x0] = 1 in the undeformed product
    args = argparse.Namespace(
        preset="igl2-abelian", config=None, order=2, degree=None,
        json=None, fail_fast=False, lhs="P0", rhs="x0", deformed=False,
        cmd="commutator", fn=cmd_commutator,
    )
    report = run(args)
    assert report.records[0]["residual"] == "(1)*1#1"
    # coordinates commute undeformed
    args.lhs, args.rhs = "x0", "x1"
    report = run(args)
    assert report.records[0]["residual"] == "0"
    # the quadratic momentum invariant stops commuting with x0 at order h
    args.lhs, args.rhs = "P0*P0 + P1*P1", "x0"
    undeformed = run(args).records[0]["residual"]
    args.deformed = True
    deformed = run(args).records[0]["residual"]
    assert undeformed != deformed
    assert "h" in deformed


def test_cli_export_import_cycle(tmp_path, capsys):
    assert main(["export-preset", "--preset", "pw-jordanian"]) == EXIT_PASS
    text = capsys.readouterr().out
    cfg = json.loads(text)
    assert validate_config(cfg) == []
    prob = materialize(cfg)
    assert not prob.twist.is_trivial()


# export-preset reads only --preset, --order and --json; it used to accept and
# ignore the problem flags, so --config printed igl2-abelian and exited 0


@pytest.mark.parametrize("flag", [
    ["--config", str(Path(__file__).parent / "golden" / "pw-jordanian-perturbed.json")],
    ["--degree", "1"],
    ["--fail-fast"],
], ids=["config", "degree", "fail-fast"])
def test_export_preset_rejects_problem_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export-preset", *flag])
    assert exc.value.code == 2  # argparse's usage error
    assert "unrecognized arguments" in capsys.readouterr().err


# an exported config's twist exponent is exact only to its order: the
# jordanian log series written at h^3 is not the twist at h^5


def test_order_above_an_exported_config_exits_2(tmp_path, capsys):
    path = str(tmp_path / "cfg.json")
    assert main(["export-preset", "--preset", "pw-jordanian", "--json", path]) == EXIT_PASS
    assert json.loads(open(path).read())["order"] == 3
    assert main(["check-twist", "--config", path, "--order", "5"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "order: 5 is above the config's order 3" in err
    assert "Traceback" not in err


def test_export_at_a_negative_order_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    assert main(["export-preset", "--preset", "pw-jordanian", "--order", "-1",
                 "--json", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "order: must be >= 0" in captured.err
    assert "Traceback" not in captured.err
    assert not captured.out and not path.exists()


# the overrides obey the bounds the schema sets on a config's own order and
# degree: a negative order used to crash in the polynomial product, and a
# negative degree passed "module algebra" on no case


@pytest.mark.parametrize("flag", ["--order", "--degree"])
@pytest.mark.parametrize("source", [
    ["--preset", "heisenberg"],
    ["--config", PERTURBED],
], ids=["preset", "config"])
def test_negative_order_or_degree_override_exits_2(source, flag, capsys):
    assert main(["star-table", *source, flag, "-1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"error: {flag}: must be >= 0" in captured.err
    assert "Traceback" not in captured.err
    assert not captured.out


def test_preset_at_a_higher_order_passes():
    assert main(["check-twist", "--preset", "pw-jordanian", "--order", "5"]) == EXIT_PASS


def test_export_at_a_higher_order_round_trips(tmp_path):
    path = str(tmp_path / "cfg.json")
    assert main(["export-preset", "--preset", "pw-jordanian", "--order", "5",
                 "--json", path]) == EXIT_PASS
    out = str(tmp_path / "report.json")
    assert main(["check-twist", "--config", path, "--json", out]) == EXIT_PASS
    assert json.loads(open(out).read())["order"] == 5


# the problem whose theorem is refused: its twist fails the cocycle at h^3
REFUSED = ["--config", PERTURBED, "--order", "3", "--degree", "1"]


def test_every_record_comes_from_a_declared_law(monkeypatch):
    from smashtwist import algebroid, cli, modalg, registry, smash
    from smashtwist.cli import Report

    evaluated = []
    for module in (algebroid, cli, modalg, registry, smash):
        def spy(*args, evaluate=module.evaluate, **kwargs):
            evaluated.append(evaluate(*args, **kwargs))
            return evaluated[-1]
        monkeypatch.setattr(module, "evaluate", spy)
    through_law = []
    add, add_law = Report.add, Report.add_law

    def spy_add(self, *args, **kwargs):
        through_law.append(bool(entering))
        add(self, *args, **kwargs)

    def spy_add_law(self, name, identity, law):
        assert any(law is out for out in evaluated), name
        entering.append(name)
        try:
            add_law(self, name, identity, law)
        finally:
            entering.pop()

    entering = []
    monkeypatch.setattr(Report, "add", spy_add)
    monkeypatch.setattr(Report, "add_law", spy_add_law)
    problem = ["--preset", "pw-jordanian", "--order", "1", "--degree", "1"]
    seen = set()
    for argv in [argv + problem for argv in (
            ["check-twist"], ["star-table"], ["smash-verify"],
            ["algebroid-verify", "--side", "xu-twisted"], ["theorem"], ["suite"],
            ["commutator", "x0", "x1", "--deformed"])] + [["theorem"] + REFUSED]:
        through_law.clear()
        report = run(build_parser().parse_args(argv))
        # witnesses, searches and constructions included: every row is a law
        assert through_law == [True] * len(report.records), argv
        lines = report.human().splitlines()[4:]
        for rec, line in zip(report.records, lines):
            assert rec["domain"], rec["name"]
            # the human table prints each row's domain, the JSON does not
            assert rec["name"] in line and rec["domain"] in line
            seen.add(rec["identity"])
            if rec["name"].endswith(("undeformed product", "deformed product")):
                assert "seed 4711" in rec["domain"]
            if rec["name"].endswith(("multiplicative", "counit-product")):
                assert "seed 20259" in rec["domain"]
        assert all("domain" not in rec for rec in report.to_json()["records"])
    assert {"star-commutator", "shifted-r-intertwining", "commutator-evaluation",
            "braided-commutativity-precondition", "twistor-laws"} <= seen
    assert {"smash-associativity-unitality", "bialgebroid-multiplicative"} <= seen


# -- where a row's time comes from ---------------------------------------------


@pytest.fixture
def tick(monkeypatch):
    """A clock that stands still but for the ticks of chosen functions, so a
    row's time is exactly the ticks its work made: ``tick(module, name)``
    makes each call of ``module.name`` take one second."""
    from smashtwist import reporting

    now = [0.0]
    monkeypatch.setattr(reporting.time, "perf_counter", lambda: now[0])

    def ticking(module, name):
        fn = getattr(module, name)

        def slow(*args, **kwargs):
            now[0] += 1.0
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, slow)
    ticking.now = now
    return ticking


def _wall(argv):
    report = run(build_parser().parse_args(argv))
    return {rec["name"]: rec["wall_ms"] for rec in report.records}


def test_the_xu_construction_is_not_charged_its_twistor_laws(tick):
    from smashtwist import algebroid

    # the twistor cocycle law makes the problem's only two delta_left calls
    # before the axiom sweep
    tick(algebroid, "delta_left")
    wall = _wall(["algebroid-verify", "--side", "xu-twisted", "--preset", "pw-jordanian",
                  "--order", "1", "--degree", "1"])
    assert (wall["construction"], wall["twistor cocycle"]) == (0.0, 2000.0)


def test_a_refused_theorem_is_charged_its_build(tick):
    from smashtwist import algebroid

    # the twistor laws are the build of the hypothesis that refuses
    tick(algebroid, "shifted_twist_residuals")
    assert _wall(["theorem"] + REFUSED)["construction"] == 1000.0


@pytest.mark.parametrize("argv", [
    ["algebroid-verify", "--side", "xu-twisted", "--preset", "pw-jordanian",
     "--order", "1", "--degree", "1"],
    ["theorem"] + REFUSED,
    ["suite", "--preset", "pw-jordanian", "--order", "1", "--degree", "1"],
], ids=["algebroid-verify-xu", "theorem-perturbed", "suite"])
def test_rows_take_no_more_time_than_their_command(tick, argv):
    from smashtwist import algebroid

    for name in ("delta_left", "shifted_twist_residuals", "bm_bialgebroid_twisted"):
        tick(algebroid, name)
    start = tick.now[0]
    wall = _wall(argv)
    assert 0 < sum(wall.values()) <= (tick.now[0] - start) * 1000.0
