"""The package reads its schemas itself (experiment._schema_errors).

jsonschema is a test-only dependency here: its Draft 2020-12 validator is
the reference the reader must agree with, in verdict and in message, on
every config the tests build or reject, on reports of the benchmark's
workloads, on a sample sidecar, and on mutations of each.
"""
import ast
import copy
import functools
import inspect
import json
import operator
import sys
from pathlib import Path

import jsonschema
import pytest

from sobosvd import experiment, get_case, sample_case, save_samples
from sobosvd.errors import ConfigError, SampleFileError, SobosvdError

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402

# every schema the package ships, and its name: config for config.schema.json
SCHEMA_FILES = sorted((Path(experiment.__file__).parent / "schemas").glob("*.json"))
SCHEMA_NAMES = [p.name.removesuffix(".schema.json") for p in SCHEMA_FILES]
# keywords that assert nothing: the reader skips them, as jsonschema does
# ($defs is walked below, and read through $ref)
ANNOTATIONS = {"$schema", "$id", "title", "$defs"}


def _reader_keywords() -> set[str]:
    """The keywords ``_schema_errors`` tests for, as ``key == "..."``."""
    tree = ast.parse(inspect.getsource(experiment._schema_errors))
    return {
        node.comparators[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and getattr(node.left, "id", None) == "key"
        and isinstance(node.comparators[0], ast.Constant)
    }


def _subschemas(schema: dict):
    """Every schema object inside ``schema``, itself included."""
    yield schema
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            subs = list(value.values())
        elif key == "oneOf":
            subs = value
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            subs = [value]
        else:
            subs = []
        for sub in subs:
            yield from _subschemas(sub)


def test_every_shipped_schema_is_read():
    assert SCHEMA_NAMES == ["config", "report", "samples"]
    loaded = [experiment.CONFIG_SCHEMA, experiment.REPORT_SCHEMA, experiment.SAMPLES_SCHEMA]
    assert [json.loads(p.read_text("utf-8")) for p in SCHEMA_FILES] == loaded


@pytest.mark.parametrize("path", SCHEMA_FILES, ids=SCHEMA_NAMES)
def test_reader_implements_every_schema_keyword(path):
    # a schema edit that brings in a keyword the reader skips must fail here
    schema, implemented = json.loads(path.read_text("utf-8")), _reader_keywords()
    assert {"type", "oneOf", "$ref", "additionalProperties"} <= implemented
    for sub in _subschemas(schema):
        assert set(sub) <= implemented | ANNOTATIONS, sorted(set(sub) - implemented)
        if "$ref" in sub:
            assert sub["$ref"].removeprefix("#/$defs/") in schema.get("$defs", {})
        # the reader compares const and enum values with ==, JSON's
        # equality on strings
        for value in [sub.get("const", "")] + sub.get("enum", []):
            assert isinstance(value, str)
        types = sub.get("type", [])
        for type_name in [types] if isinstance(types, str) else types:
            experiment._is(None, type_name)  # a KeyError names a type it lacks


def _reference(data, schema, where=(), what="config"):
    """The ``_validate`` message jsonschema's validator gives, or None."""
    errors = jsonschema.Draft202012Validator(schema).iter_errors(data)
    err = min(errors, key=lambda e: list(e.absolute_path), default=None)
    if err is None:
        return None
    at = "/".join(str(p) for p in (*where, *err.absolute_path)) or "top level"
    return f"{what} invalid at {at}: {err.message}"


def _ours(data, schema, where=(), what="config"):
    error = {"config": ConfigError, "sample sidecar": SampleFileError}.get(what, SobosvdError)
    try:
        experiment._validate(data, schema, where, error=error, what=what)
    except error as exc:
        return str(exc)
    return None


def _places(value, path=()):
    """Every path into ``value``; in a list, the first item stands for the rest."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _places(item, (*path, key))
    elif isinstance(value, list) and value:
        yield from _places(value[0], (*path, 0))


def _variants(node):
    if type(node) is int:
        yield from (float(node), node + 0.5, -node - 1, True, str(node))
    elif type(node) is float:
        yield from (-node, 0.0, float("inf"), False, str(node))
    elif isinstance(node, bool):
        yield from (int(node), "true", None)
    elif node is None:
        yield from (0, False, "null")
    elif isinstance(node, str):
        yield from ("nonsense", 1, None)
    elif isinstance(node, list):
        yield from ([], node + node[:1], {}, [[]], [None])
    elif isinstance(node, dict):
        yield from ({**node, "surprise": 1}, [], {})
        for key in node:
            yield {k: v for k, v in node.items() if k != key}


def _at(value, path):
    return functools.reduce(operator.getitem, path, value)


def _mutations(value):
    """``value`` changed at one place each: ints as integral and fractional
    floats, negatives, bools and strings; lists emptied or with a repeated
    item; objects with an extra key or with each key removed."""
    for path in _places(value):
        for variant in _variants(_at(value, path)):
            if not path:
                yield variant
                continue
            out = copy.deepcopy(value)
            _at(out, path[:-1])[path[-1]] = variant
            yield out


def _test_configs() -> list[dict]:
    """Every config literal in the other test files: the dicts with a "function" key."""
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "function" for k in node.keys
            ):
                try:
                    found.append(ast.literal_eval(node))
                except ValueError:
                    pass  # built from variables; its shape is among the mutations
    return found


def _distinct(values):
    seen = {}
    for value in values:
        seen.setdefault(json.dumps(value, sort_keys=True, default=repr), value)
    return list(seen.values())


def test_reader_agrees_with_jsonschema_on_configs():
    configs = _test_configs()
    assert len(configs) >= 30
    configs += [
        # both and neither oneOf branch, and the sweep's int-or-array
        {"function": {"case": "SEP1", "file": "x.raw"}},
        {"function": {"params": {}}},
        {"function": {"case": "SEP1"}, "ranks": {"explicit": [[1]], "sweep": {"from": 1, "to": 2}}},
        {"function": {"case": "SEP1"}, "ranks": {"sweep": {"from": [1, 2], "to": 3, "step": [1]}}},
        {"function": {"case": "SEP1"}, "ranks": {"sweep": {"from": [], "to": 3}}},
        {"function": {"case": "SEP1"}, "ranks": {"sweep": {"from": 1.0, "to": True}}},
        # several breaks at once: the first path is reported
        {"function": [], "grid": {"n": [2, 2.5]}, "checks": ["x", "x"], "a": 1, "b": 2},
        {"function": {"case": "SEP1"}, "tolerances": {"sandwich": -1, "eckart_young": "x"}},
        {"function": {"case": "SEP1"}, "checks": [1, True], "tolerances": {"x": True}},
        {"function": {"case": "SEP1"}, "checks": [1, 1.0], "grid": {"n": [1e999]}},
        [],
        None,
    ]
    cases = _distinct(m for config in configs for m in [config, *_mutations(config)])
    assert len(cases) > 500
    disagree = [
        (case, ours, ref)
        for case in cases
        if (ours := _ours(case, experiment.CONFIG_SCHEMA))
        != (ref := _reference(case, experiment.CONFIG_SCHEMA))
    ]
    assert disagree == []
    verdicts = {_reference(case, experiment.CONFIG_SCHEMA) is None for case in cases}
    assert verdicts == {True, False}

    # one known difference in the message, not the verdict: the reader
    # compares the items of checks with ==, under which [1] equals [True];
    # jsonschema reports the first item's enum miss, the reader the repeat
    nested = {"function": {"case": "SEP1"}, "checks": [[1], [True]]}
    assert _reference(nested, experiment.CONFIG_SCHEMA).startswith("config invalid at checks/0")
    assert _ours(nested, experiment.CONFIG_SCHEMA).endswith("has non-unique elements")


@pytest.mark.parametrize(
    "key, value",
    [
        ("checks", ["eckart_young", "eckart_young"]),
        ("checks", ["edge_cases"]),
        ("checks", []),
        ("tolerances", {"eckart_young": float("inf")}),
        ("tolerances", {"sandwich": float("nan")}),
        ("tolerances", {"sandwich": 0.0}),
        ("tolerances", {"sandwich": "1e-9"}),
        ("tolerances", {"sandwich": 1}),
        ("tolerances", {}),
    ],
)
def test_reader_agrees_with_jsonschema_on_configs_built_directly(key, value):
    # ExperimentConfig validates the whole config once; these rows are the
    # values of checks and tolerances a config built in Python may carry
    config = {"function": {"case": "SEP1"}, key: value}
    schema = experiment.CONFIG_SCHEMA
    assert _ours(config, schema) == _reference(config, schema)


def test_reader_agrees_with_jsonschema_on_sidecars(tmp_path):
    u = sample_case(get_case("SUM3D"), (5, 4, 3))
    save_samples(u, tmp_path / "u.raw")
    sidecar = json.loads((tmp_path / "u.raw.meta.json").read_text("utf-8"))
    schema = experiment.SAMPLES_SCHEMA
    assert _ours(sidecar, schema, what="sample sidecar") is None
    axis = sidecar["axes"][0]
    sidecars = [
        sidecar,
        {**sidecar, "shape": [5.0, 4, 3]},
        {**sidecar, "shape": [5, 4.5, 3], "axes": [axis, {**axis, "lower": True}]},
        {**sidecar, "shape": [], "axes": []},
        {**sidecar, "format": "sobosvd-raw-2", "dtype": ">f8", "order": "lex"},
        {**sidecar, "axes": [{**axis, "lower": -1, "note": "x"}]},
        {"shape": [0], "axes": [{}]},
    ]
    cases = _distinct(m for s in sidecars for m in [s, *_mutations(s)])
    # an integer no float holds is a JSON number all the same
    cases.append({**sidecar, "axes": [{**axis, "upper": 10**400}]})
    assert len(cases) > 200
    verdicts = [_reference(case, schema, what="sample sidecar") for case in cases]
    assert [_ours(case, schema, what="sample sidecar") for case in cases] == verdicts
    assert {v is None for v in verdicts} == {True, False}


def _report(config: dict, base_dir: Path, edge_cases: bool) -> dict:
    cfg = experiment.ExperimentConfig.from_dict(config, base_dir=base_dir)
    return experiment.run_experiment(cfg, edge_cases=edge_cases).report


def _reports(tmp_path) -> list[dict]:
    """Reports of the benchmark's four workloads at small n, and a failing run's."""
    reports = []
    for name, w in sorted(WORKLOADS.items()):
        n = 65 if w.ranks else 9 if w.case == "SUM3D" else 17
        inputs = make_inputs(w, 1809, tmp_path / name, n=n)
        reports.append(_report(inputs.config, inputs.base_dir, w.edge_cases))
    failing = {
        "function": {"case": "BROWNIAN"},
        "grid": {"n": [17, 17]},
        "ranks": {"sweep": {"from": 1, "to": 4}},
        "tolerances": {"eckart_young": 1e-300},
    }
    reports.append(_report(failing, tmp_path, False))
    assert [r["passed"] for r in reports] == [True] * 4 + [False]
    return reports


def _report_mutations(report: dict):
    yield {**report, "extra": 1}
    yield {**report, "schema": "sobosvd-report-2"}
    yield {**report, "passed": "yes"}
    yield {**report, "threads": "2"}
    yield {**report, "diagnostics": None}
    yield {**report, "grid": {**report["grid"], "n": [3.0, 2]}}
    yield {**report, "grid": {**report["grid"], "domain": [[0.0, 1.0, 2.0]]}}
    yield {**report, "grid": {**report["grid"], "domain": [[0.0]]}}
    for key in report:
        yield {k: v for k, v in report.items() if k != key}
    for field, value in [("status", "ok"), ("worst", "x"), ("tolerance", True), ("extra", 1)]:
        yield {**report, "checks": [{**report["checks"][0], field: value}, *report["checks"][1:]]}
    for field, value in [("sigmas", [True]), ("mode", -1), ("retained", 1.5), ("extra", 1)]:
        yield {**report, "spectra": [{**report["spectra"][0], field: value}]}
    yield {**report, "spectra": [{k: v for k, v in report["spectra"][0].items() if k != "mode"}]}
    # a bool, a string and a null inside a number array, past its first entry
    sigmas = report["spectra"][0]["sigmas"]
    for bad in (True, "0.5", None):
        spectrum = {**report["spectra"][0], "sigmas": [*sigmas[:1], bad, *sigmas[1:]]}
        yield {**report, "spectra": [spectrum, *report["spectra"][1:]]}
    yield {**report, "reports": [[]]}


def test_reader_agrees_with_jsonschema_on_reports(tmp_path):
    schema = experiment.REPORT_SCHEMA
    for report in _reports(tmp_path):
        assert _ours(report, schema, what="report") is None
        assert _reference(report, schema, what="report") is None
        cases = list(_report_mutations(report))
        if report["diagnostics"] is not None:
            cases += [{**report, "diagnostics": d} for d in _mutations(report["diagnostics"])]
        verdicts = [_reference(case, schema, what="report") for case in cases]
        assert [_ours(case, schema, what="report") for case in cases] == verdicts
        assert {v is None for v in verdicts} == {True, False}


def test_invalid_report_raises(monkeypatch):
    # the report is validated on every run; a wrong one is the program's fault
    monkeypatch.setattr(experiment, "UNIFORM_TRAPEZOID_FD2", 1)
    cfg = experiment.ExperimentConfig.from_dict(
        {"function": {"case": "SEP1"}, "grid": {"n": [9, 9]}}
    )
    with pytest.raises(SobosvdError, match="report invalid at grid/scheme: 1 is not of type"):
        experiment.run_experiment(cfg)
