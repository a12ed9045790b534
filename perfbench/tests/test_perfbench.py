"""Self-tests of the benchmark: tracer completeness, seeds, output checks.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""
import cProfile
import inspect
import json
import os
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for _p in (str(BENCH), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402

import sobosvd.experiment as experiment  # noqa: E402
from tracer import COUNT_SUFFIXES, Tracer, summarize, traced_functions  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    check_output,
    load_reference,
    make_inputs,
)

OTHER_SEED = 7


def _run(inputs):
    config = experiment.ExperimentConfig.from_dict(inputs.config, base_dir=inputs.base_dir)
    return experiment.run_experiment(config, edge_cases=inputs.workload.edge_cases)


def _traced(inputs):
    tracer = Tracer()
    with tracer:
        result = _run(inputs)
    return result, summarize(tracer.spans)


def _counts(summary):
    return {k: v for k, v in summary.items() if k.endswith(COUNT_SUFFIXES)}


def test_traced_counts_match_a_profile_of_the_same_run(tmp_path):
    inputs = make_inputs(WORKLOADS["verify-brownian-513"], DEFAULT_SEED, tmp_path)
    _, summary = _traced(inputs)

    profile = cProfile.Profile()
    profile.enable()
    _run(inputs)
    profile.disable()
    profiled = {key: nc for key, (cc, nc, *_) in pstats.Stats(profile).stats.items()}

    for name, fn in traced_functions():
        code = inspect.unwrap(fn).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        assert summary[f"{name}.calls"] == profiled.get(key, 0), name

    assert summary["svd_engine.mode_svd.calls"] == 19
    assert summary["lapack.svd.calls"] == 35
    assert summary["truncation.hooi.calls"] == 8
    assert summary["truncation.hooi.sweeps"] == 8
    assert summary["discretization.partial_derivative.calls"] == 124
    assert summary["tensor_core.mode_product.calls"] == 308
    # the stage spans account for the run; what they miss is untraced time
    assert summary["trace.coverage"] >= 0.95


def test_uninstall_restores_every_binding():
    def bindings():
        names = [n for n in sys.modules if n == "sobosvd" or n.startswith("sobosvd.")]
        out = {(n, k): v for n in names for k, v in vars(sys.modules[n]).items()}
        out["svd"] = np.linalg.svd
        out["post_init"] = sys.modules["sobosvd.discretization"].GridFunction.__dict__["__post_init__"]
        out["validate"] = jsonschema.Draft202012Validator.__dict__["validate"]
        return out

    before = bindings()
    tracer = Tracer()
    with tracer:
        wrapped = bindings()
        for module in ("sobosvd.experiment", "sobosvd.truncation", "sobosvd.svd_engine"):
            key = (module, "mode_svd")
            assert wrapped[key] is not before[key], module
        assert wrapped["svd"] is not before["svd"]
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ["verify-sum3d-65", "sweep-file-257"])
def test_a_second_seed_gives_the_same_counts_and_checks(name, tmp_path):
    reference = load_reference()[name]
    counts = []
    for seed in (DEFAULT_SEED, OTHER_SEED):
        inputs = make_inputs(WORKLOADS[name], seed, tmp_path / str(seed))
        result, summary = _traced(inputs)
        assert check_output(inputs, result.report, result.report_path, reference) == []
        counts.append(_counts(summary))
    # the report's size follows the digits of its numbers, which depend on c
    for c in counts:
        del c["experiment.report.bytes"]
    assert counts[0] == counts[1]
    if name == "sweep-file-257":
        assert counts[0]["truncation.hooi.calls"] == 0


def test_check_output_flags_wrong_outputs(tmp_path):
    name = "verify-sum3d-65"
    reference = load_reference()[name]
    inputs = make_inputs(WORKLOADS[name], DEFAULT_SEED, tmp_path)
    result = _run(inputs)
    report, path = result.report, result.report_path
    assert check_output(inputs, report, path, reference) == []

    def problems(edit):
        bad = json.loads(json.dumps(report))
        edit(bad)
        return check_output(inputs, bad, path, reference)

    def scale_sigma(bad):
        bad["spectra"][0]["sigmas"][0] *= 1.01

    def drop_check(bad):
        bad["checks"].pop()

    def fail(bad):
        bad["passed"] = False

    def perturb_tail(bad):
        bad["spectra"][1]["sigmas"][5] += 1e-10

    for edit in (scale_sigma, drop_check, fail, perturb_tail):
        assert problems(edit), edit.__name__

    path.write_text(path.read_text("utf-8").replace('"worst": null', '"worst": NaN', 1))
    assert any("strict JSON" in p for p in check_output(inputs, report, path, reference))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-file-257",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_what_the_harness_measures(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    inputs = make_inputs(WORKLOADS["sweep-file-257"], DEFAULT_SEED, tmp_path, n=65)
    _, summary = _traced(inputs)
    emitted = set(summary) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= emitted
