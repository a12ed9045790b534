"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
by name and reads some of their arguments by name. A renamed function or
argument would otherwise only show in a traced benchmark run."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import sobosvd as sv  # noqa: E402
from perfbench.tracer import Tracer, summarize  # noqa: E402

LAYERS = (
    "experiment.load_samples",
    "discretization.partial_derivative",
    "tensor_core.mode_product",
    "svd_engine.mode_svd",
    "truncation.h1_sandwich",
    "truncation.hosvd_project",
)


def test_tracer_sees_every_verify_layer(tmp_path):
    # the benchmark's runs read a raw sample file, as this one does
    u = sv.sample_case(sv.get_case("SEP1"), (17, 17))
    sv.save_samples(u, tmp_path / "samples.raw")
    config = sv.ExperimentConfig.from_dict(
        {"function": {"file": "samples.raw"}, "output": "out"}, base_dir=tmp_path
    )
    # the verify path (edge cases on, as ``sobosvd verify`` runs it) is the
    # one that calls hosvd_project; h1_sandwich measures without it
    with Tracer() as tracer:
        result = sv.run_experiment(config, edge_cases=True)
    assert result.passed
    counts = summarize(tracer.spans)
    assert {name: counts[f"{name}.calls"] > 0 for name in LAYERS} == dict.fromkeys(LAYERS, True)
    assert counts["discretization.partial_derivative.elements"] > 0
    assert counts["experiment.load_samples.bytes"] > 0


def test_tracer_reads_hooi_by_name():
    # a verify run makes no hooi call; the tracer still reads hooi's
    # max_iters argument and error_history result by name. summarize()
    # needs a run span, so the hooi spans are totalled here
    u = sv.sample_case(sv.get_case("SUM3D"), (9, 9, 9))
    with Tracer() as tracer:
        sv.hooi(u, (2, 2, 2), systems=sv.mode_svds(u))
    spans = [s for s in tracer.spans if s.name == "truncation.hooi"]
    assert len(spans) > 0
    assert sum(s.work["sweeps"] for s in spans) > 0
