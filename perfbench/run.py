"""Benchmark of the sobosvd experiment pipeline (the `sobosvd verify` path).

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One process runs the chosen workloads with BLAS pinned to one thread.
Each workload writes its input from the seed, then times complete
``run_experiment`` calls, from the config dict to a validated report on
disk, for ``--seconds`` seconds, and checks every run's output. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced runs and prints the
per-layer metrics. The last line of the output is one JSON object per
workload: correct, attempted, failed and metrics.
"""
import os
import sys

# BLAS sizes its thread pool when numpy loads, so pin it first; the
# probes started below inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
MIN_SAMPLES = 3
WARMUP_POINTS = 65 * 65  # warm-up grid size; enough for the 64-rank sweep in 2D
PROBE_TIMEOUT = 120


def _probe(spec: dict | None) -> dict:
    cmd = [sys.executable, str(HERE / "probe.py")]
    if spec is not None:
        cmd.append(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT
    )
    if out.returncode != 0:
        last = (out.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"probe exited {out.returncode}: {last}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _timed_run(inputs, experiment):
    """One run from the config dict to the report on disk; (seconds, result)."""
    t0 = time.perf_counter()
    config = experiment.ExperimentConfig.from_dict(inputs.config, base_dir=inputs.base_dir)
    result = experiment.run_experiment(config, edge_cases=inputs.workload.edge_cases)
    return time.perf_counter() - t0, result


class Calibration:
    """A fixed kernel timed between runs: dense SVD, matrix product, sort
    and a Python loop, the kinds of work a run does.

    Other tenants of a shared machine change its speed over seconds to
    minutes; dividing a run's time by the kernel's mean time just before
    and just after it cancels part of that.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 256))
        self._b = rng.standard_normal((256, 2048))
        self.last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            np.linalg.svd(self._a)
            self._a @ self._b
            np.sort(self._b, axis=1)
            sum(range(20000))
        return time.perf_counter() - t0

    def relative(self, seconds: float) -> float:
        """``seconds`` over the kernel's time around it; call right after the run."""
        before, self.last = self.last, self.measure()
        return seconds / (0.5 * (before + self.last))


class Tally:
    """Attempted and failed runs of one workload, with every problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _run_checked(inputs, experiment, reference, tally: Tally):
    """A timed run whose output is checked; None if it raised."""
    from workloads import check_output

    try:
        seconds, result = _timed_run(inputs, experiment)
    except Exception as exc:  # a run that raises is a failed run
        tally.record([f"run raised {type(exc).__name__}: {exc}"])
        return None
    tally.record(check_output(inputs, result.report, result.report_path, reference))
    return seconds, result


def _give_up(tally: Tally, t_end: float) -> bool:
    """Past the run time, stop waiting for MIN_SAMPLES when runs keep failing."""
    return time.perf_counter() >= t_end and tally.failed > 2 * MIN_SAMPLES


def end_to_end(inputs, seconds: float, experiment, reference, tally: Tally, log) -> dict:
    from workloads import check_output

    w = inputs.workload
    try:
        # the first import may compile bytecode; it is not counted
        setup = [_probe(None)["import_s"] for _ in range(SETUP_REPEATS + 1)][1:]
        probe = _probe(
            {
                "config": inputs.config,
                "base_dir": str(inputs.base_dir),
                "out_dir": str(inputs.base_dir / "rss_out"),
                "edge_cases": w.edge_cases,
            }
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        tally.record([f"fresh-process probe: {exc}"])
        return {}
    log(f"setup_s samples: {[round(s, 4) for s in setup]}")
    report_path = Path(probe["report"])
    tally.record(
        check_output(inputs, json.loads(report_path.read_text("utf-8")), report_path, reference)
    )

    samples, relative = [], []
    calibration = Calibration()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(samples) < MIN_SAMPLES:
        if _give_up(tally, t_end):
            break
        done = _run_checked(inputs, experiment, reference, tally)
        if done is not None:
            samples.append(done[0])
            relative.append(calibration.relative(done[0]))
    if not samples:
        return {}
    log(f"run_s: {len(samples)} samples {[round(s, 4) for s in samples]}, max {max(samples):.4f}")
    log(f"run_rel: {[round(r, 3) for r in relative]}")
    return {
        "run_s_p50": statistics.median(samples),
        "run_rel_p50": statistics.median(relative),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": probe["peak_rss_mb"],
    }


def per_layer(inputs, seconds: float, experiment, reference, tally: Tally, log) -> dict:
    from tracer import COUNT_SUFFIXES, Tracer, summarize

    tracer = Tracer()
    plain, traced, summaries = [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(traced) < MIN_SAMPLES:
        if _give_up(tally, t_end):
            break
        done = _run_checked(inputs, experiment, reference, tally)
        if done is not None:
            plain.append(done[0])
        tracer.spans.clear()
        with tracer:
            done = _run_checked(inputs, experiment, reference, tally)
        if done is not None:
            traced.append(done[0])
            summaries.append(summarize(tracer.spans))
    if not traced or not plain:
        return {}

    out = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                tally.problems.append(f"{key} differs between traced runs: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    log(f"traced runs: {len(traced)}, untraced runs: {len(plain)}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, log) -> tuple:
    import sobosvd.experiment as experiment
    from workloads import WORKLOADS, load_reference, make_inputs

    w = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    reference = load_reference()[name]
    inputs = make_inputs(w, seed, work / "input")
    log(f"workload {name}: {w.case} {w.n}^{inputs.dim}, seed {seed}, scale c = {inputs.scale!r}")

    # let lazy set-up finish on a tiny grid before anything is timed
    warm = make_inputs(w, seed, work / "warmup", n=round(WARMUP_POINTS ** (1 / inputs.dim)))
    try:
        _timed_run(warm, experiment)
    except Exception as exc:  # the timed runs record the failure
        log(f"warm-up raised {type(exc).__name__}: {exc}")

    tally = Tally()
    measure = per_layer if trace else end_to_end
    values = measure(inputs, seconds, experiment, reference, tally, log)

    sigma = inputs.base_dir / "out" / "sigma.csv"
    if seed == reference["seed"] and sigma.exists():
        same = hashlib.sha256(sigma.read_bytes()).hexdigest() == reference["sigma_csv_sha256"]
        log(f"sigma.csv {'is byte-identical to' if same else 'DIFFERS from'} the reference")
    for problem in tally.problems[:20]:
        log(f"FAILED: {problem}")
    if len(tally.problems) > 20:
        log(f"... and {len(tally.problems) - 20} more problems")

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    if values:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not tally.problems and bool(values)
    return bool(values), {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sobosvd" / "__init__.py").is_file():
        print(f"perfbench: no sobosvd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    from stamp import environment_stamp
    from workloads import DEFAULT_SEED, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}, have {list(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    def log(line: str) -> None:
        print(f"# {line}", flush=True)

    log("stamp " + json.dumps(environment_stamp(), sort_keys=True))
    measured_all = True
    for name in names:
        measured, result = run_workload(name, seed, seconds, bool(args.trace), spec, log)
        measured_all &= measured
        print(json.dumps(result), flush=True)
    return 0 if measured_all else 1


if __name__ == "__main__":
    sys.exit(main())
