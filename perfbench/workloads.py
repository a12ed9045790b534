"""The benchmark's workloads: inputs made from a seed, and output checks.

Every input is a catalog case sampled by the benchmark, multiplied by a
scale factor c drawn from the seed, and written with ``save_samples``.
The program sees only that raw sample file, through a config. All the
identities the program checks are homogeneous, so c changes no amount
of work and no pass/fail; it makes the oracle comparison non-trivial.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sobosvd.cases import get_case, sample_case
from sobosvd.discretization import GridFunction
from sobosvd.experiment import save_samples

DEFAULT_SEED = 1809
SCALE_RANGE = (0.5, 2.0)
# listed here rather than imported, so a check the program stops running
# shows as a failure
CHECK_NAMES = (
    "eckart_young",
    "h1_identity",
    "ek_identity",
    "hosvd_bound",
    "quasi_opt",
    "sandwich",
    "derivative_bound",
    "diagnostics",
)
# spectra may differ from the recorded reference by this much, relative
# to sigma_1: about 250 times the scaling roundoff measured on every
# workload (at most 4e-16)
SPECTRUM_RTOL = 1e-13
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    n: int
    ranks: dict | None  # config "ranks" entry; None keeps the default 1..8 sweep
    checks: tuple[str, ...]
    edge_cases: bool
    oracle_sigmas: int  # leading sigmas compared with the closed form; 0 = L2 norm


# Each workload's reason is its "why" in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-brownian-513", "BROWNIAN", 513, None, CHECK_NAMES, True, 8),
        Workload("verify-expxy-513", "EXPXY", 513, None, CHECK_NAMES, True, 0),
        Workload("verify-sum3d-65", "SUM3D", 65, None, CHECK_NAMES, True, 2),
        Workload(
            "sweep-file-257",
            "BROWNIAN",
            257,
            {"sweep": {"from": 1, "to": 64}},
            tuple(c for c in CHECK_NAMES if c != "quasi_opt"),
            False,
            8,
        ),
    )
}


def scale_factor(seed: int) -> float:
    """Log-uniform draw from SCALE_RANGE."""
    lo, hi = (math.log(v) for v in SCALE_RANGE)
    return float(math.exp(np.random.default_rng(seed).uniform(lo, hi)))


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    scale: float
    config: dict  # config dict, paths relative to base_dir
    base_dir: Path
    dim: int


def make_inputs(w: Workload, seed: int, work_dir: Path, n: int | None = None) -> Inputs:
    """Sample the case, scale it, write the raw sample file; return the config.

    ``n`` overrides the grid size (the warm-up uses a tiny grid).
    """
    case = get_case(w.case)
    u = sample_case(case, (n or w.n,) * case.dim)
    c = scale_factor(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    save_samples(GridFunction(u.axes, u.values * c), work_dir / "samples.raw")
    config = {"function": {"file": "samples.raw"}, "checks": list(w.checks), "output": "out"}
    if w.ranks is not None:
        config["ranks"] = w.ranks
    return Inputs(w, c, config, work_dir, case.dim)


def _strict_constant(token):
    raise ValueError(f"non-finite number {token}")


def check_output(inputs: Inputs, report: dict, report_path: Path, reference: dict) -> list[str]:
    """Everything wrong with one run's output; an empty list is a pass.

    ``report`` is the report the run returned, ``report_path`` the file
    it wrote, ``reference`` the workload's entry of reference.json.
    """
    w, c = inputs.workload, inputs.scale
    problems = []
    if report["passed"] is not True:
        problems.append("report['passed'] is not true")
    statuses = {ch["name"]: ch["status"] for ch in report["checks"]}
    expected = {
        name: "skipped" if name == "h1_identity" and inputs.dim != 2 else "pass"
        for name in w.checks
    }
    if w.edge_cases:
        expected["edge_cases"] = "pass"
    if statuses != expected:
        problems.append(f"check statuses {statuses}, expected {expected}")

    try:
        on_disk = json.loads(report_path.read_text("utf-8"), parse_constant=_strict_constant)
    except ValueError as exc:
        problems.append(f"report.json is not strict JSON: {exc}")
    else:
        if on_disk != report:
            problems.append("report.json differs from the returned report")

    case = get_case(w.case)
    rtol = case.spectral_rtol
    spectra = report["spectra"]
    for entry in spectra:
        sig = np.array(entry["sigmas"])
        if w.oracle_sigmas:
            want = c * case.oracle.sigmas(w.oracle_sigmas)
            gap = float(np.max(np.abs(sig[: w.oracle_sigmas] - want) / want))
            if not gap <= rtol:
                problems.append(f"mode {entry['mode']}: sigmas off the oracle by {gap:.2e}")
        else:
            l2 = float(np.sqrt(np.sum(sig**2)))
            want = c * case.oracle.l2_norm
            if not abs(l2 - want) <= rtol * want:
                problems.append(f"mode {entry['mode']}: L2 norm {l2!r}, oracle {want!r}")

    if len(spectra) != len(reference["sigmas"]):
        problems.append(f"{len(spectra)} spectra, reference has {len(reference['sigmas'])}")
    for entry, ref in zip(spectra, reference["sigmas"]):
        ref = np.array(ref)
        sig = np.array(entry["sigmas"]) / c
        if sig.shape != ref.shape:
            problems.append(f"mode {entry['mode']}: {sig.size} sigmas, reference {ref.size}")
            continue
        gap = float(np.max(np.abs(sig - ref))) / ref[0]
        if not gap <= SPECTRUM_RTOL:
            problems.append(
                f"mode {entry['mode']}: spectrum off the reference by {gap:.2e} of sigma_1"
            )
    return problems


def load_reference() -> dict:
    """Reference spectra recorded by record_reference.py, keyed by workload."""
    return json.loads(REFERENCE.read_text("utf-8"))
