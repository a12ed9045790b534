"""Low multilinear rank in three variables, with certified brackets.

For more than two variables the truncated decomposition of each mode
composes into a Tucker-type projection. Its L2 error is controlled by
the sum of the spectral tails, alternating refinement can only improve
it, and the Sobolev report brackets both the approximation and the
residual between computable bounds, which a run's checks then judge.
"""
import tempfile
from pathlib import Path

import numpy as np

import sobosvd as sv
from sobosvd.experiment import ExperimentConfig, run_experiment, save_samples


def main():
    rng = np.random.default_rng(5)
    base = sv.sample_case(sv.get_case("SUM3D"), (25, 25, 25))
    u = sv.GridFunction(base.axes, base.values + 0.02 * rng.standard_normal(base.shape))

    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)

    print("rank   spectral err   refined err    tail bound")
    for r in (1, 2, 3, 4):
        rv = (r, r, r)
        spectral = sv.hosvd_project(u, rv, systems=systems)
        refined = sv.hooi(u, rv, systems=systems)
        e_s = sv.norm_l2(u - spectral.projected)
        e_h = sv.norm_l2(u - refined.projected)
        tail = np.sqrt(sum(float(np.sum(s.sigmas[r:] ** 2)) for s in systems))
        print(f"{r:>4}   {e_s:12.6f}   {e_h:12.6f}   {tail:12.6f}")

    print("\nSobolev report at rank (2, 2, 2): lower <= measured <= upper")
    (rep,) = sv.h1_sandwich(u, [(2, 2, 2)], systems=systems, derivs=derivs)
    bounds, measured = rep["bounds"], rep["measured"]
    floor = max(rep["series"]["l2_error_sq"])  # the largest per-mode L2 tail
    brackets = {
        "|Pu|_1^2": (bounds["norm_lower"], measured["approx_h1_sq"], bounds["norm_upper"]),
        "|u-Pu|_1^2": (bounds["h1_lower"], measured["h1"] ** 2, bounds["h1_upper"]),
        "|u-Pu|_0^2": (floor, measured["l2"] ** 2, bounds["l2_tail_sq_sum"]),
        "quasi-opt": (floor, measured["l2"] ** 2, bounds["quasi_opt_reference"]),
    }
    for name, (lower, value, upper) in brackets.items():
        print(f"  {name:12} {lower:12.6f} <= {value:12.6f} <= {upper:12.6f}")
    print(f"  norm ratio constants per mode: {[round(g, 3) for g in rep['bernstein']]}")

    # the report holds no verdict: a run's checks judge the brackets
    with tempfile.TemporaryDirectory() as tmp:
        save_samples(u, Path(tmp) / "u.raw")
        config = ExperimentConfig.from_dict(
            {
                "function": {"file": "u.raw"},
                "ranks": {"explicit": [[2, 2, 2]]},
                "checks": ["hosvd_bound", "quasi_opt", "sandwich"],
            },
            base_dir=tmp,
        )
        result = run_experiment(config)
    print("\nrun verdict at rank (2, 2, 2):")
    for check in result.report["checks"]:
        print(f"  {check['name']:12} {check['status']}   worst {check['worst']:.3e}")
    print(f"  passed: {result.passed}")

if __name__ == "__main__":
    main()
