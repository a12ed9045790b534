"""Low multilinear rank in three variables, with certified brackets.

For more than two variables the truncated decomposition of each mode
composes into a Tucker-type projection. Its L2 error is controlled by
the sum of the spectral tails, alternating refinement can only improve
it, and the Sobolev report brackets both the approximation and the
residual between computable bounds.
"""
import numpy as np

import sobosvd as sv


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

    print("\nSobolev report at rank (2, 2, 2):")
    (rep,) = sv.h1_sandwich(u, [(2, 2, 2)], systems=systems, derivs=derivs)
    for name, check in rep["checks"].items():
        print(
            f"  {name:12} {check['lower']:12.6f} <= {check['value']:12.6f} "
            f"<= {check['upper']:12.6f}   holds: {check['holds']}"
        )
    print(f"  all brackets hold: {all(c['holds'] for c in rep['checks'].values())}")
    print(f"  norm ratio constants per mode: {[round(g, 3) for g in rep['bernstein']]}")


if __name__ == "__main__":
    main()
