"""The Brownian covariance: slow spectrum, slow truncation decay.

min(x, y) has the classical eigensystem sigma_k = ((k - 1/2) pi)^-2
with sine eigenfunctions, so it is the standard hard case: the spectrum
decays only quadratically and H1 truncation errors decay like r^-1/2.
This script checks the computed spectrum against the formula, watches
the discretization error shrink under grid refinement, and fits both
decay rates from a rank sweep.
"""
import numpy as np

import sobosvd as sv
from sobosvd.diagnostics import rate_fit


def spectrum_error(n, count):
    u = sv.sample_case(sv.get_case("BROWNIAN"), (n, n))
    s = sv.mode_svd(u, 0)
    exact = sv.get_case("BROWNIAN").oracle.sigmas(count)
    return float(np.max(np.abs(s.sigmas[:count] - exact) / exact))


def main():
    exact = sv.get_case("BROWNIAN").oracle.sigmas(6)
    u = sv.sample_case(sv.get_case("BROWNIAN"), (257, 257))
    systems = sv.mode_svds(u)
    s = systems[0]
    print("k   computed sigma   ((k - 1/2) pi)^-2")
    for k in range(6):
        print(f"{k + 1}   {s.sigmas[k]:14.9f}   {exact[k]:14.9f}")

    coarse = spectrum_error(65, 8)
    fine = spectrum_error(129, 8)
    print(f"\nworst relative spectrum error, n = 65:  {coarse:.3e}")
    print(f"worst relative spectrum error, n = 129: {fine:.3e}")
    print(f"halving the mesh divides the error by {coarse / fine:.2f} (second order grid)")

    ranks = [1, 2, 4, 8, 16, 32]
    l2_errs, h1_errs = [], []
    for r in ranks:
        ur = sv.hosvd_project(u, (r, r), systems=systems).projected
        l2_errs.append(sv.norm_l2(u - ur) / sv.norm_l2(u))
        h1_errs.append(sv.norm_h1(u - ur) / sv.norm_h1(u))
    l2_fit = rate_fit(ranks, l2_errs)
    h1_fit = rate_fit(ranks, h1_errs)
    print(f"\nL2 truncation decay:  r^{l2_fit.slope:.3f}   (r2 = {l2_fit.r2:.5f})")
    print(f"H1 truncation decay:  r^{h1_fit.slope:.3f}   (r2 = {h1_fit.r2:.5f})")
    print("the derivative mass of the discarded sines eats a full power")
    print("of r: the H1 rate is the L2 rate plus one")


if __name__ == "__main__":
    main()
