"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line; grids, seeds and tolerances are
fixed so the numbers are reproducible run to run.
"""
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

import sobosvd as sv
from sobosvd.diagnostics import CONVERGED, h1_convergence_flag, rate_fit

from conftest import bernstein_constants, bracket_holds, fd2_matrix

ACC_GRIDS = {
    "SEP1": (129, 129),
    "SINSUM": (129, 129),
    "BROWNIAN": (129, 129),
    "EXPXY": (257, 257),
    "SEP3D": (33, 33, 33),
    "SUM3D": (33, 33, 33),
}


def build(name, sizes):
    u = sv.sample_case(sv.get_case(name), sizes)
    systems = tuple(sv.mode_svd(u, j) for j in range(u.ndim))
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    return u, systems, derivs


@pytest.fixture(scope="module")
def acc():
    return {name: build(name, sizes) for name, sizes in ACC_GRIDS.items()}


def weighted_norm(w, vec):
    return float(np.sqrt(max(vec @ (w * vec), 0.0)))


def test_criterion_1_h1_identity_series():
    start = time.perf_counter()
    worst = 0.0
    for name in ("SEP1", "SINSUM", "BROWNIAN"):
        u, systems, derivs = build(name, (129, 129))
        scale = sv.norm_h1(u) ** 2
        top = min(sv.numerical_rank(systems[0]), 16)
        for r in range(top + 1):
            ident = sv.series_split(systems[0], r, derivs[0], derivs[1])
            ur = sv.hosvd_project(u, (r, r), systems=systems).projected
            worst = max(worst, abs(sv.norm_h1(ur) ** 2 - ident.norm_sq) / scale)
            worst = max(
                worst, abs(sv.norm_h1(u - ur) ** 2 - ident.error_sq) / scale
            )
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst relative residual {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_derivative_transfer():
    start = time.perf_counter()
    worst = 0.0
    for name, sizes in ACC_GRIDS.items():
        u, systems, derivs = build(name, sizes)
        for j in range(u.ndim):
            diff = fd2_matrix(u.axes[j])
            w = u.axes[j].quad_weights
            for k in range(derivs[j].count):
                direct = diff @ systems[j].left_vectors[:, k]
                gap = weighted_norm(w, derivs[j].gammas[:, k] - direct)
                worst = max(worst, gap / weighted_norm(w, direct))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst relative transfer error {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 2.0


def test_criterion_3_derivative_bound(acc):
    worst = -np.inf
    for name, (u, systems, derivs) in acc.items():
        for deriv in derivs:
            for dpsi, bound in zip(deriv.dpsi_norms, deriv.bound_values):
                worst = max(worst, dpsi - bound)
                assert dpsi <= bound + 1e-10, name
    print(f"criterion 3: worst bound excess {worst:.3e}")


def test_criterion_4_multilinear_l2_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    axes = tuple(sv.make_axis(12) for _ in range(3))
    inputs = [
        sv.GridFunction(axes, rng.standard_normal((12, 12, 12))) for _ in range(20)
    ]
    inputs.append(sv.sample_case(sv.get_case("SUM3D"), (33, 33, 33)))

    worst_tail = -np.inf
    worst_quasi = -np.inf
    for u in inputs:
        systems = tuple(sv.mode_svd(u, j) for j in range(3))
        for rv in itertools.product((1, 2, 4), repeat=3):
            err_sq = (
                sv.norm_l2(u - sv.hosvd_project(u, rv, systems=systems).projected)
                ** 2
            )
            tails = sum(
                float(np.sum((s.sigmas**2)[rv[j] :])) for j, s in enumerate(systems)
            )
            hooi_sq = sv.norm_l2(u - sv.hooi(u, rv, systems=systems).projected) ** 2
            worst_tail = max(worst_tail, err_sq - tails)
            worst_quasi = max(worst_quasi, err_sq - 3.0 * hooi_sq)
            assert err_sq <= tails + 1e-10
            assert err_sq <= 3.0 * hooi_sq + 1e-10
    elapsed = time.perf_counter() - start
    print(
        f"criterion 4: worst tail excess {worst_tail:.3e}, worst quasi-opt "
        f"excess {worst_quasi:.3e}, {elapsed:.2f}s"
    )
    assert elapsed < 30.0


def test_criterion_5_sandwich_brackets(acc):
    checked = 0
    for name, (u, systems, derivs) in acc.items():
        slack = 1e-9 * max(1.0, sv.norm_h1(u) ** 2)
        sweep = range(1, 5 if u.ndim == 3 else 7)
        for r in sweep:
            rv = (r,) * u.ndim
            rep = sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)[0]
            holds = bracket_holds(rep, slack)
            assert all(holds.values()), f"{name} {rv}: {holds}"
            checked += 1
    print(f"criterion 5: norm and residual brackets hold on {checked} sweeps")


def test_criterion_6_norm_ratio_constants(acc):
    case = sv.get_case("SINSUM", coeffs=tuple(0.5**i for i in range(8)))
    u = sv.sample_case(case, (1025, 1025))
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    worst = 0.0
    for r, gamma in zip(range(1, 9), bernstein_constants(u, systems, derivs, 0, range(1, 9))):
        got = gamma**2
        expect = 1.0 + (r * np.pi) ** 2
        worst = max(worst, abs(got - expect) / expect)
    assert worst <= 1e-3

    for name, (u, systems, derivs) in acc.items():
        for j, deriv in enumerate(derivs):
            gammas = bernstein_constants(u, systems, derivs, j, range(1, deriv.count + 1))
            assert all(g >= 1.0 for g in gammas), name
            assert all(b >= a for a, b in zip(gammas, gammas[1:])), name
    print(f"criterion 6: worst relative constant error {worst:.3e}, monotone on all cases")


def spectral_error(n, count):
    u = sv.sample_case(sv.get_case("BROWNIAN"), (n, n))
    s = sv.mode_svd(u, 0)
    exact = sv.get_case("BROWNIAN").oracle.sigmas(count)
    return float(np.max(np.abs(s.sigmas[:count] - exact) / exact))


def test_criterion_7_analytic_spectrum():
    fine = spectral_error(513, 10)
    coarse = spectral_error(257, 10)
    ratio = coarse / fine
    print(f"criterion 7: worst relative sigma error {fine:.3e} at n=513, refinement ratio {ratio:.2f}")
    assert fine <= 1e-3
    assert ratio >= 3.5


def test_criterion_8_decay_rates():
    u, systems, derivs = build("BROWNIAN", (513, 513))
    l2_scale, h1_scale = sv.norm_l2(u), sv.norm_h1(u)
    ranks = list(range(1, 33))
    l2_errs, h1_errs, sums = [], [], []
    for r in ranks:
        ident = sv.series_split(systems[0], r, derivs[0], derivs[1])
        ur = sv.hosvd_project(u, (r, r), systems=systems).projected
        l2_errs.append(sv.norm_l2(u - ur) / l2_scale)
        h1_errs.append(sv.norm_h1(u - ur) / h1_scale)
        sums.append(ident.norm_sq)
    l2_fit = rate_fit(ranks, l2_errs)
    h1_fit = rate_fit(ranks, h1_errs)
    flag = h1_convergence_flag(sums)
    print(
        f"criterion 8: L2 slope {l2_fit.slope:.4f}, H1 slope {h1_fit.slope:.4f}, flag {flag}"
    )
    assert abs(h1_fit.slope - (-0.5)) <= 0.1
    assert abs(l2_fit.slope - (-1.5)) <= 0.15
    assert flag == CONVERGED


def test_criterion_9_edge_cases_via_verify():
    sizes = {2: "33", 3: "17"}
    for name in ACC_GRIDS:
        dim = sv.get_case(name).dim
        proc = subprocess.run(
            [sys.executable, "-m", "sobosvd.cli", "verify", "--case", name, "--n", sizes[dim]],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, f"{name}: {proc.stdout}\n{proc.stderr}"
        assert "all checks passed" in proc.stdout
    print(f"criterion 9: verify exits 0 on all {len(ACC_GRIDS)} catalog cases")
