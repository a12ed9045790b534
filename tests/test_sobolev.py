import numpy as np
import pytest

import sobosvd as sv
from sobosvd.errors import ModeError

from conftest import bernstein_constants, fd2_matrix, weighted_norm, weighted_svd


def test_norm_l2_known_value():
    u = sv.sample_case(sv.get_case("SEP1"), (201, 201))
    # ||sin(pi x) sin(pi y)||_0 = 1/2, trapezoid converges at O(h^2)
    assert sv.norm_l2(u) == pytest.approx(0.5, abs=2e-4)


def test_norm_h1_known_value():
    u = sv.sample_case(sv.get_case("SEP1"), (201, 201))
    exact = np.sqrt((1.0 + 2.0 * np.pi**2) / 4.0)
    assert sv.norm_h1(u) == pytest.approx(exact, rel=1e-3)


def test_norm_ek_and_h1_relation():
    # sum_j ||u||_{e_j}^2 = d ||u||_0^2 + sum_j ||d_j u||_0^2
    #                     = ||u||_1^2 + (d-1) ||u||_0^2
    u = sv.sample_case(sv.get_case("SINSUM"), (65, 65))
    lhs = sum(sv.norm_ek(u, j) ** 2 for j in range(2))
    rhs = sv.norm_h1(u) ** 2 + sv.norm_l2(u) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_norm_ek_checks_mode():
    u = sv.sample_case(sv.get_case("SEP1"), (17, 17))
    with pytest.raises(ModeError):
        sv.norm_ek(u, 2)


def test_retained_count_boundary():
    u = sv.sample_case(sv.get_case("SEP1"), (33, 33))
    s = sv.mode_svd(u, 0)
    assert sv.retained_count(s) == 1
    zero = weighted_svd(np.zeros((4, 4)), np.ones(4), np.ones(4))
    assert sv.retained_count(zero) == 0


@pytest.mark.parametrize("name", ["BROWNIAN", "EXPXY"])
def test_retained_count_scale_invariant(name):
    # the threshold compares (sigma_k / sigma_1)^2, so the count survives
    # scales whose squared sigmas overflow or underflow
    u = sv.sample_case(sv.get_case(name), (65, 65))
    count = sv.retained_count(sv.mode_svd(u, 0))
    for c in (1e-160, 1e160):
        scaled = sv.GridFunction(u.axes, c * u.values)
        assert sv.retained_count(sv.mode_svd(scaled, 0)) == count, c


def test_transfer_matches_analytic_derivative():
    # SEP1 left vector is sqrt(2) sin(pi x) up to the O(h^2) of the grid,
    # so the transferred derivative approaches sqrt(2) pi cos(pi x)
    u = sv.sample_case(sv.get_case("SEP1"), (257, 257))
    s = sv.mode_svd(u, 0)
    gamma = sv.derivative_data(u, s).gammas[:, 0]
    x = u.axes[0].nodes
    w = u.axes[0].quad_weights
    exact = np.sqrt(2.0) * np.pi * np.cos(np.pi * x)
    rel = weighted_norm(w, gamma - exact) / weighted_norm(w, exact)
    assert rel < 1e-3


def test_transfer_invariant_on_catalog(catalog, minxy_3d):
    # gamma_k must reproduce D_j psi_k within 1e-11 for every retained
    # direction whose lambda ratio stays above 1e-10; deeper retained
    # directions are limited by the float64 storage of the pair itself
    # and get the coarser 1e-10. min(x, y)(1 + z) retains 128 unrefined
    # directions in modes 0 and 1, so it sees the accuracy of the right
    # vectors at deep sigma_k.
    for name, (u, systems, derivs) in {**catalog, "MINXY3D": minxy_3d}.items():
        for j, (s, dv) in enumerate(zip(systems, derivs)):
            w = u.axes[j].quad_weights
            dpsi = fd2_matrix(u.axes[j]) @ s.left_vectors[:, : dv.count]
            lam = s.sigmas[: dv.count] ** 2
            for k in range(dv.count):
                rel = weighted_norm(w, dv.gammas[:, k] - dpsi[:, k]) / weighted_norm(
                    w, dpsi[:, k]
                )
                tol = 1e-11 if lam[k] >= 1e-10 * lam[0] else 1e-10
                assert rel < tol, f"{name} mode {j} direction {k}: {rel:.3e}"


def test_transfer_invariant_deep_spectrum(expxy_fine):
    u, systems, derivs = expxy_fine
    for j in range(2):
        s, dv = systems[j], derivs[j]
        w = u.axes[j].quad_weights
        dpsi = fd2_matrix(u.axes[j]) @ s.left_vectors[:, : dv.count]
        lam = s.sigmas[: dv.count] ** 2
        for k in range(dv.count):
            rel = weighted_norm(w, dv.gammas[:, k] - dpsi[:, k]) / weighted_norm(
                w, dpsi[:, k]
            )
            tol = 1e-11 if lam[k] >= 1e-10 * lam[0] else 1e-10
            assert rel < tol, f"mode {j} direction {k}: {rel:.3e}"


def test_derivative_bound_holds(catalog):
    for name, (u, systems, derivs) in catalog.items():
        for dv in derivs:
            assert np.all(dv.dpsi_norms <= dv.bound_values + 1e-10), name


def test_derivative_bound_tight_at_rank_one(catalog):
    # for a separable function the Cauchy-Schwarz chain collapses to an
    # equality on the single retained direction
    for name in ("SEP1", "SEP3D"):
        _, _, derivs = catalog[name]
        for dv in derivs:
            assert dv.count == 1
            assert dv.dpsi_norms[0] == pytest.approx(dv.bound_values[0], rel=1e-12)


def test_transfer_stable_form_agrees_with_literal_product():
    # the implementation substitutes sigma_k phi_k for M(u)^T W_r psi_k;
    # on a well-conditioned direction the literal quadruple product must
    # agree with it
    u = sv.sample_case(sv.get_case("SINSUM"), (65, 65))
    s = sv.mode_svd(u, 0)
    du = sv.partial_derivative(u, 0)
    from sobosvd.tensor_core import matricize

    md = matricize(du.values, 0)
    mu = matricize(u.values, 0)
    k = 1
    lam = s.sigmas[k] ** 2
    literal = md @ (s.col_weights * (mu.T @ (s.row_weights * s.left_vectors[:, k]))) / lam
    stable = sv.derivative_data(u, s).gammas[:, k]
    w = u.axes[0].quad_weights
    assert weighted_norm(w, literal - stable) / weighted_norm(w, stable) < 1e-10


def test_singular_derivative_operator_errors():
    # a bare matrix decomposition records no mode to differentiate along
    u = sv.sample_case(sv.get_case("SEP1"), (17, 17))
    w0, w1 = (ax.quad_weights for ax in u.axes)
    bare = weighted_svd(u.values, w0, w1)
    assert bare.mode is None
    with pytest.raises(ModeError):
        sv.derivative_data(u, bare)


def test_derivative_data_retention(catalog):
    u, systems, _ = catalog["EXPXY"]
    dv = sv.derivative_data(u, systems[0])
    assert dv.count == sv.retained_count(systems[0])
    assert dv.count < systems[0].k_max
    assert dv.gammas.shape == (u.shape[0], dv.count)


def test_bernstein_constant_on_sine_frame():
    u = sv.sample_case(
        sv.get_case("SINSUM", coeffs=tuple(0.5**i for i in range(8))), (513, 513)
    )
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    ranks = (1, 2, 4, 8)
    for r, got in zip(ranks, bernstein_constants(u, systems, derivs, 0, ranks)):
        exact = np.sqrt(1.0 + (r * np.pi) ** 2)
        assert got == pytest.approx(exact, rel=1e-3)


def test_bernstein_constant_monotone_and_at_least_one(catalog):
    for name, (u, systems, derivs) in catalog.items():
        vals = bernstein_constants(u, systems, derivs, 0, range(1, derivs[0].count + 1))
        assert all(v >= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
