import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sobosvd as sv
from sobosvd.errors import ModeError, SobosvdError
from sobosvd.experiment import ExperimentConfig, run_experiment
from sobosvd.svd_engine import (
    _bivariate_svd,
    _count_retained,
    _fix_signs,
    _refine_small_triplets,
    _refines,
    _thin_svd,
    _weighted_svd,
)
from sobosvd.tensor_core import matricize

from conftest import assert_weighted_svd, fd2_matrix, traced_peak, weighted_norm, weighted_svd


def geometric_matrix(n, count, base, rng):
    """Matrix with known geometric spectrum under unit weights.

    Orthonormal factors from QR, sigmas base**k. Returns (matrix, sigmas).
    """
    sig = base ** np.arange(count)
    qa, _ = np.linalg.qr(rng.standard_normal((n, count)))
    qb, _ = np.linalg.qr(rng.standard_normal((n, count)))
    return (qa * sig) @ qb.T, sig


def test_combined_weights_order():
    # first vector fastest, matching colexicographic matricization
    w = sv.combined_weights([np.array([1.0, 2.0]), np.array([10.0, 100.0])])
    np.testing.assert_allclose(w, [10.0, 20.0, 100.0, 200.0])


def test_weighted_svd_hand_case():
    # diag(3, 2) with row weights (1, 1/4) and unit column weights:
    # scaled matrix diag(3, 1) so sigmas are 3 and 1, left vectors
    # unscale to (1, 0) and (0, 2)
    m = np.diag([3.0, 2.0])
    s = weighted_svd(m, np.array([1.0, 0.25]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(s.sigmas, [3.0, 1.0])
    np.testing.assert_allclose(s.left_vectors, [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)
    np.testing.assert_allclose(s.right_vectors, np.eye(2), atol=1e-15)
    assert_weighted_svd(s, m)


def test_weighted_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 8))
    wr = rng.uniform(0.5, 2.0, 12)
    wc = rng.uniform(0.5, 2.0, 8)
    s = weighted_svd(m, wr, wc)
    rebuilt = assert_weighted_svd(s, m)
    assert s.k_max == 8
    assert np.all(np.diff(s.sigmas) <= 0)
    np.testing.assert_allclose(rebuilt, m, atol=1e-12)


def test_weighted_svd_sign_convention():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((9, 9))
    s = weighted_svd(m, np.ones(9), np.ones(9))
    for k in range(s.k_max):
        col = s.left_vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_weighted_svd_sign_flips_pairs():
    # negating the matrix flips each left/right pair together; sigmas and
    # the sign convention on the left side are unchanged
    rng = np.random.default_rng(12)
    m = rng.standard_normal((7, 7))
    a = weighted_svd(m, np.ones(7), np.ones(7))
    b = weighted_svd(-m, np.ones(7), np.ones(7))
    np.testing.assert_allclose(a.sigmas, b.sigmas)
    np.testing.assert_allclose(a.left_vectors, b.left_vectors, atol=1e-12)
    np.testing.assert_allclose(a.right_vectors, -b.right_vectors, atol=1e-12)
    assert_weighted_svd(b, -m)


def test_weighted_svd_input_validation():
    with pytest.raises(ModeError):
        weighted_svd(np.zeros(3), np.ones(3), np.ones(3))
    with pytest.raises(ModeError):
        weighted_svd(np.zeros((3, 3)), np.ones(4), np.ones(3))
    with pytest.raises(SobosvdError):
        weighted_svd(np.zeros((3, 3)), np.array([1.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(SobosvdError):
        weighted_svd(np.full((3, 3), np.nan), np.ones(3), np.ones(3))


def test_weighted_svd_zero_matrix():
    s = weighted_svd(np.zeros((4, 3)), np.ones(4), np.ones(3))
    np.testing.assert_array_equal(s.sigmas, np.zeros(3))
    assert sv.numerical_rank(s) == 0


def test_validate_rejects_tampering():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6))
    s = weighted_svd(m, np.ones(6), np.ones(6))
    with pytest.raises(AssertionError, match="reconstruction"):
        assert_weighted_svd(s, m + 1e-6)


def test_validate_rejects_tampering_with_a_narrow_right_block():
    u = sv.sample_case(sv.get_case("SUM3D"), (9, 9, 9))
    s = sv.mode_svd(u, 0)
    mat = matricize(u.values, 0)
    assert s.right_vectors.shape[1] < s.k_max
    assert_weighted_svd(s, mat)
    with pytest.raises(AssertionError, match="reconstruction"):
        assert_weighted_svd(s, mat + 1e-6)


def test_numerical_rank_threshold():
    rng = np.random.default_rng(8)
    m, _ = geometric_matrix(20, 6, 1e-4, rng)
    s = weighted_svd(m, np.ones(20), np.ones(20))
    # spectrum 1, 1e-4, ..., 1e-20; the cutoff is strict, so a sigma
    # sitting exactly on the threshold is dropped: 1e-12 keeps three
    assert sv.numerical_rank(s) == 3


def test_deep_spectrum_triplet_consistency():
    # geometric decay down to 1e-7 of sigma_1: a plain double SVD leaves
    # ||M W phi_k - sigma_k psi_k|| near eps*sigma_1, which the refinement
    # pass must push to the storage floor for every retained direction
    rng = np.random.default_rng(9)
    sig = np.geomspace(1.0, 1e-5, 8)
    qa, _ = np.linalg.qr(rng.standard_normal((200, 8)))
    qb, _ = np.linalg.qr(rng.standard_normal((200, 8)))
    m = (qa * sig) @ qb.T
    wr = np.full(200, 1.0 / 200)
    wc = np.full(200, 1.0 / 200)
    s = weighted_svd(m, wr, wc)
    assert_weighted_svd(s, m)
    ret = 8
    # weighted sigmas scale by the weight product; ratios are invariant
    np.testing.assert_allclose(s.sigmas[:ret] / s.sigmas[0], sig, rtol=1e-9)
    for k in range(ret):
        image = m @ (wc * s.right_vectors[:, k])
        resid = image - s.sigmas[k] * s.left_vectors[:, k]
        rel = np.sqrt(wr @ resid**2) / s.sigmas[k]
        assert rel < 1e-11, f"direction {k}: {rel:.3e}"


def test_refinement_skips_flat_spectra():
    # all sigmas comparable: the trigger must not fire and the output of
    # the helper must be the identity on its inputs
    rng = np.random.default_rng(10)
    scaled = rng.standard_normal((30, 30))
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    ru, rs, rv, _ = _refine_small_triplets(scaled, u, s, vt.T)
    assert ru is u and rs is s


def test_refinement_skips_wide_retained_blocks():
    rng = np.random.default_rng(11)
    sig = np.geomspace(1.0, 1e-6, 80)
    qa, _ = np.linalg.qr(rng.standard_normal((100, 80)))
    qb, _ = np.linalg.qr(rng.standard_normal((100, 80)))
    scaled = (qa * sig) @ qb.T
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    ru, rs, rv, _ = _refine_small_triplets(scaled, u, s, vt.T)
    assert ru is u


def test_refinement_sorts_only_the_held_right_columns():
    # directions 1 and 2 come in swapped; the refinement keeps each
    # triplet and the sort restores the order. A right block of only the
    # retained columns comes out as those columns of the full block.
    rng = np.random.default_rng(13)
    scaled, _ = geometric_matrix(40, 6, 1e-2, rng)
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    swap = [0, 2, 1, *range(3, s.size)]
    u, s, v = u[:, swap], s[swap], vt.T[:, swap]
    assert _refines(s) and _count_retained(s) == 4
    fu, fs, fv, _ = _refine_small_triplets(scaled, u.copy(), s, np.copy(v))
    nu, ns, nv, _ = _refine_small_triplets(scaled, u.copy(), s, v[:, :4].copy())
    assert np.all(np.diff(fs[:4]) < 0)
    assert nv.shape == (40, 4)
    assert np.array_equal(nu, fu) and np.array_equal(ns, fs)
    assert np.array_equal(nv, fv[:, :4])
    np.testing.assert_allclose(scaled @ nv, nu[:, :4] * ns[:4], atol=1e-14)


def test_refinement_reads_the_long_double_operator_in_c_order(monkeypatch):
    # a 2D mode_svd(u, 1) scales the transposed, F-ordered view; the
    # refinement builds its long-double operator C-ordered either way, and
    # the same matrix in C and F order refines to the same triplets
    rng = np.random.default_rng(17)
    qa, _ = np.linalg.qr(rng.standard_normal((30, 6)))
    qb, _ = np.linalg.qr(rng.standard_normal((90, 6)))
    scaled = (qa * 1e-2 ** np.arange(6)) @ qb.T
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    assert _refines(s)
    layouts = []
    dot = np.dot

    def spy(a, b, *args):
        if a.dtype == np.longdouble and a.ndim == 2:
            layouts.append(a.flags.c_contiguous)
        return dot(a, b, *args)

    monkeypatch.setattr(np, "dot", spy)
    c_order = _refine_small_triplets(scaled, u.copy(), s, vt.copy().T)
    f_order = _refine_small_triplets(np.asfortranarray(scaled), u.copy(), s, vt.copy().T)
    monkeypatch.undo()
    assert layouts and all(layouts)
    for a, b in zip(c_order, f_order):
        assert np.array_equal(a, b)


def _image_gap(s, matrix):
    """Largest weighted gap between a retained left vector and the image of
    its right vector, matrix W_c phi_k / sigma_k."""
    n = sv.retained_count(s)
    images = matrix @ (s.col_weights[:, None] * s.right_vectors[:, :n])
    gap = images / s.sigmas[:n] - s.left_vectors[:, :n]
    return np.max(np.sqrt(s.row_weights @ gap**2))


def test_adjoint_refinement_gathers_both_modes_out_of_order():
    # the factor hands directions 1 and 2 over swapped, so both refined
    # blocks come out of order and each splice gathers its columns. The
    # pair is close (0.5 and 0.49), as in a near-degenerate spectrum: the
    # power steps keep each direction and only the order is wrong. Mode 1
    # is spliced into mode 0's scaled vectors; the caller's matrix stays.
    _gather_out_of_order(40, _thin_svd, 40)


def test_adjoint_refinement_gathers_only_the_held_columns_out_of_order():
    # the same through the low-rank route at 200^2, which holds 6 + 8
    # columns: each splice gathers those, not all 200
    _gather_out_of_order(200, _bivariate_svd, 14)


def _gather_out_of_order(n, factor, columns):
    rng = np.random.default_rng(13)
    qa, _ = np.linalg.qr(rng.standard_normal((n, 6)))
    qb, _ = np.linalg.qr(rng.standard_normal((n, 6)))
    wr, wc = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    sig = np.array([1.0, 0.5, 0.49, 1e-4, 1e-6, 1e-8])
    m = ((qa * sig) @ qb.T) / np.sqrt(np.outer(wr, wc))
    held = m.copy()

    def swapped(scaled):
        u, s, v = factor(scaled)
        swap = [0, 2, 1, *range(3, s.size)]
        return u[:, swap[:columns]], s[swap], v[:, swap[:columns]]

    first, second = _weighted_svd(m, wr, wc, 0, swapped, adjoint=True)
    assert np.array_equal(m, held)
    assert _refines(first.sigmas) and second.mode == 1
    assert first.left_vectors.shape[1] == second.right_vectors.shape[1] == columns
    for system, matrix in ((first, m), (second, m.T)):
        assert_weighted_svd(system, matrix)
        assert np.all(np.diff(system.sigmas[: sv.retained_count(system)]) < 0)
    direct = weighted_svd(m.T, wc, wr)
    assert _image_gap(second, m.T) <= 4 * _image_gap(direct, m.T)


def test_fix_signs_flips_only_the_held_partner_columns():
    # columns 0 and 2 flip; the partners hold columns 0 and 1 only
    vectors = np.array([[1.0, 3.0, 0.5], [-2.0, 1.0, -1.0]])
    partners = np.arange(1.0, 7.0).reshape(3, 2)
    _fix_signs(vectors, partners)
    np.testing.assert_array_equal(vectors, [[-1.0, 3.0, -0.5], [2.0, 1.0, 1.0]])
    np.testing.assert_array_equal(partners, [[-1.0, 2.0], [-3.0, 4.0], [-5.0, 6.0]])


def test_mode_svd_shapes_and_mode():
    u = sv.sample_case(sv.get_case("SEP1"), (17, 21))
    s0 = sv.mode_svd(u, 0)
    s1 = sv.mode_svd(u, 1)
    assert s0.mode == 0 and s1.mode == 1
    assert s0.left_vectors.shape == (17, 17)
    assert s0.right_vectors.shape == (21, 17)
    assert s1.left_vectors.shape == (21, 17)
    with pytest.raises(ModeError):
        sv.mode_svd(u, 2)


def test_mode_svd_reconstructs_matricization():
    u = sv.sample_case(sv.get_case("SINSUM"), (17, 19))
    from sobosvd.tensor_core import matricize

    for mode in (0, 1):
        s = sv.mode_svd(u, mode)
        mat = matricize(u.values, mode)
        assert_weighted_svd(s, mat)


def test_mode_svd_3d_column_weights():
    u = sv.sample_case(sv.get_case("SEP3D"), (9, 11, 13))
    s = sv.mode_svd(u, 1)
    assert s.col_weights.shape == (9 * 13,)
    expected = sv.combined_weights(
        [u.axes[0].quad_weights, u.axes[2].quad_weights]
    )
    np.testing.assert_array_equal(s.col_weights, expected)


_RECIPROCAL = sv.sample(
    lambda x, y, z: 1.0 / (4.0 + x + y + z),
    tuple(sv.make_axis(n, -1.0, 2.0) for n in (33, 41, 49)),
)
# rank deficient, with a tall mode-0 unfolding (41 x 9)
_TALL = sv.sample(lambda x, y, z: (x + y) * np.exp(z), tuple(sv.make_axis(n) for n in (41, 3, 3)))


@pytest.mark.parametrize(
    "u",
    [
        sv.sample_case(sv.get_case("SUM3D"), (33, 33, 33)),
        sv.sample_case(sv.get_case("SEP3D"), (33, 33, 33)),
        _RECIPROCAL,
        _TALL,
    ],
    ids=["SUM3D", "SEP3D", "reciprocal", "tall"],
)
def test_mode_svd_3d_contract(u):
    # in three variables a mode system holds only its retained right vectors
    for j in range(3):
        s = sv.mode_svd(u, j)
        assert s.right_vectors.shape == (u.values.size // u.shape[j], sv.retained_count(s))
        assert s.left_vectors.shape == (u.shape[j], s.k_max)
        assert_weighted_svd(s, matricize(u.values, j))
        for a in (s.sigmas, s.left_vectors, s.right_vectors, s.row_weights, s.col_weights):
            assert not a.flags.writeable


def test_mode_svd_3d_refines_a_narrow_block():
    assert any(_refines(sv.mode_svd(_RECIPROCAL, j).sigmas) for j in range(3))


def test_mode_svd_3d_zero_input():
    # the all-zero input the edge-case check builds
    axes = tuple(sv.make_axis(3) for _ in range(3))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sv.mode_svd(sv.GridFunction(axes, np.zeros((3, 3, 3))), 0)
    assert s.right_vectors.shape == (9, 0)
    assert s.left_vectors.shape == (3, 3)
    assert sv.numerical_rank(s) == 0 and sv.retained_count(s) == 0
    np.testing.assert_array_equal(s.sigmas, np.zeros(3))


def _skewed_2d():
    """A non-symmetric function on a non-square grid with unequal intervals."""
    axes = (sv.make_axis(97, 0.0, 1.0), sv.make_axis(61, -1.0, 2.0))
    return sv.sample(lambda x, y: np.exp(x * y) + np.sin(3.0 * x + y * y), axes)


def test_mode_svds_2d_mode_one_is_the_adjoint():
    from sobosvd.tensor_core import matricize

    u = _skewed_2d()
    s0, s1 = sv.mode_svds(u)
    first = sv.mode_svd(u, 0)
    for a, b in zip(
        (s0.sigmas, s0.left_vectors, s0.right_vectors),
        (first.sigmas, first.left_vectors, first.right_vectors),
    ):
        assert np.array_equal(a, b)

    assert_weighted_svd(s1, matricize(u.values, 1))
    assert s1.mode == 1
    assert s1.left_vectors.shape == (61, 61) and s1.right_vectors.shape == (97, 61)
    np.testing.assert_array_equal(s1.row_weights, u.axes[1].quad_weights)
    np.testing.assert_array_equal(s1.col_weights, u.axes[0].quad_weights)
    # the sign convention: each left vector's largest-magnitude entry,
    # lowest index on ties, is positive
    pick = np.argmax(np.abs(s1.left_vectors), axis=0)
    assert np.all(s1.left_vectors[pick, np.arange(s1.k_max)] > 0)
    for a in (s1.sigmas, s1.left_vectors, s1.right_vectors, s1.row_weights, s1.col_weights):
        assert not a.flags.writeable

    direct = sv.mode_svd(u, 1)
    assert np.max(np.abs(s1.sigmas - direct.sigmas)) <= 1e-14 * direct.sigmas[0]


def test_mode_svds_refines_the_adjoint_where_mode_zero_was_refined():
    # EXPXY decays fast enough for the long-double refinement, which
    # makes mode 0's left vectors the images of its right ones. The same
    # loop deflates and normalises each image into a right vector of
    # mode 1 and takes that vector's image as its left one, so mode 1's
    # left vectors are the images of its right ones as closely as in a
    # separate mode_svd(u, 1).
    u = sv.sample_case(sv.get_case("EXPXY"), (129, 129))
    s0, s1 = sv.mode_svds(u)
    assert _refines(s0.sigmas)
    mat = matricize(u.values, 1)
    assert_weighted_svd(s1, mat)
    direct = sv.mode_svd(u, 1)
    assert _image_gap(s1, mat) <= 4 * _image_gap(direct, mat)
    assert np.max(np.abs(s1.sigmas - direct.sigmas)) <= 1e-14 * direct.sigmas[0]


@pytest.mark.parametrize(
    "case, refined",
    [("BROWNIAN", False), ("SINSUM", False), ("EXPXY", True)],
    ids=["BROWNIAN-gesdd", "SINSUM-low-rank", "EXPXY-refined"],
)
def test_mode_svds_2d_mode_one_takes_the_factor_arrays(monkeypatch, case, refined):
    # mode 1 is unscaled in place from the factor's own (V, U), whether or
    # not the refinement spliced its block in first: no copy of mode 0
    import sobosvd.svd_engine as svd_engine

    outputs = []
    real = svd_engine._bivariate_svd

    def spy(scaled):
        outputs.append(real(scaled))
        return outputs[-1]

    monkeypatch.setattr(svd_engine, "_bivariate_svd", spy)
    s0, s1 = sv.mode_svds(sv.sample_case(sv.get_case(case), (129, 129)))
    ((u, _, v),) = outputs
    assert _refines(s0.sigmas) == refined
    assert (s0.left_vectors.shape[1] < s0.k_max) == (case != "BROWNIAN")
    assert np.shares_memory(s1.left_vectors, v) and np.shares_memory(s1.right_vectors, u)


def test_mode_svds_refines_both_modes_in_one_long_double_loop(monkeypatch):
    import sobosvd.svd_engine as svd_engine

    calls = []
    real = svd_engine._refine_small_triplets

    def spy(scaled, *args):
        calls.append(scaled.shape)
        return real(scaled, *args)

    monkeypatch.setattr(svd_engine, "_refine_small_triplets", spy)
    u = sv.sample_case(sv.get_case("EXPXY"), (129, 129))
    s0, _ = sv.mode_svds(u)
    assert _refines(s0.sigmas)
    assert calls == [(129, 129)]


@pytest.mark.parametrize("case, grids", [("EXPXY", 6.0), ("BROWNIAN", 7.5)])
def test_mode_svds_2d_peak_memory(case, grids):
    # each mode's vectors are written once, refined (EXPXY) or not
    # (BROWNIAN, whose mode 1 is unscaled in place from the gesdd output
    # like EXPXY's refined one): the traced peak above entry, in grid-sized arrays, is
    # about 5.34 on EXPXY 257^2, whose vectors the low-rank route forms
    # for 16 directions only (the scaled matrix and the refinement's two
    # long-double copies make up 5 of it), and 7.02 on BROWNIAN 257^2.
    # One more grid-sized array live at the peak adds 1.0, so each bound
    # leaves under a grid of headroom for allocation changes in numpy and
    # still fails on a new copy.
    u = sv.sample_case(sv.get_case(case), (257, 257))
    systems, peak, _ = traced_peak(lambda: sv.mode_svds(u), u.values)
    assert _refines(systems[0].sigmas) == (case == "EXPXY")
    assert peak <= grids


def _gesdd_route(monkeypatch, call):
    """call() with every 2D factor the thin gesdd, as before the low-rank route."""
    import sobosvd.svd_engine as svd_engine

    with monkeypatch.context() as patch:
        patch.setattr(svd_engine, "_bivariate_svd", _thin_svd)
        return call()


def _arrays(system):
    return (system.sigmas, system.left_vectors, system.right_vectors)


@pytest.mark.parametrize("shape", [(257, 257), (257, 129), (129, 257)])
def test_bivariate_route_holds_the_numerical_rank_plus_eight(monkeypatch, shape):
    # EXPXY passes the screen, so each mode holds vectors for k + 8
    # directions, k the numerical rank, and every sigma. Against the
    # complete gesdd system: the sigmas to 1e-14 sigma_1 and the first
    # k - 1 left vectors to 1 - |cos| <= 1e-12 (the k-th, near 1e-12
    # sigma_1, is a noise direction in either); the transfer meets
    # criterion 2, and a second call gives the same bits
    u = sv.sample_case(sv.get_case("EXPXY"), shape)
    systems, again = sv.mode_svds(u), sv.mode_svds(u)
    full = _gesdd_route(monkeypatch, lambda: sv.mode_svds(u))
    for j, (s, ref) in enumerate(zip(systems, full)):
        k = sv.numerical_rank(s)
        assert s.left_vectors.shape[1] == s.right_vectors.shape[1] == k + 8 < s.k_max
        assert ref.left_vectors.shape[1] == ref.k_max == s.k_max
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(s), _arrays(again[j])))
        assert_weighted_svd(s, matricize(u.values, j))
        assert np.max(np.abs(s.sigmas - ref.sigmas)) <= 1e-14 * ref.sigmas[0]
        w = s.row_weights
        lead, lead_ref = s.left_vectors[:, : k - 1], ref.left_vectors[:, : k - 1]
        cos = np.abs(np.sum(lead * w[:, None] * lead_ref, axis=0))
        assert np.all(1.0 - cos <= 1e-12), 1.0 - cos
        deriv = sv.derivative_data(u, s)
        direct = fd2_matrix(u.axes[j]) @ s.left_vectors[:, : deriv.count]
        for gamma, d in zip(deriv.gammas.T, direct.T):
            assert weighted_norm(w, gamma - d) <= 1e-10 * weighted_norm(w, d)


def test_bivariate_route_falls_back_where_a_ritz_value_misses(monkeypatch):
    import sobosvd.svd_engine as svd_engine

    u = sv.sample_case(sv.get_case("EXPXY"), (129, 129))
    full = _gesdd_route(monkeypatch, lambda: sv.mode_svds(u))
    monkeypatch.setattr(svd_engine, "_RITZ_TOL", -1.0)
    for s, ref in zip(sv.mode_svds(u), full):
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(s), _arrays(ref)))


def _low_rank_narrow():
    """64 x 200, rank 10 with sigmas 1 down to 1e-3: the screen passes,
    but 4 (10 + 8) > 64."""
    rng = np.random.default_rng(19)
    qa, _ = np.linalg.qr(rng.standard_normal((64, 10)))
    qb, _ = np.linalg.qr(rng.standard_normal((200, 10)))
    m = (qa * np.geomspace(1.0, 1e-3, 10)) @ qb.T
    return m, np.full(64, 1.0 / 64), np.full(200, 1.0 / 200)


@pytest.mark.parametrize(
    "make, svd_calls",
    [
        (lambda: sv.sample_case(sv.get_case("BROWNIAN"), (257, 257)), [True]),
        (lambda: sv.sample_case(sv.get_case("EXPXY"), (63, 257)), [True]),
        (lambda: sv.sample_case(sv.get_case("EXPXY"), (257, 63)), [True]),
        (lambda: sv.sample_case(sv.get_case("SEP1"), (40, 40)), [True]),
        (_low_rank_narrow, [False, True]),
    ],
    ids=["BROWNIAN-257", "EXPXY-63x257", "EXPXY-257x63", "SEP1-40", "narrow-rank-10"],
)
def test_bivariate_route_keeps_the_complete_gesdd_system(monkeypatch, make, svd_calls):
    # a failed screen (BROWNIAN), min(m, n) < 64, or 4 (k + 8) > min(m, n)
    # after the values-only SVD: the thin gesdd's system, bit for bit;
    # compute_uv of each np.linalg.svd call says which branch ran
    arg = make()

    def decompose():
        if isinstance(arg, tuple):
            return (weighted_svd(*arg),)
        return sv.mode_svds(arg)

    calls, svd = [], np.linalg.svd

    def spy(a, *args, compute_uv=True, **kwargs):
        calls.append(compute_uv)
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    full = _gesdd_route(monkeypatch, decompose)
    monkeypatch.setattr(np.linalg, "svd", spy)
    systems = decompose()
    monkeypatch.undo()
    assert calls == svd_calls
    for s, ref in zip(systems, full):
        assert s.left_vectors.shape[1] == s.k_max
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(s), _arrays(ref)))


def test_run_experiment_statuses_match_the_gesdd_route(monkeypatch):
    # every check and the edge cases on EXPXY 257^2, ranks 1..64, most of
    # them past the 16 held columns of each mode
    cfg = ExperimentConfig.from_dict(
        {
            "function": {"case": "EXPXY"},
            "grid": {"n": [257, 257]},
            "ranks": {"sweep": {"from": 1, "to": 64}},
        }
    )
    route = run_experiment(cfg, edge_cases=True).report
    full = _gesdd_route(monkeypatch, lambda: run_experiment(cfg, edge_cases=True).report)
    assert [spec["held_vectors"] for spec in route["spectra"]] == [16, 16]
    assert [spec["held_vectors"] for spec in full["spectra"]] == [257, 257]
    assert [c["status"] for c in route["checks"]] == [c["status"] for c in full["checks"]]


def test_mode_svd_3d_peak_memory():
    # the scaled unfolding, written from u's transposed view, the R-factor
    # QR's copy of it and the small factors: the traced peak above entry
    # is 2.13 grids in each mode on SUM3D 33x35x37 (3.13 with an unscaled
    # unfolding copied first), so one more grid-sized copy fails the bound
    u = sv.sample_case(sv.get_case("SUM3D"), (33, 35, 37))
    for mode in range(3):
        _, peak, _ = traced_peak(lambda: sv.mode_svd(u, mode), u.values)
        assert peak <= 2.5, mode


def _3d_inputs():
    rng = np.random.default_rng(0)
    axes = tuple(sv.make_axis(n) for n in (9, 11, 13))
    return (
        sv.sample_case(sv.get_case("SUM3D"), (17, 17, 17)),
        sv.GridFunction(axes, rng.standard_normal((9, 11, 13))),
    )


def test_mode_svd_3d_hands_the_r_factor_qr_an_f_ordered_matrix(monkeypatch):
    # the transpose of a C-ordered unfolding is F-ordered, the layout
    # LAPACK's buffer takes by a plain copy
    layouts = []
    qr = np.linalg.qr

    def spy(a, mode="reduced"):
        if mode == "r":
            layouts.append(a.flags.f_contiguous)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    for u in _3d_inputs():
        for mode in range(3):
            sv.mode_svd(u, mode)
    assert layouts == [True] * 6


def test_mode_svd_3d_sigmas_are_the_f_ordered_route_bit_for_bit():
    # LAPACK gets the same buffer from either layout, so the same R and
    # sigmas: the reference unfolds in F order, scales as _weighted_svd
    # does, takes R of the transpose and the SVD of R^T
    for u in _3d_inputs():
        for mode in range(3):
            rest = [j for j in range(3) if j != mode]
            mat = np.transpose(u.values, (mode, *rest)).reshape(u.shape[mode], -1, order="F")
            system = sv.mode_svd(u, mode)
            scaled = mat * np.sqrt(system.row_weights)[:, None]
            scaled *= np.sqrt(system.col_weights)[None, :]
            r = np.linalg.qr(scaled.T, mode="r")
            _, sigmas, _ = np.linalg.svd(r.T, full_matrices=False)
            assert not _refines(sigmas)
            assert np.array_equal(system.sigmas, sigmas), mode


def test_mode_svds_3d_is_mode_svd_per_mode():
    u = sv.sample_case(sv.get_case("SEP3D"), (9, 11, 13))
    for j, system in enumerate(sv.mode_svds(u)):
        direct = sv.mode_svd(u, j)
        assert system.mode == j
        for name in ("sigmas", "left_vectors", "right_vectors", "row_weights", "col_weights"):
            assert np.array_equal(getattr(system, name), getattr(direct, name)), (j, name)


def test_hosvd_core_and_reconstruction():
    u = sv.sample_case(sv.get_case("SUM3D"), (17, 17, 17))
    systems = tuple(sv.mode_svd(u, j) for j in range(3))
    ranks = tuple(sv.numerical_rank(s) for s in systems)
    assert ranks == (2, 2, 2)
    approx = sv.hosvd_project(u, ranks, systems=systems)
    assert [f.shape[1] for f in approx.factors] == [2, 2, 2]
    err = sv.norm_l2(u - approx.projected) / sv.norm_l2(u)
    assert err < 1e-12


def test_hosvd_rejects_1d():
    u = sv.sample(lambda x: x, (sv.make_axis(5),))
    with pytest.raises(ModeError):
        sv.mode_svd(u, 0)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_weighted_svd_random_property(m, n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n))
    wr = rng.uniform(0.1, 3.0, m)
    wc = rng.uniform(0.1, 3.0, n)
    s = weighted_svd(mat, wr, wc)
    assert_weighted_svd(s, mat)
    assert np.all(s.sigmas >= 0)
    assert np.all(np.diff(s.sigmas) <= 1e-15)
