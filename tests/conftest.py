"""Shared fixtures. SVDs of the catalog grids are cached per session."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import sobosvd as sv
from sobosvd import svd_engine
from sobosvd.experiment import _brackets

_GRIDS = {
    "SEP1": (65, 65),
    "SINSUM": (129, 129),
    "BROWNIAN": (129, 129),
    "EXPXY": (129, 129),
    "SEP3D": (33, 33, 33),
    "SUM3D": (33, 33, 33),
}


@pytest.fixture(scope="session")
def catalog():
    """name -> (grid function, per-mode systems, per-mode derivative data)."""
    out = {}
    for name, shape in _GRIDS.items():
        u = sv.sample_case(sv.get_case(name), shape)
        systems = sv.mode_svds(u)
        derivs = tuple(sv.derivative_data(u, s) for s in systems)
        out[name] = (u, systems, derivs)
    return out


@pytest.fixture(scope="session")
def expxy_fine():
    """EXPXY on the acceptance grid; the expensive decomposition, built once."""
    u = sv.sample_case(sv.get_case("EXPXY"), (257, 257))
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    return u, systems, derivs


@pytest.fixture(scope="session")
def minxy_3d():
    """min(x, y)(1 + z) on 129 x 129 x 9: modes 0 and 1 retain 128 directions,
    too many for the refinement, so the transfer rests on the right vectors
    as the decomposition forms them."""
    axes = tuple(sv.make_axis(n) for n in (129, 129, 9))
    u = sv.sample(lambda x, y, z: np.minimum(x, y) * (1.0 + z), axes)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    return u, systems, derivs


def smooth_random(rng, intervals, shape, terms=4):
    """A sum of random separable cosines on a grid with the given intervals."""
    axes = tuple(sv.make_axis(n, lo, hi) for n, (lo, hi) in zip(shape, intervals))

    def f(*xs):
        out = 0.0
        for _ in range(terms):
            term = rng.standard_normal()
            for x in xs:
                term = term * np.cos(rng.uniform(0.2, 3.0) * x + rng.uniform(0.0, np.pi))
            out = out + term
        return out

    return sv.sample(f, axes)


def weighted_norm(weights, vec):
    return float(np.sqrt(np.sum(weights * np.asarray(vec) ** 2)))


def fd2_matrix(axis):
    """Dense second-order differentiation matrix of one axis.

    Central stencils at interior nodes, three-point one-sided stencils at
    the endpoints: the independent reference for ``partial_derivative``.
    """
    n, h = axis.n, axis.spacing
    d = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    d[idx, idx - 1] = -1.0 / (2.0 * h)
    d[idx, idx + 1] = 1.0 / (2.0 * h)
    d[0, 0:3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    d[-1, n - 3 :] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    return d


def traced_peak(call, grid):
    """``call()``'s result, the traced peak of its allocations above the
    level at entry, and the level it leaves live; both in arrays of the
    size of ``grid``."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = call()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - entry) / grid.nbytes, (live - entry) / grid.nbytes


def stage_peaks(monkeypatch, names, call, grid):
    """``call()``'s result and, for each of ``names`` (bindings of
    ``sobosvd.experiment`` that ``call`` reaches), that stage's traced
    peak above the level at its entry, in arrays of the size of ``grid``:
    the largest over its calls. A stage called inside another counts
    toward both."""
    import sobosvd.experiment as experiment

    peaks, stack = dict.fromkeys(names, 0.0), []  # stack: [entry, highest] per open stage

    def fold():  # the peak since the last reset, into every open stage
        high = tracemalloc.get_traced_memory()[1]
        for frame in stack:
            frame[1] = max(frame[1], high)

    def staged(name, real):
        def stage(*args, **kwargs):
            fold()
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            stack.append([entry, entry])
            try:
                return real(*args, **kwargs)
            finally:
                fold()
                start, high = stack.pop()
                peaks[name] = max(peaks[name], (high - start) / grid.nbytes)

        return stage

    for name in names:
        monkeypatch.setattr(experiment, name, staged(name, getattr(experiment, name)))
    tracemalloc.start()
    try:
        result = call()
    finally:
        tracemalloc.stop()
    return result, peaks


def weighted_svd(matrix, row_weights, col_weights):
    """The system of a bare matrix, ``mode`` None, by the factor a 2D
    ``mode_svd`` uses (looked up when called, so a test may patch it)."""
    factor = svd_engine._bivariate_svd
    return svd_engine._weighted_svd(matrix, row_weights, col_weights, None, factor)


_SVD_TOL = 1e-12  # orthonormality (entrywise) and reconstruction (relative)


def _weighted_fro(matrix, row_weights, col_weights) -> float:
    m = np.asarray(matrix, dtype=float)
    return float(np.sqrt(row_weights @ (m * m) @ col_weights))


def assert_weighted_svd(system, matrix=None):
    """Check a ``SingularSystem``'s contract: weighted orthonormality, and
    reconstruction of ``matrix`` if given.

    Either block may hold only its leading columns: a d >= 3 mode system
    holds the retained right ones, a 2D system of a low-rank input at
    least its numerical rank + 8 on both sides. The held columns must be
    orthonormal and the held right ones partner their left vectors,
    psi_k^T W_r M = sigma_k phi_k^T; the held left basis must reproduce
    M, psi psi^T W_r M = M, with the Gram matrix psi^T W_r M W_c M^T W_r
    psi = diag(sigma^2) over the held left columns.

    Orthonormality is entrywise absolute; reconstruction is relative in
    the weighted Frobenius norm (squared norm for the Gram matrix); all
    to 1e-12. Returns the matrix sum_k sigma_k outer(left_k, right_k)
    over the held right columns, which reconstructs ``matrix`` when the
    right block is full.
    """
    held_l, held = system.left_vectors.shape[1], system.right_vectors.shape[1]
    assert held <= held_l <= system.k_max
    gl = system.left_vectors.T @ (system.row_weights[:, None] * system.left_vectors)
    gr = system.right_vectors.T @ (system.col_weights[:, None] * system.right_vectors)
    err_l = np.max(np.abs(gl - np.eye(held_l))) if held_l else 0.0
    err_r = np.max(np.abs(gr - np.eye(held))) if held else 0.0
    assert max(err_l, err_r) <= _SVD_TOL, (
        f"weighted orthonormality violated: left {err_l:.3e}, right {err_r:.3e}"
    )
    rebuilt = (system.left_vectors[:, :held] * system.sigmas[:held]) @ system.right_vectors.T
    if matrix is None:
        return rebuilt
    wr, wc = system.row_weights, system.col_weights
    scale = max(_weighted_fro(matrix, wr, wc), np.finfo(float).tiny)
    if held == system.k_max:
        wf_err = _weighted_fro(rebuilt - matrix, wr, wc)
        assert wf_err <= _SVD_TOL * scale, (
            f"reconstruction off by {wf_err:.3e} (scale {scale:.3e})"
        )
        return rebuilt
    psi = system.left_vectors
    coeffs = psi.T @ (wr[:, None] * matrix)  # row k is psi_k^T W_r M
    errs = {
        "left basis": _weighted_fro(psi @ coeffs - matrix, wr, wc) / scale,
        "held triplets": _weighted_fro(
            coeffs[:held] - system.sigmas[:held, None] * system.right_vectors.T,
            np.ones(held),
            wc,
        )
        / scale,
        "gram": np.linalg.norm(
            coeffs @ (wc[:, None] * coeffs.T) - np.diag(system.sigmas[:held_l] ** 2)
        )
        / scale**2,
    }
    for name, err in errs.items():
        assert err <= _SVD_TOL, f"reconstruction ({name}) off by {err:.3e}"
    return rebuilt


def bracket_holds(rep, slack):
    """Bracket name -> whether lower - slack <= value <= upper + slack, for
    each bracket of the rank report ``rep`` as ``experiment._brackets``
    reads it: a test's own verdict, at the slack the test chooses."""
    return {name: lo - slack <= v <= hi + slack for name, (lo, v, hi) in _brackets(rep).items()}


def bernstein_constants(u, systems, derivs, j, ranks):
    """Gamma_j(r) for each r in ``ranks``, read from ``h1_sandwich``'s
    ``bernstein``; the other modes stay at rank 0, so no truncation is
    synthesized."""
    rvs = [[r if i == j else 0 for i in range(u.ndim)] for r in ranks]
    reports = sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)
    return [rep["bernstein"][j] for rep in reports]
