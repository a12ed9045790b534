"""Quadrature-weighted singular value decompositions.

The SVD of a sampled bivariate function under weighted inner products is
computed by symmetric scaling: with row weights w_r and column weights
w_c, factor diag(sqrt(w_r)) M diag(sqrt(w_c)) with a plain SVD and
unscale the vectors. The unscaled columns are then orthonormal in the
weighted inner products and the singular values are the function-space
ones.

``mode_svd`` applies this to the mode-j unfolding of a grid function:
the other modes are flattened colexicographically and their weights
combined into a single column-weight vector. The scaled unfolding is the
one grid-sized array it makes: u's transposed view (mode j first,
``tensor_core._unfolding_view``) times sqrt(w_r), written C-ordered into
a new array, then times sqrt(w_c) in place, so no unscaled unfolding is
copied first. With three or more axes only the retained right vectors
are formed (``_retained_svd``).

Two variables have one factor, ``_bivariate_svd``. A screen comes first:
where the span of the 16 largest-norm columns of the scaled matrix A
misses at most 1e-8 of |A|_F^2, every sigma is taken from LAPACK's
values-only SVD and vectors only for p = k + 8 directions, k the
numerical rank: two steps of orthogonal iteration on A A^T from the p
largest-norm columns, then Rayleigh-Ritz (Golub & Van Loan, Matrix
Computations, 4th ed., ch. 8). The thin gesdd runs instead where the
screen fails, 64 > min(m, n) or 4 p > min(m, n), or a Ritz value misses
sigma_1..sigma_k by over 1e-13 sigma_1. Nothing is randomized, and no
sigma is dropped: the exact spectral tails stay.

``mode_svds`` decomposes every mode. In two variables the mode-1
unfolding is the transpose of the mode-0 one, with the row and column
weights exchanged: it is the adjoint of the same operator, which has
the same singular values with the left and right vectors swapped. So
mode 1 is read off mode 0: one SVD serves both, and mode 1 is unscaled,
in place, from the scaled vectors mode 0 was unscaled from. Where the
long-double refinement runs, one loop refines both modes' triplets, and
mode 1's block is spliced into those vectors first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import GridFunction
from .errors import ModeError, SobosvdError
from .tensor_core import _unfolding_view, combined_weights

DEFAULT_RANK_TOL = 1e-12

# Directions with lambda_k = sigma_k^2 above this fraction of lambda_1
# stay numerically meaningful for operations that divide by lambda_k.
RETAIN_REL = 1e-14

_REFINE_TRIGGER = 1e-3  # smallest retained sigma below this times sigma_1
_REFINE_MAX_COLS = 64
_SCREEN_COLS = 16  # columns of _bivariate_svd's low-rank screen
_SCREEN_MISS = 1e-8  # share of |A|_F^2 their span may miss
_EXTRA_COLS = 8  # vector columns held past the numerical rank
_RITZ_TOL = 1e-13  # largest Ritz value error, times sigma_1


def _count_retained(s: np.ndarray, retain_rel: float = RETAIN_REL) -> int:
    """Number of leading sigmas with (sigma_k / sigma_1)^2 > retain_rel.

    The ratio is squared, not sigma_k itself, so the count does not
    depend on the scale of the input; a zero spectrum retains nothing.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero((s / s[0]) ** 2 > retain_rel))


def _refines(s: np.ndarray) -> bool:
    """Whether ``_refine_small_triplets`` polishes a spectrum: at most 64
    retained sigmas, the smallest of them below 1e-3 times sigma_1."""
    retained = _count_retained(s)
    return 0 < retained <= _REFINE_MAX_COLS and s[retained - 1] < _REFINE_TRIGGER * s[0]


def _refine_small_triplets(scaled, u, s, v, adjoint=False):
    """Tighten triplet consistency for deeply decaying spectra.

    A double-precision SVD leaves residuals near eps times the largest
    singular value. Operations that divide by a retained sigma_k far
    below sigma_1 (the derivative transfer does) turn that into a
    visible relative error, so the retained triplets are polished with
    two deflated power steps in extended precision, where the platform
    provides one. The refined block, and the unrefined tail columns
    re-orthogonalized against it, overwrite ``u`` and ``v``, which must be
    the factor's fresh outputs (see ``_splice``).

    Returns (u, s, v, block). ``block`` is the adjoint's refined (sigmas,
    left, right) with ``adjoint`` where the refinement ran, else None:
    each refined image of phi_k, deflated and normalised, is a right
    vector of scaled^T, and its image under scaled^T the left one.

    Degenerate clusters are safe: a vector may rotate within its
    cluster, but the returned partner and singular value are rebuilt
    from that same vector, and only their mutual consistency matters.
    """
    if not _refines(s):
        return u, s, v, None

    retained = _count_retained(s)
    # C order whatever the layout of ``scaled``: np.dot sums each product
    # in the order matmul does (the same bits) in numpy's faster long-double
    # loop, which reads big by rows, and big_t lets it read big.T by rows too
    big = scaled.astype(np.longdouble, order="C")
    big_t = np.ascontiguousarray(big.T)
    left = u[:, :retained].astype(np.longdouble)
    right = v[:, :retained].astype(np.longdouble)
    sig = s.copy()
    # the adjoint's (sigmas, left, right), swapped until refined
    adj_sig, adj_left, adj_right = s.copy(), right.copy(), left.copy()
    for k in range(retained):
        vec = right[:, k]
        # deflate and normalise; the first two passes then apply big^T big
        for step in range(3):
            vec = _unit(vec, right[:, :k])
            if vec is None:
                break
            image = np.dot(big, vec)
            if step < 2:
                vec = np.dot(big_t, image)
        else:
            sigma = np.sqrt(image @ image)
            if sigma != 0.0:
                right[:, k], left[:, k], sig[k] = vec, image / sigma, float(sigma)
        vec = _unit(left[:, k], adj_right[:, :k]) if adjoint else None
        if vec is not None:
            image = np.dot(big_t, vec)
            sigma = np.sqrt(image @ image)
            if sigma != 0.0:
                adj_right[:, k], adj_left[:, k], adj_sig[k] = vec, image / sigma, float(sigma)
    del big, big_t
    return (*_splice(u, v, sig, left, right), (adj_sig, adj_left, adj_right) if adjoint else None)


def _unit(vec, basis):
    """``vec`` deflated against orthonormal ``basis`` columns and normalised, or None."""
    vec = vec - basis @ (basis.T @ vec)
    norm = np.sqrt(vec @ vec)
    return vec / norm if norm != 0.0 else None


def _splice(u, v, s, left, right):
    """(u, s, v) with the refined block (left, right) in front and the tails
    re-orthogonalized against it, written into u and v in place (so a right
    block may stay F-ordered); columns are gathered into new arrays only
    where the refined sigmas ``s`` come out of order."""
    retained = left.shape[1]
    u[:, :retained] = np.asarray(left, dtype=float)
    v[:, :retained] = np.asarray(right, dtype=float)
    for side in (u, v):  # a right block of the retained columns has no tail
        block = side[:, :retained]
        side[:, retained:] -= block @ (block.T @ side[:, retained:])
    if np.all(np.diff(s[:retained]) <= 0):
        return u, s, v
    order = np.r_[np.argsort(-s[:retained], kind="stable"), retained : s.size]
    return u[:, order[: u.shape[1]]], s[order], v[:, order[: v.shape[1]]]


@dataclass(frozen=True, eq=False)
class SingularSystem:
    """One weighted SVD, fully unscaled.

    left_vectors[:, k] and right_vectors[:, k] are orthonormal under the
    row/column weighted inner products; sum_k sigmas[k] * outer(left_k,
    right_k) reconstructs the decomposed matrix M. Fewer vector columns
    than the k_max sigmas may be held: a ``mode_svd`` of three or more
    variables holds only the ``retained_count`` leading right vectors, and
    a 2D system of a low-rank input p >= numerical rank + 8 on both sides
    (module docstring). The held left vectors reconstruct M as left left^T
    W_r M, up to the sigmas past them, each below 1e-12 sigma_1.
    Sign convention: the largest-magnitude entry of each left vector is
    positive, ties broken by lowest index. The test suite checks this
    contract to 1e-12 (orthonormality entrywise, reconstruction in the
    weighted Frobenius norm).

    ``mode`` records the unfolded mode. It is None only for a system
    built by hand, which ``derivative_data`` rejects. All five arrays are
    read-only.

    The system of the adjoint (the transposed matrix, weights exchanged)
    has the same sigmas with left and right vectors swapped; this is how
    ``mode_svds`` builds mode 1 of a bivariate function: from mode 0's
    scaled vectors, unscaled in place (where mode 0 is refined, the same
    loop's triplets spliced into them first).
    """

    sigmas: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    row_weights: np.ndarray
    col_weights: np.ndarray
    mode: int | None = None

    @property
    def k_max(self) -> int:
        return int(self.sigmas.size)


def _fix_signs(vectors: np.ndarray, partners: np.ndarray | None = None) -> None:
    """Flip columns in place (times -1.0, exact) so each one's largest-magnitude entry is positive.

    The matching columns of ``partners`` (the other side, which may hold
    only the leading columns) are flipped with them.
    """
    pick = np.argmax(np.abs(vectors), axis=0)
    sign = np.where(vectors[pick, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    vectors *= sign
    if partners is not None:
        partners *= sign[: partners.shape[1]]


def _system(left, sigmas, right, row_weights, col_weights, mode) -> SingularSystem:
    """Unscaled triplets, signs fixed, and copies of the weights as a
    ``SingularSystem``, every array read-only."""
    _fix_signs(left, right)
    arrays = (sigmas, left, right, row_weights.copy(), col_weights.copy())
    for a in arrays:
        a.flags.writeable = False
    return SingularSystem(*arrays, mode=mode)


def _thin_svd(scaled):
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    return u, s, vt.T


def _bivariate_svd(scaled):
    """U, every sigma and V of ``scaled``, vectors for the p leading
    directions or all (module docstring); the largest-norm columns are
    picked by stable argsort and taken in index order, so deterministic."""
    norms = np.einsum("ij,ij->j", scaled, scaled)
    total, order = norms.sum(), np.argsort(-norms, kind="stable")

    def basis(count):
        return np.linalg.qr(scaled[:, np.sort(order[:count])])[0]

    if 4 * _SCREEN_COLS > min(scaled.shape) or not 0.0 < total < np.inf:
        return _thin_svd(scaled)
    if total - np.linalg.norm(basis(_SCREEN_COLS).T @ scaled) ** 2 > _SCREEN_MISS * total:
        return _thin_svd(scaled)
    s = np.linalg.svd(scaled, compute_uv=False)
    k = _count_retained(s, DEFAULT_RANK_TOL**2)
    if 4 * (k + _EXTRA_COLS) > min(scaled.shape):
        return _thin_svd(scaled)
    x = basis(k + _EXTRA_COLS)
    for _ in range(2):
        x = np.linalg.qr(scaled @ (scaled.T @ x / s[0]))[0]  # / sigma_1: scale-free
    u, ritz, vt = np.linalg.svd(x.T @ scaled, full_matrices=False)
    if np.any(np.abs(ritz[:k] - s[:k]) > _RITZ_TOL * s[0]):
        return _thin_svd(scaled)
    return x @ u, s, vt.T


def _retained_svd(scaled):
    """U, sigma and the retained right vectors of ``scaled`` = R^T Q^T
    (Chan's QR-preprocessed SVD): U and sigma are those of the small R^T,
    and scaled^T U_m / sigma_m is orthonormalized by a thin QR with
    diag(R) > 0, which keeps the transfer accurate at deep sigma_m."""
    u, s, _ = np.linalg.svd(np.linalg.qr(scaled.T, mode="r").T, full_matrices=False)
    m = _count_retained(s)
    v, r = np.linalg.qr(scaled.T @ (u[:, :m] / s[:m]))
    return u, s, v * np.where(np.diag(r) < 0, -1.0, 1.0)


def _weighted_svd(matrix, row_weights, col_weights, mode, factor, adjoint=False):
    """The system of a finite matrix under strictly positive row and column
    weights, the scaled matrix factored by ``factor``. ``matrix`` may also
    be an unfolding before its columns are flattened (``_unfolding_view``,
    rows on axis 0, columns in C order); either way the scaled matrix is
    written C-ordered into one new array. With ``adjoint``, paired with
    the adjoint's system (mode 1): the factor's scaled vectors, swapped and
    unscaled in place, the refined block spliced in first where the
    refinement ran."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2:
        raise ModeError(f"need a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise SobosvdError("matrix entries must be finite")
    wr = np.asarray(row_weights, dtype=float)
    wc = np.asarray(col_weights, dtype=float)
    if wr.shape != (m.shape[0],) or wc.shape != (m[0].size,):
        raise ModeError("weight vector lengths do not match the matrix")
    if np.any(wr <= 0) or np.any(wc <= 0):
        raise SobosvdError("quadrature weights must be positive")

    sr = np.sqrt(wr)
    sc = np.sqrt(wc)
    scaled = np.multiply(m, sr.reshape((-1,) + (1,) * (m.ndim - 1)), order="C")
    scaled = scaled.reshape(sr.size, sc.size)
    scaled *= sc[None, :]
    u, s, v, block = _refine_small_triplets(scaled, *factor(scaled), adjoint)
    first = _system(u / sr[:, None], s, v / sc[:, None], wr, wc, mode)
    if not adjoint:
        return first
    left, sigmas, right = (v, s, u) if block is None else _splice(v, u, *block)
    left /= sc[:, None]
    right /= sr[:, None]
    return first, _system(left, sigmas, right, wc, wr, 1)


def mode_svd(u: GridFunction, mode: int) -> SingularSystem:
    """Weighted SVD of one mode of a grid function.

    Rows carry the quadrature weights of the chosen axis; columns carry
    the combined weights of all other axes in unfolding order. Raises
    ModeError for a bad mode or a one-axis function.
    """
    view = _unfolding_view(u.values, mode)
    mode = int(mode)
    wr = u.axes[mode].quad_weights
    wc = combined_weights([ax.quad_weights for j, ax in enumerate(u.axes) if j != mode])
    return _weighted_svd(view, wr, wc, mode, _bivariate_svd if u.ndim == 2 else _retained_svd)


def mode_svds(u: GridFunction) -> tuple[SingularSystem, ...]:
    """The weighted SVD of every mode of ``u``, modes 0, ..., d-1 in order.

    Each is the ``mode_svd`` of its mode, except that with two axes only
    mode 0 is decomposed and mode 1 is its adjoint, the weights exchanged:
    the factor's vectors swapped and unscaled in place, refined in mode 0's
    loop where it ran (``derivative_data`` divides by its sigma_k), and
    their signs fixed by the one convention.
    """
    if u.ndim != 2:
        return tuple(mode_svd(u, j) for j in range(u.ndim))
    wr, wc = (ax.quad_weights for ax in u.axes)
    return _weighted_svd(u.values, wr, wc, 0, _bivariate_svd, adjoint=True)


def numerical_rank(system: SingularSystem) -> int:
    """Number of singular values above DEFAULT_RANK_TOL times the largest.

    Counted by the retain rule on (sigma_k / sigma_1)^2; zero input has rank zero.
    """
    return _count_retained(system.sigmas, DEFAULT_RANK_TOL**2)


def retained_count(system: SingularSystem) -> int:
    """Number of leading directions with lambda_k > RETAIN_REL * lambda_1,
    the ones ``derivative_data`` and the refinement work on."""
    return _count_retained(system.sigmas)
