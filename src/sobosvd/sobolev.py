"""Discrete Sobolev norms and derivative transfer onto singular vectors.

Norms
-----
With D_j the second-order three-point stencil along axis j
(``partial_derivative``) and all inner products quadrature-weighted:

* ``norm_l2``:    plain weighted L2 norm.
* ``norm_ek``:    one-direction Sobolev norm, sqrt(|v|^2 + |D_k v|^2).
* ``norm_h1``:    sqrt(|v|^2 + sum_j |D_j v|^2).

``sobolev_sq``, behind ``norm_h1``, returns |v|^2 and every |D_j v|^2,
differentiating once per direction. Every norm sums its squares left to
right in the order above. |v|^2 is read from ``GridFunction.sq_l2``,
summed on the grid at its first read and kept, so a run sums u^2 once;
no ``DerivativeData`` holds a copy.

Measuring a projection
----------------------
``truncation.h1_sandwich`` measures every projection a run checks: the
kept side of each Tucker projection and each single-mode projection in
coefficient space, from small per-mode Grams, and the residual on the
grid once per call, at the largest ranks, in one workspace and one
derivative buffer. So a run differentiates u (in ``derivative_data``)
and one residual once per direction, and allocates no grid-sized array
per rank vector.

Derivative transfer
-------------------
For a mode SVD of u with triple (sigma_k, psi_k, phi_k), the singular
vectors inherit the smoothness of u: applying the derivative of u through
the decomposition reproduces the derivative of psi_k,

    gamma_k = (1/lambda_k) M(d_j u) W_c M(u)^T W_r psi_k,
    lambda_k = sigma_k^2,

and gamma_k equals D_j psi_k exactly in the discrete algebra. Its norm is
bounded by (1/lambda_k) |u| |d_j u|, the discrete Cauchy-Schwarz chain.
``derivative_data`` forms D_j u and, with three or more axes, its
unfolding copy, and squares D_j u into that copy once the transfer has
read it: two grid-sized arrays above its entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import GridFunction, _sq_l2, check_mode, inner_l2, partial_derivative
from .svd_engine import SingularSystem, retained_count
from .tensor_core import matricize


def _root_sum(terms) -> float:
    """Square root of the terms summed left to right, clipped at zero."""
    acc = 0.0
    for t in terms:
        acc += t
    return float(np.sqrt(max(acc, 0.0)))


def norm_l2(f: GridFunction) -> float:
    """Quadrature-weighted L2 norm."""
    return _root_sum((f.sq_l2,))


def norm_ek(f: GridFunction, mode: int) -> float:
    """Sobolev norm in one direction: L2 of the value and of d/dx_mode."""
    mode = check_mode(mode, f.ndim)
    df = partial_derivative(f, mode)
    return _root_sum((f.sq_l2, inner_l2(df, df)))


def sobolev_sq(f: GridFunction) -> tuple[float, ...]:
    """(|f|^2, |D_0 f|^2, ..., |D_{d-1} f|^2), each derivative taken once."""
    derivatives = (partial_derivative(f, j) for j in range(f.ndim))
    return (f.sq_l2, *(inner_l2(df, df) for df in derivatives))


def norm_h1(f: GridFunction) -> float:
    """First-order Sobolev norm: value plus every first derivative."""
    return _root_sum(sobolev_sq(f))


@dataclass(frozen=True, eq=False)
class DerivativeData:
    """Derivative transfer data for the retained part of one mode system.

    Column k of ``gammas`` is the transferred derivative of left vector
    k of the system of mode ``mode``; ``dpsi_norms`` its weighted L2 norm
    on the axis and ``bound_values`` the Cauchy-Schwarz bound
    (1/lambda_k) |u| |d_j u|. Only the ``retained_count`` leading
    directions are kept; ``count`` says how many.

    ``du_sq`` is |D_mode u|^2, which the single-mode measurements and the
    norm scales of a run read instead of measuring D_mode u again; |u|^2
    they read from ``u.sq_l2``. D_mode u itself is not kept: the
    single-mode pass moves D_mode onto its basis
    (``truncation._single_mode_coeffs``).
    """

    mode: int
    gammas: np.ndarray
    dpsi_norms: np.ndarray
    bound_values: np.ndarray
    du_sq: float

    @property
    def count(self) -> int:
        return int(self.gammas.shape[1])


def derivative_data(u: GridFunction, system: SingularSystem) -> DerivativeData:
    """Derivative transfer for every retained direction of a mode system.

    ``system`` is a ``mode_svd`` of ``u``; the derivative is taken along
    its mode. Only the retained right vectors are read, all that a system
    of three or more variables holds. Raises ModeError for a system that
    records no mode.

    M(u)^T W_r psi_k equals sigma_k phi_k for an exact singular triple,
    so gamma_k is computed as (1/sigma_k) M(d_mode u) W_c phi_k; the
    literal quadruple product amplifies rounding by 1/lambda_k.

    The Cauchy-Schwarz bound is computed, not enforced: the
    ``derivative_bound`` check of a run compares ``dpsi_norms`` with
    ``bound_values`` and records a violation in the report.

    Grid work: u^2 is summed once per grid function (``u.sq_l2``, read
    before D_mode u exists); with three or more axes the squares of D_mode
    u go into the unfolding copy the transfer product has just read, so
    no grid-sized array is made past D_mode u and that copy.
    """
    mode = check_mode(system.mode, u.ndim)
    m = retained_count(system)
    w = u.axes[mode].quad_weights
    u_sq = u.sq_l2

    du = partial_derivative(u, mode)
    md = matricize(du.values, mode)
    gammas = (
        md @ (system.col_weights[:, None] * system.right_vectors[:, :m])
    ) / system.sigmas[:m][None, :]

    dpsi = np.sqrt(np.maximum(np.einsum("ik,i,ik->k", gammas, w, gammas), 0.0))
    # a 2D unfolding is a view of D_mode u; a d >= 3 one a C-ordered copy
    du_sq = _sq_l2(du.values, u.axes, md.reshape(u.shape) if u.ndim > 2 else None)
    u_norm, du_norm = (float(np.sqrt(max(sq, 0.0))) for sq in (u_sq, du_sq))
    lam = system.sigmas[:m] ** 2
    bounds = u_norm * du_norm / lam
    return DerivativeData(
        mode=mode,
        gammas=gammas,
        dpsi_norms=dpsi,
        bound_values=bounds,
        du_sq=du_sq,
    )
