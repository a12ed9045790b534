"""Shared fixtures. SVDs of the catalog grids are cached per session."""

from __future__ import annotations

import numpy as np
import pytest

import sobosvd as sv

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
