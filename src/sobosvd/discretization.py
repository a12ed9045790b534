"""Uniform grids, trapezoid quadrature and second-order differentiation.

An :class:`Axis` is the discrete model of one closed interval: equispaced
nodes and positive quadrature weights. A :class:`GridFunction` binds a
d-way array of point samples to d axes; :func:`partial_derivative`
applies the second-order three-point stencil along one of them.

Every inner product and norm in this package is weighted by the axis
quadrature weights; the plain Euclidean dot product is never the right
thing on these grids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import AxisMismatchError, InvalidAxisError, SamplingError
from .tensor_core import check_mode

# the one scheme of every axis; a report names it as ``grid.scheme``
UNIFORM_TRAPEZOID_FD2 = "uniform-trapezoid-fd2"


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Axis:
    """One discretized interval, in the scheme ``UNIFORM_TRAPEZOID_FD2``.

    Attributes
    ----------
    lower, upper : float
        Finite interval endpoints, ``lower < upper``.
    nodes : ndarray, shape (n,)
        Equispaced nodes including both endpoints.
    quad_weights : ndarray, shape (n,)
        Composite trapezoid weights: h/2 at the endpoints, h inside.
        They sum to the interval length.
    """

    lower: float
    upper: float
    nodes: np.ndarray
    quad_weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n - 1)

    def is_compatible(self, other: "Axis") -> bool:
        return (self.n, self.lower, self.upper) == (other.n, other.lower, other.upper)


def make_axis(n: int, lower: float = 0.0, upper: float = 1.0) -> Axis:
    """Build a uniform axis with n nodes on [lower, upper].

    Raises
    ------
    InvalidAxisError
        If ``n < 3``, an endpoint is not finite, ``lower >= upper``, or the
        spacing h overflows or its half, the end weight, underflows to 0.
        Three nodes are the minimum for the one-sided boundary stencils.
    """
    n = int(n)
    if n < 3:
        raise InvalidAxisError(f"need at least 3 nodes, got {n}")
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise InvalidAxisError(f"endpoints must be finite: lower={lower!r}, upper={upper!r}")
    if not lower < upper:
        raise InvalidAxisError(f"empty interval: lower={lower!r}, upper={upper!r}")
    h = (upper - lower) / (n - 1)
    if not (math.isfinite(h) and h / 2.0 > 0.0):
        raise InvalidAxisError(f"spacing {h!r} on [{lower!r}, {upper!r}] overflows or underflows")
    nodes = np.linspace(lower, upper, n)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return Axis(float(lower), float(upper), _frozen(nodes), _frozen(w))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Point samples of a function on a tensor-product grid.

    ``values[i1, ..., id]`` is the sample at ``(axes[0].nodes[i1], ...)``.
    Instances are immutable; the only arithmetic is ``-`` of two grid
    functions on the same axes, which returns a new object. So |f|^2
    (``sq_l2``) is summed on the grid once, at its first read.
    """

    axes: tuple[Axis, ...]
    values: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != len(axes):
            raise AxisMismatchError(
                f"{len(axes)} axes for a {vals.ndim}-way value array"
            )
        shape = tuple(ax.n for ax in axes)
        if vals.shape != shape:
            raise AxisMismatchError(f"values shape {vals.shape} != grid shape {shape}")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise SamplingError(f"non-finite value at index {tuple(int(i) for i in bad)}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", vals)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @cached_property
    def sq_l2(self) -> float:
        """|f|^2, the squared quadrature-weighted L2 norm (``_sq_l2``),
        kept after the first read; read-only, as the instance is."""
        return _sq_l2(self.values, self.axes)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        require_same_axes(self, other)
        return GridFunction(self.axes, self.values - other.values)


def require_same_axes(f: GridFunction, g: GridFunction) -> None:
    if f.ndim != g.ndim or not all(
        a.is_compatible(b) for a, b in zip(f.axes, g.axes)
    ):
        raise AxisMismatchError("grid functions live on different axes")


def sample(f: Callable, axes: Sequence[Axis]) -> GridFunction:
    """Evaluate a callable on the tensor grid of the given axes.

    The callable receives one broadcast array per axis and must evaluate
    elementwise (a scalar result is broadcast, so constants are fine).
    Non-finite samples raise :class:`SamplingError` naming the first
    offending multi-index.
    """
    axes = tuple(axes)
    if not axes:
        raise InvalidAxisError("need at least one axis")
    grids = np.meshgrid(*(ax.nodes for ax in axes), indexing="ij")
    vals = np.asarray(f(*grids), dtype=float)
    shape = tuple(ax.n for ax in axes)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape)
    return GridFunction(axes, vals)


def _weighted_sum(values: np.ndarray, axes: Sequence[Axis]) -> float:
    """Quadrature-weighted sum of a grid array, last axis contracted first."""
    t = values
    for ax in reversed(axes):
        t = t @ ax.quad_weights
    return float(t)


def _sq_l2(values: np.ndarray, axes: Sequence[Axis], out: np.ndarray | None = None) -> float:
    """Squared quadrature-weighted L2 norm of a grid array.

    The sum ``inner_l2`` takes of a function with itself; ``out``, if
    given, receives the squares.
    """
    return _weighted_sum(np.multiply(values, values, out=out), axes)


def inner_l2(f: GridFunction, g: GridFunction) -> float:
    """Quadrature-weighted L2 inner product of two grid functions."""
    require_same_axes(f, g)
    return _weighted_sum(f.values * g.values, f.axes)


def _fd2(values: np.ndarray, h: float, axis: int, out: np.ndarray) -> np.ndarray:
    """The FD2 stencil of ``values`` along ``axis`` at spacing h, into ``out``.

    The same operations in the same order as
    ``np.gradient(values, h, axis=axis, edge_order=2)``, so the result is
    bit for bit the same; unlike it, this writes into a caller's buffer.
    The interior is one shift by the stride of ``axis`` over the flattened
    C-ordered array (``out`` through a buffer if it is not C-contiguous);
    the end planes it also fills are then overwritten by the edge stencils.
    """
    v = np.ascontiguousarray(values)
    work = out if out.flags.c_contiguous else np.empty(v.shape)
    stride = math.prod(v.shape[axis + 1 :])
    v3, w3 = (x.reshape(math.prod(v.shape[:axis]), v.shape[axis], stride) for x in (v, work))
    flat, interior = v.reshape(-1), work.reshape(-1)[stride : v.size - stride]
    np.subtract(flat[2 * stride :], flat[: v.size - 2 * stride], out=interior)
    np.divide(interior, 2.0 * h, out=interior)
    a, b, c = -1.5 / h, 2.0 / h, -0.5 / h
    w3[:, 0] = a * v3[:, 0] + b * v3[:, 1] + c * v3[:, 2]
    a, b, c = 0.5 / h, -2.0 / h, 1.5 / h
    w3[:, -1] = a * v3[:, -3] + b * v3[:, -2] + c * v3[:, -1]
    if work is not out:
        out[...] = work
    return out


def _fd2_adjoint(values: np.ndarray, h: float) -> np.ndarray:
    """D^T y for the FD2 matrix D of ``_fd2`` at spacing h, along axis 0
    of a thin n x r array y (n >= 3), as a new array: each row of D
    spreads its node's y over the nodes its stencil reads (at n = 3 and
    4 the end stencils overlap the interior ones)."""
    mid = values[1:-1] * (0.5 / h)
    out = np.zeros(values.shape)
    out[2:] += mid
    out[:-2] -= mid
    out[:3] += np.multiply.outer((-1.5 / h, 2.0 / h, -0.5 / h), values[0])
    out[-3:] += np.multiply.outer((0.5 / h, -2.0 / h, 1.5 / h), values[-1])
    return out


def partial_derivative(f: GridFunction, mode: int) -> GridFunction:
    """Second-order finite differences of ``f`` along one mode.

    Central (-1, 0, 1)/(2h) at interior nodes, one-sided (-3, 4, -1)/(2h)
    and (1, -4, 3)/(2h) at the two ends, so quadratics differentiate
    exactly.
    """
    mode = check_mode(mode, f.ndim)
    vals = _fd2(f.values, f.axes[mode].spacing, mode, np.empty(f.shape))
    return GridFunction(f.axes, vals)
