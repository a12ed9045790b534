"""Analytic reference functions with known decomposition data.

Each case samples a function on the unit cube whose weighted SVD data is
known in closed form, so tests and the command line can compare discrete
results against independent values. Derivations are classical one-liners
and are restated with each builder; orthogonality of the sine families
over [0, 1] does the work everywhere.

Catalog
-------
SEP1      sin(pi x) sin(pi y), rank one: SINSUM with one coefficient.
SINSUM    sum_k c_k sin(k pi x) sin(k pi y), finite rank.
BROWNIAN  min(x, y), the Brownian-motion covariance, full rank with
          polynomially decaying spectrum.
SEP3D     sin(pi x) sin(pi y) sin(pi z), rank one per mode.
SUM3D     two orthonormal separable sine terms in three variables.
EXPXY     exp(x y); no closed spectrum, closed L2 norm by a series.
"""
from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Callable, ClassVar, Sequence

import numpy as np

from .discretization import GridFunction, make_axis, sample
from .errors import ConfigError, UnknownCaseError


@dataclass(frozen=True)
class CaseOracle:
    """Closed-form decomposition data, any field may be missing.

    ``sigmas(m)`` and ``dpsi_norms(m)`` give the first m singular values
    and left-vector derivative norms of any mode (the catalog cases are
    mode-symmetric). ``l2_norm`` is |u| and ``h1_norm_sq`` is |u|_1^2.
    """

    sigmas: Callable[[int], np.ndarray] | None = None
    dpsi_norms: Callable[[int], np.ndarray] | None = None
    l2_norm: float | None = None
    h1_norm_sq: float | None = None


@dataclass(frozen=True)
class AnalyticCase:
    """A catalog function on the unit cube with its oracle data.

    ``spectral_rtol``, one constant for every case, is the relative accuracy
    the trapezoid grid reaches against the oracle at the acceptance sizes.
    """

    name: str
    dim: int
    sampler: Callable
    oracle: CaseOracle
    params: dict = field(default_factory=dict)
    summary: str = ""
    spectral_rtol: ClassVar[float] = 1e-3


def _number(value, what: str) -> float:
    """``value`` as a float; ConfigError unless it is a finite real number (not a bool)."""
    finite = isinstance(value, Real) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _sinsum(coeffs: Sequence[float] = (1.0, 0.5, 0.25)) -> AnalyticCase:
    """sum_k c_k sin(k pi x) sin(k pi y).

    The sine factors are orthogonal with squared norm 1/2, so the
    singular values are c_k / 2 with vectors sqrt(2) sin(k pi x) and
    derivative norms k pi, ordered by decreasing c_k.
    """
    if not isinstance(coeffs, (list, tuple, np.ndarray)):
        raise ConfigError(f"SINSUM coeffs must be a list of numbers, got {coeffs!r}")
    c = tuple(_number(v, "a SINSUM coefficient") for v in coeffs)
    if len(c) == 0:
        raise ConfigError("SINSUM needs at least one coefficient")
    if any(v <= 0 for v in c):
        raise ConfigError(f"SINSUM coefficients must be positive, got {c}")
    order = sorted(range(len(c)), key=lambda i: (-c[i], i))
    sig = np.array([c[i] / 2.0 for i in order])
    dps = np.array([(order[i] + 1) * np.pi for i in range(len(c))])

    def sampler(x, y):
        out = np.zeros(np.broadcast(x, y).shape)
        for i, ci in enumerate(c):
            k = i + 1
            out += ci * np.sin(k * np.pi * x) * np.sin(k * np.pi * y)
        return out

    return AnalyticCase(
        name="SINSUM",
        dim=2,
        sampler=sampler,
        oracle=CaseOracle(
            sigmas=lambda m: sig[:m].copy(),
            dpsi_norms=lambda m: dps[:m].copy(),
            l2_norm=float(np.sqrt(np.sum(sig**2))),
            h1_norm_sq=float(np.sum(sig**2 * (1.0 + 2.0 * dps**2))),
        ),
        params={"coeffs": list(c)},
        summary="finite sum of sine products",
    )


def _sep1() -> AnalyticCase:
    """sin(pi x) sin(pi y): SINSUM with the one coefficient 1, so the only
    singular value is 1/2 and its derivative norm is pi."""
    return replace(_sinsum((1.0,)), name="SEP1", params={}, summary="rank-one product of sines")


def _brownian() -> AnalyticCase:
    """min(x, y), covariance of Brownian motion on [0, 1].

    Classical eigenexpansion: min(x, y) = sum_k lam_k e_k(x) e_k(y) with
    lam_k = ((k - 1/2) pi)^-2 and e_k = sqrt(2) sin((k - 1/2) pi x), so
    sigma_k = lam_k and the derivative norms are (k - 1/2) pi. Directly,
    |u|^2 = int int min(x, y)^2 = 1/6, and the gradient of min(x, y) is a
    unit vector almost everywhere, so |u|_1^2 = 1/6 + 1 = 7/6.
    """

    def sig_fn(m: int) -> np.ndarray:
        k = np.arange(1, m + 1)
        return ((k - 0.5) * np.pi) ** -2.0

    def dps_fn(m: int) -> np.ndarray:
        k = np.arange(1, m + 1)
        return (k - 0.5) * np.pi

    return AnalyticCase(
        name="BROWNIAN",
        dim=2,
        sampler=lambda x, y: np.minimum(x, y),
        oracle=CaseOracle(
            sigmas=sig_fn,
            dpsi_norms=dps_fn,
            l2_norm=float(np.sqrt(1.0 / 6.0)),
            h1_norm_sq=7.0 / 6.0,
        ),
        summary="Brownian covariance min(x, y)",
    )


def _sep3d() -> AnalyticCase:
    """sin(pi x) sin(pi y) sin(pi z).

    Every mode splits off one sine factor of norm 2^-1/2 against a
    product of two with norm 1/2, so each mode has the single singular
    value 2^-3/2; derivative norm of the normalized factor is pi.
    """
    return AnalyticCase(
        name="SEP3D",
        dim=3,
        sampler=lambda x, y, z: np.sin(np.pi * x)
        * np.sin(np.pi * y)
        * np.sin(np.pi * z),
        oracle=CaseOracle(
            sigmas=lambda m: np.full(min(m, 1), 2.0**-1.5)[:m],
            dpsi_norms=lambda m: np.full(min(m, 1), np.pi)[:m],
            l2_norm=2.0**-1.5,
            h1_norm_sq=(1.0 + 3.0 * np.pi**2) / 8.0,
        ),
        summary="rank-one triple product of sines",
    )


def _sum3d(c1: float = 1.0, c2: float = 0.5) -> AnalyticCase:
    """c1 * s1(x) s1(y) s1(z) + c2 * s2(x) s2(y) s2(z).

    s_k = sqrt(2) sin(k pi t) are orthonormal, so every mode has the
    singular values (c1, c2) with derivative norms (pi, 2 pi).
    """
    c1, c2 = _number(c1, "SUM3D c1"), _number(c2, "SUM3D c2")
    if not c1 > c2 > 0:
        raise ConfigError(f"SUM3D needs c1 > c2 > 0, got {(c1, c2)}")
    sig = np.array([c1, c2])
    dps = np.array([np.pi, 2.0 * np.pi])

    def s(k, t):
        return np.sqrt(2.0) * np.sin(k * np.pi * t)

    return AnalyticCase(
        name="SUM3D",
        dim=3,
        sampler=lambda x, y, z: c1 * s(1, x) * s(1, y) * s(1, z)
        + c2 * s(2, x) * s(2, y) * s(2, z),
        oracle=CaseOracle(
            sigmas=lambda m: sig[:m].copy(),
            dpsi_norms=lambda m: dps[:m].copy(),
            l2_norm=float(np.hypot(c1, c2)),
            h1_norm_sq=float(
                c1**2 * (1.0 + 3.0 * np.pi**2) + c2**2 * (1.0 + 12.0 * np.pi**2)
            ),
        ),
        params={"c1": c1, "c2": c2},
        summary="two orthonormal separable sine terms",
    )


def _expxy() -> AnalyticCase:
    """exp(x y) on the unit square.

    No closed spectrum; reference values come from self-refinement, the
    mode spectra at n and 2n - 1 agreeing at the second-order rate of the
    grid. The L2 norm is closed: expanding exp(2 x y) and integrating
    term by term, int x^k = int y^k = 1 / (k + 1), gives

        int int exp(2 x y) = sum_{k>=0} 2^k / (k! (k + 1)^2),

    which equals (Ei(2) - eulergamma - log 2) / 2. Its terms fall below
    1e-16 of the sum from k = 21 on, so 40 terms summed with fsum leave
    no truncation error at double precision.
    """
    l2_sq = math.fsum(2.0**k / (math.factorial(k) * (k + 1) ** 2) for k in range(40))
    return AnalyticCase(
        name="EXPXY",
        dim=2,
        sampler=lambda x, y: np.exp(x * y),
        oracle=CaseOracle(l2_norm=float(np.sqrt(l2_sq))),
        summary="analytic kernel exp(x y), fast spectral decay",
    )


_BUILDERS = {
    "SEP1": _sep1,
    "SINSUM": _sinsum,
    "BROWNIAN": _brownian,
    "SEP3D": _sep3d,
    "SUM3D": _sum3d,
    "EXPXY": _expxy,
}


def get_case(name: str, **params) -> AnalyticCase:
    """Build a catalog case by name, with optional parameters.

    A case takes the parameters of its builder, whose signature holds
    their defaults. Unknown names raise UnknownCaseError, a ConfigError;
    parameters a case does not take, or invalid values, raise ConfigError.
    """
    key = str(name).upper()
    if key not in _BUILDERS:
        raise UnknownCaseError(f"unknown case {name!r}, have {sorted(_BUILDERS)}")
    builder = _BUILDERS[key]
    accepted = inspect.signature(builder).parameters
    for p in params:
        if p not in accepted:
            raise ConfigError(f"case {key} takes no parameter {p!r}")
    return builder(**params)


def list_cases() -> list[tuple[str, str]]:
    """Names and one-line summaries of every catalog case."""
    return [(key, get_case(key).summary) for key in sorted(_BUILDERS)]


def _grid_sizes(sizes: Sequence[int], dim: int) -> tuple[int, ...]:
    """Per-axis grid sizes for ``dim`` axes; one size serves every axis."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) == 1:
        sizes = sizes * dim
    if len(sizes) != dim:
        raise ConfigError(f"grid lists {len(sizes)} sizes for {dim} dimensions")
    return sizes


def sample_case(case: AnalyticCase, sizes: Sequence[int]) -> GridFunction:
    """Sample a case on the unit cube with the given per-axis sizes; one
    size serves every axis, and any other count is a ConfigError."""
    axes = tuple(make_axis(n, 0.0, 1.0) for n in _grid_sizes(sizes, case.dim))
    return sample(case.sampler, axes)
