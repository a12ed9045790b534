"""Rate fits and a convergence classifier for Sobolev series.

``rate_fit`` fits a power law in log2-log2 coordinates. The
``diagnostics`` check of a run uses it for the decay of the L2 and H1
residuals over a rank sweep, and for the growth of the per-mode
norm-ratio constant Gamma_j(r) (the Bernstein, or inverse, estimate
through which the paper bounds the H1 error of the L2 SVD).
``h1_convergence_flag`` classifies a sequence of Sobolev partial sums.

Fits ignore values at or below the floor of 1e-13, where double
precision has nothing left to say.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

FIT_FLOOR = 1e-13

CONVERGED = "converged"
DIVERGING = "diverging"
UNDECIDED = "undecided"

# classifier policy knobs (heuristic, not theory)
STALL_REL = 1e-8
GROWTH_FACTOR = 10.0
GROWTH_WINDOW = 4
SUMMABLE_SLOPE = -1.1
SUMMABLE_R2 = 0.8


def _line_fit(x: np.ndarray, y: np.ndarray):
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(r2)


@dataclass(frozen=True)
class RateFit:
    """A straight-line fit in log2-log2 coordinates: the slope of the
    fitted line, r2 its goodness. Only the points ``rate_fit`` kept
    (positive rank, y above FIT_FLOOR, both finite) enter the fit.
    """

    slope: float
    r2: float


def rate_fit(ranks, errors) -> RateFit:
    """Least-squares decay exponent of errors against ranks.

    Fits log2(error) against log2(rank). Needs at least three error
    values above the floor; otherwise raises DegenerateDataError.
    """
    xs = np.asarray(ranks, dtype=float)
    ys = np.asarray(errors, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DegenerateDataError("ranks and errors must be 1-d of equal length")
    usable = (ys > FIT_FLOOR) & (xs > 0) & np.isfinite(ys) & np.isfinite(xs)
    if np.count_nonzero(usable) < 3:
        raise DegenerateDataError(
            f"need at least 3 positive errors above {FIT_FLOOR}, "
            f"got {int(np.count_nonzero(usable))}"
        )
    return RateFit(*_line_fit(np.log2(xs[usable]), np.log2(ys[usable])))


def h1_convergence_flag(partial_sums) -> str:
    """Classify a nondecreasing sequence of Sobolev partial sums.

    Returns one of "converged", "diverging", "undecided":

    * converged when the series has stalled (last two increments below
      STALL_REL of the last value) or the increments fall off like a
      power of the index with exponent clearly below -1, which makes
      the series summable;
    * diverging when the increments are non-decreasing across the last
      GROWTH_WINDOW points and the last value exceeds GROWTH_FACTOR
      times the first;
    * undecided otherwise.

    All thresholds are relative, so the answer is invariant under
    positive scaling. Needs at least four points.
    """
    s = np.asarray(partial_sums, dtype=float)
    if s.ndim != 1 or s.size < 4:
        raise DegenerateDataError("need at least 4 partial sums")
    if not np.all(np.isfinite(s)):
        raise DegenerateDataError("partial sums must be finite")
    scale = float(max(abs(s[-1]), np.finfo(float).tiny))
    d = np.diff(s)
    if np.any(d < -1e-12 * scale):
        raise DegenerateDataError("partial sums must be nondecreasing")

    if np.all(d[-2:] < STALL_REL * scale):
        return CONVERGED
    if (
        np.all(np.diff(d[-(GROWTH_WINDOW - 1) :]) >= 0)
        and s[-1] > GROWTH_FACTOR * s[0]
    ):
        return DIVERGING

    idx = np.arange(1, s.size, dtype=float)
    usable = d > FIT_FLOOR * scale
    if np.count_nonzero(usable) >= 3:
        slope, r2 = _line_fit(np.log2(idx[usable]), np.log2(d[usable]))
        if slope <= SUMMABLE_SLOPE and r2 >= SUMMABLE_R2:
            return CONVERGED
    return UNDECIDED
