import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobosvd.diagnostics import (
    CONVERGED,
    DIVERGING,
    UNDECIDED,
    h1_convergence_flag,
    rate_fit,
)
from sobosvd.errors import DegenerateDataError


def test_rate_fit_recovers_exact_power_law():
    ranks = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = rate_fit(ranks, 3.0 * ranks**-1.5)
    assert fit.slope == pytest.approx(-1.5, abs=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_ignores_floored_points():
    ranks = [1, 2, 4, 8, 16]
    errors = [1.0, 0.25, 0.0625, 1e-14, 0.0]
    fit = rate_fit(ranks, errors)
    # the two dead values do not bend the line
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)


def test_rate_fit_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        rate_fit([1, 2, 4], [1.0, 0.5])
    with pytest.raises(DegenerateDataError):
        rate_fit([1, 2, 4], [1e-14, 1e-15, 0.0])
    with pytest.raises(DegenerateDataError):
        rate_fit([1, 2], [1.0, 0.5])


def test_flag_stalled_series():
    assert h1_convergence_flag([1.0, 1.5, 1.6, 1.6, 1.6]) == CONVERGED


def test_flag_diverging_series():
    assert h1_convergence_flag([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]) == DIVERGING


def test_flag_summable_increments():
    k = np.arange(1, 13, dtype=float)
    s = np.cumsum(k**-2.0)
    assert h1_convergence_flag(s) == CONVERGED


def test_flag_harmonic_growth_is_undecided():
    k = np.arange(1, 13, dtype=float)
    assert h1_convergence_flag(np.cumsum(1.0 / k)) == UNDECIDED


def test_flag_input_validation():
    with pytest.raises(DegenerateDataError):
        h1_convergence_flag([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError):
        h1_convergence_flag([1.0, 2.0, 1.5, 2.5])
    with pytest.raises(DegenerateDataError):
        h1_convergence_flag([1.0, 2.0, np.inf, 3.0])


@settings(deadline=None, max_examples=30)
@given(
    scale=st.floats(min_value=1e-6, max_value=1e6),
    kind=st.sampled_from(["stall", "diverge", "summable", "harmonic"]),
)
def test_flag_is_scale_invariant(scale, kind):
    base = {
        "stall": np.array([1.0, 1.5, 1.6, 1.6, 1.6]),
        "diverge": np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
        "summable": np.cumsum(np.arange(1.0, 13.0) ** -2.0),
        "harmonic": np.cumsum(1.0 / np.arange(1.0, 13.0)),
    }[kind]
    assert h1_convergence_flag(base) == h1_convergence_flag(scale * base)
