import numpy as np
import pytest

import sobosvd as sv
from sobosvd import Axis, GridFunction
from sobosvd.errors import AxisMismatchError, InvalidAxisError, ModeError, SamplingError
from sobosvd.discretization import _fd2, _fd2_adjoint, check_mode, require_same_axes

from conftest import fd2_matrix


def test_make_axis_basic():
    ax = sv.make_axis(5)
    assert ax.n == 5
    assert ax.spacing == 0.25
    np.testing.assert_allclose(ax.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(ax.quad_weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert ax.quad_weights.sum() == pytest.approx(1.0)


def test_make_axis_general_interval():
    ax = sv.make_axis(9, -2.0, 3.0)
    assert ax.quad_weights.sum() == pytest.approx(5.0)
    assert ax.nodes[0] == -2.0 and ax.nodes[-1] == 3.0


@pytest.mark.parametrize("bad", [0, 1, 2, -4])
def test_make_axis_too_few_nodes(bad):
    with pytest.raises(InvalidAxisError):
        sv.make_axis(bad)


def test_make_axis_empty_interval():
    with pytest.raises(InvalidAxisError):
        sv.make_axis(5, 1.0, 1.0)
    with pytest.raises(InvalidAxisError):
        sv.make_axis(5, 2.0, 1.0)


@pytest.mark.parametrize("lower, upper", [(0.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf)])
def test_make_axis_non_finite_endpoint(lower, upper):
    with pytest.raises(InvalidAxisError, match="finite"):
        sv.make_axis(5, lower, upper)


@pytest.mark.parametrize(
    "n, lower, upper",
    [
        (5, -1e308, 1e308),  # h = inf, and NaN nodes
        (5, 0.0, 5e-324),  # h = 0, all weights 0
        (3, 0.0, 1e-323),  # h = 5e-324, end weights h/2 = 0
    ],
)
def test_make_axis_rejects_a_spacing_that_overflows_or_underflows(n, lower, upper):
    with pytest.raises(InvalidAxisError, match="spacing"):
        sv.make_axis(n, lower, upper)


def test_make_axis_keeps_the_extreme_usable_spacings():
    wide = sv.make_axis(3, -8e307, 8e307)
    narrow = sv.make_axis(3, 0.0, 2e-323)
    assert wide.spacing == 8e307 and np.all(np.isfinite(wide.nodes))
    assert np.all(narrow.quad_weights > 0)


def test_axis_arrays_immutable():
    ax = sv.make_axis(5)
    with pytest.raises(ValueError):
        ax.nodes[0] = 7.0
    with pytest.raises(ValueError):
        ax.quad_weights[0] = 7.0


def test_axis_storage_is_linear_in_n():
    # a dense n x n differentiation matrix would take 134 MB at n = 4097
    ax = sv.make_axis(4097)
    total = sum(v.nbytes for v in vars(ax).values() if isinstance(v, np.ndarray))
    assert total < 1_000_000


def _derivative_1d(ax, values):
    return sv.partial_derivative(GridFunction((ax,), values), 0).values


def test_partial_derivative_exact_on_quadratics():
    # central interior stencil and one-sided boundary stencils are all
    # second order, so p(x) = a + b x + c x^2 differentiates exactly
    ax = sv.make_axis(11, 0.0, 2.0)
    for a, b, c in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (2.0, -3.0, 0.5)]:
        p = a + b * ax.nodes + c * ax.nodes**2
        dp = b + 2.0 * c * ax.nodes
        np.testing.assert_allclose(_derivative_1d(ax, p), dp, atol=1e-12)


def test_partial_derivative_second_order_on_sine():
    errs = []
    for n in (33, 65, 129):
        ax = sv.make_axis(n)
        d = _derivative_1d(ax, np.sin(np.pi * ax.nodes))
        errs.append(np.max(np.abs(d - np.pi * np.cos(np.pi * ax.nodes))))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_quadrature_second_order():
    exact = 2.0 / np.pi
    errs = []
    for n in (33, 65):
        ax = sv.make_axis(n)
        errs.append(abs(ax.quad_weights @ np.sin(np.pi * ax.nodes) - exact))
    assert errs[0] / errs[1] > 3.5


def test_axis_compatibility():
    a = sv.make_axis(9)
    assert a.is_compatible(sv.make_axis(9))
    assert not a.is_compatible(sv.make_axis(10))
    assert not a.is_compatible(sv.make_axis(9, 0.0, 2.0))


def test_sample_and_grid_function():
    axes = (sv.make_axis(5), sv.make_axis(7))
    u = sv.sample(lambda x, y: x + 10.0 * y, axes)
    assert u.shape == (5, 7)
    assert u.ndim == 2
    assert u.values[2, 3] == pytest.approx(axes[0].nodes[2] + 10.0 * axes[1].nodes[3])


def test_sample_broadcasts_constants():
    u = sv.sample(lambda x: 4.0, (sv.make_axis(6),))
    np.testing.assert_allclose(u.values, 4.0)


def test_sample_rejects_nonfinite():
    with np.errstate(divide="ignore"), pytest.raises(SamplingError, match=r"\(0,"):
        sv.sample(lambda x, y: 1.0 / (x + y), (sv.make_axis(4), sv.make_axis(4)))


def test_grid_function_shape_mismatch():
    with pytest.raises(AxisMismatchError):
        GridFunction((sv.make_axis(5),), np.zeros((6,)))
    with pytest.raises(AxisMismatchError):
        GridFunction((sv.make_axis(5),), np.zeros((5, 5)))


def test_grid_function_values_frozen():
    u = sv.sample(lambda x: x, (sv.make_axis(5),))
    with pytest.raises(ValueError):
        u.values[0] = 3.0


def test_grid_function_arithmetic():
    axes = (sv.make_axis(5), sv.make_axis(5))
    u = sv.sample(lambda x, y: x * y, axes)
    v = sv.sample(lambda x, y: x + y, axes)
    np.testing.assert_allclose((u - v).values, u.values - v.values)


def test_arithmetic_requires_same_axes():
    u = sv.sample(lambda x: x, (sv.make_axis(5),))
    v = sv.sample(lambda x: x, (sv.make_axis(6),))
    with pytest.raises(AxisMismatchError):
        u - v
    with pytest.raises(AxisMismatchError):
        require_same_axes(u, v)


def test_check_mode_range():
    assert check_mode(1, 3) == 1
    with pytest.raises(ModeError):
        check_mode(3, 3)
    with pytest.raises(ModeError):
        check_mode(-1, 3)


def test_inner_l2_separable():
    # int x dx * int y^2 dy = 1/2 * 1/3, trapezoid is exact only to O(h^2)
    axes = (sv.make_axis(201), sv.make_axis(201))
    u = sv.sample(lambda x, y: x, axes)
    v = sv.sample(lambda x, y: y * y, axes)
    assert sv.inner_l2(u, v) == pytest.approx(1.0 / 6.0, abs=1e-4)


def test_inner_l2_exact_on_bilinear():
    # x*y is quadratic in each variable jointly of degree 1 per axis;
    # trapezoid integrates piecewise-linear functions of each node exactly
    axes = (sv.make_axis(5), sv.make_axis(5))
    u = sv.sample(lambda x, y: x * y, axes)
    one = sv.sample(lambda x, y: 1.0, axes)
    assert sv.inner_l2(u, one) == pytest.approx(0.25, abs=1e-14)


def test_partial_derivative_modes():
    axes = (sv.make_axis(21), sv.make_axis(21))
    u = sv.sample(lambda x, y: x * x + 3.0 * y, axes)
    dx = sv.partial_derivative(u, 0)
    dy = sv.partial_derivative(u, 1)
    xx, _ = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
    np.testing.assert_allclose(dx.values, 2.0 * xx, atol=1e-11)
    np.testing.assert_allclose(dy.values, 3.0, atol=1e-11)
    with pytest.raises(ModeError):
        sv.partial_derivative(u, 2)


def test_partial_derivative_matches_fd2_matrix():
    # the stencil and the dense matrix differ only in rounding, so the gap
    # is measured against the largest derivative entry of each mode
    rng = np.random.default_rng(20)
    axes = (sv.make_axis(7, -1.0, 2.0), sv.make_axis(9, 0.5, 0.75), sv.make_axis(12, -3.0, 4.5))
    u = GridFunction(axes, rng.standard_normal((7, 9, 12)))
    for j, ax in enumerate(axes):
        got = sv.partial_derivative(u, j).values
        ref = sv.mode_product(u.values, fd2_matrix(ax), j)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), j


def _laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """A copy of ``a`` in C order, in F order, or as the leading columns of
    a wider C array (a view that is neither C- nor F-contiguous)."""
    if layout == "sliced":
        wide = np.zeros(a.shape[:-1] + (a.shape[-1] + 2,))
        wide[..., : a.shape[-1]] = a
        return wide[..., : a.shape[-1]]
    return np.array(a, order=layout)


@pytest.mark.parametrize("shape", [(3,), (8,), (5, 3), (7, 9, 12), (4, 3, 5, 6)])
@pytest.mark.parametrize("values_layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("out_layout", ["C", "F", "sliced"])
def test_fd2_stencil_is_np_gradient_bit_for_bit(shape, values_layout, out_layout):
    # the stencil that partial_derivative and the measurement kernel share
    # writes into a buffer; its result must be np.gradient's, bit for bit,
    # on every axis and whatever the memory layout of the operand and of
    # the buffer (the single-mode checks pass column slices of left
    # vectors, and 2D mode 1's are F-ordered)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    values = _laid_out(v, values_layout)
    for j in range(len(shape)):
        h = rng.uniform(0.01, 2.0)
        want = np.gradient(v, h, axis=j, edge_order=2)
        out = _laid_out(np.full(shape, np.nan), out_layout)
        assert _fd2(values, h, j, out) is out
        assert np.array_equal(out, want), j
    assert np.array_equal(values, v)


@pytest.mark.parametrize("n", [3, 4, 5, 33])
@pytest.mark.parametrize("cols", [1, 6])
def test_fd2_adjoint_is_the_transposed_matrix(n, cols):
    # D^T y of the dense reference, for thin y; at n = 3 and 4 the
    # one-sided end stencils overlap each other and the interior ones
    rng = np.random.default_rng(n)
    ax = sv.make_axis(n, -0.5, rng.uniform(0.1, 3.0))
    y = rng.standard_normal((n, cols))
    want = fd2_matrix(ax).T @ y
    got = _fd2_adjoint(y, ax.spacing)
    assert got.shape == y.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
