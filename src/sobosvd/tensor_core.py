"""Dense tensor reshaping and mode products.

Flattening convention everywhere: colexicographic, first listed dimension
fastest (column-major). The mode-j unfolding puts mode j on the rows and
the other modes on the columns, in ascending mode order, stored in C
order: a view where the strides allow (any two-axis array), else a copy,
whose transpose LAPACK's column-major buffers then take by a plain copy.
``_unfolding_view`` is the same unfolding before its columns are
flattened, always a view.
"""
from __future__ import annotations

from functools import reduce
from math import prod

import numpy as np

from .errors import ModeError


def check_mode(mode: int | None, ndim: int) -> int:
    """``mode`` as an int; ModeError unless it is one of ``ndim`` axes."""
    if mode is None or not 0 <= int(mode) < ndim:
        raise ModeError(f"mode {mode} is not one of the {ndim} axes")
    return int(mode)


def matricize(values: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a tensor with at least two axes.

    Row index runs over mode ``mode``; column index runs
    colexicographically over the remaining modes (ascending): those axes
    reversed and flattened in C order.
    """
    view = _unfolding_view(values, mode)
    return view.reshape(view.shape[0], prod(view.shape[1:]))


def _unfolding_view(values: np.ndarray, mode: int) -> np.ndarray:
    """The mode-``mode`` unfolding before its columns are flattened: a view
    of ``values`` with mode ``mode`` first and the remaining modes after it,
    last first, so that its C-order flattening is ``matricize``'s. A product
    read from it into a new C-ordered array writes the unfolding in the
    one copy (``svd_engine.mode_svd`` scales u that way)."""
    values = np.asarray(values)
    if values.ndim < 2:
        raise ModeError(f"unfolding needs at least two axes, got {values.ndim}")
    mode = check_mode(mode, values.ndim)
    rest = tuple(j for j in range(values.ndim) if j != mode)
    return np.transpose(values, (mode, *rest[::-1]))


def combined_weights(weight_vectors) -> np.ndarray:
    """Flatten per-mode weight vectors into one colexicographic vector.

    Entry order matches the columns ``matricize`` gives the same modes:
    the first vector's index runs fastest.
    """
    vecs = [np.asarray(w, dtype=float) for w in weight_vectors]
    grid = reduce(np.multiply.outer, vecs)
    return np.ravel(grid, order="F")


def mode_product(values: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract one tensor mode with the columns of a matrix.

    Result mode ``mode`` has size ``matrix.shape[0]``; other modes keep
    their order and sizes.
    """
    values = np.asarray(values)
    mode = check_mode(mode, values.ndim)
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != values.shape[mode]:
        raise ModeError(
            f"matrix shape {matrix.shape} does not contract mode {mode} "
            f"of size {values.shape[mode]}"
        )
    return _mode_product(values, matrix, mode)


def _mode_product(values: np.ndarray, matrix: np.ndarray, mode: int, out=None) -> np.ndarray:
    """``mode_product`` without its checks, written into ``out`` if given,
    a C-contiguous array of the result's shape."""
    # one matmul over values as (rows, n, cols), which leaves the axes in place
    shape, m = values.shape, matrix.shape[0]
    rows, n, cols = prod(shape[:mode]), shape[mode], prod(shape[mode + 1 :])
    if cols == 1:
        a, b, flat = values.reshape(rows, n), matrix.T, (rows, m)
    else:
        a, b, flat = matrix, values.reshape(rows, n, cols), (rows, m, cols)
    res = np.matmul(a, b, out=None if out is None else out.reshape(flat))
    return res.reshape(*shape[:mode], m, *shape[mode + 1 :])
