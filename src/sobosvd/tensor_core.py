"""Dense tensor reshaping and mode products.

Flattening convention everywhere: colexicographic, first listed dimension
fastest (column-major). Matricization groups a subset of modes into rows
and the complement into columns, both in ascending mode order.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .errors import ModeError


def check_mode(mode: int, ndim: int) -> int:
    mode = int(mode)
    if not 0 <= mode < ndim:
        raise ModeError(f"mode {mode} out of range for {ndim} axes")
    return mode


def _validate_modes(modes: Sequence[int], ndim: int) -> tuple[int, ...]:
    out = tuple(check_mode(m, ndim) for m in modes)
    if len(out) == 0:
        raise ModeError("mode subset must not be empty")
    if len(set(out)) != len(out):
        raise ModeError(f"duplicate modes in {out}")
    return tuple(sorted(out))


@dataclass(frozen=True)
class MatShape:
    """Bookkeeping for one matricization, enough to invert it.

    row_modes and col_modes partition range(ndim), each ascending.
    """

    row_modes: tuple[int, ...]
    col_modes: tuple[int, ...]
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.row_modes) + len(self.col_modes)

    @property
    def full_shape(self) -> tuple[int, ...]:
        shape = [0] * self.ndim
        for m, s in zip(self.row_modes, self.row_dims):
            shape[m] = s
        for m, s in zip(self.col_modes, self.col_dims):
            shape[m] = s
        return tuple(shape)

    @property
    def matrix_shape(self) -> tuple[int, int]:
        return (prod(self.row_dims), prod(self.col_dims))


def matricize(values: np.ndarray, row_modes: Sequence[int]):
    """Unfold a tensor into a matrix over a subset of modes.

    Row index runs colexicographically over ``row_modes`` (ascending),
    column index over the remaining modes (ascending). The subset must be
    proper: at least one mode on each side.

    Returns
    -------
    (matrix, mat_shape) : (ndarray, MatShape)
    """
    values = np.asarray(values)
    d = values.ndim
    rm = _validate_modes(row_modes, d)
    cm = tuple(j for j in range(d) if j not in rm)
    if not cm:
        raise ModeError("row modes must be a proper subset, columns would be empty")
    perm = rm + cm
    row_dims = tuple(values.shape[j] for j in rm)
    col_dims = tuple(values.shape[j] for j in cm)
    mat = np.transpose(values, perm).reshape((prod(row_dims), prod(col_dims)), order="F")
    return mat, MatShape(rm, cm, row_dims, col_dims)


def dematricize(matrix: np.ndarray, ms: MatShape) -> np.ndarray:
    """Invert :func:`matricize` using its MatShape record."""
    matrix = np.asarray(matrix)
    if matrix.shape != ms.matrix_shape:
        raise ModeError(f"matrix shape {matrix.shape} != expected {ms.matrix_shape}")
    perm = ms.row_modes + ms.col_modes
    cube = matrix.reshape(ms.row_dims + ms.col_dims, order="F")
    return np.transpose(cube, np.argsort(perm))


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
    out = np.tensordot(matrix, values, axes=(1, mode))
    return np.moveaxis(out, 0, mode)
