"""Built-in catalog of vector fields and scalar test maps, addressed by
string labels from CLI configs.

A field is an evaluator at one point of its box domain, plus ``rows``, its
values at the rows of a (k, n) array with the evaluator's bits, row for
row; a map is ``rows`` alone.  The row forms are elementwise (``np.abs``,
``+``) or copies (a constant row repeated, ``|x1|`` written into zeros);
``linear_field`` takes one gemv per row, as ``a @ x`` does, and
``square1d`` keeps Python's ``float ** 2``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flows import Box, VectorField

_HALF_WIDTH = 10.0


def _box(n: int) -> Box:
    return Box(-_HALF_WIDTH * np.ones(n), _HALF_WIDTH * np.ones(n))


def constant_field(value) -> VectorField:
    c = np.array(value, dtype=float)
    c.setflags(write=False)  # every call hands out this one array
    row = c.reshape(1, -1)
    return VectorField(lambda x, c=c: c, _box(c.size),
                       rows=lambda X, row=row: row.repeat(len(X), axis=0))


def linear_field(matrix) -> VectorField:
    a = np.asarray(matrix, dtype=float)
    # X @ a.T and einsum round differently from a @ x; a stacked matmul
    # with a trailing unit axis is one gemv per row
    return VectorField(lambda x, a=a: a @ x, _box(a.shape[0]),
                       rows=lambda X, a=a: np.matmul(
                           a[None], X[:, :, None])[:, :, 0])


def unit_x_field() -> VectorField:
    """f(x1, x2) = (1, 0)."""
    return constant_field([1.0, 0.0])


def _abs_shear_rows(X) -> np.ndarray:
    out = np.zeros((len(X), 2))
    out[:, 1] = np.abs(X[:, 0])
    return out


def abs_shear_field() -> VectorField:
    """g(x1, x2) = (0, |x1|)."""
    return VectorField(lambda x: np.array([0.0, abs(x[0])]), _box(2),
                       rows=_abs_shear_rows)


def abs_1d_field() -> VectorField:
    """f(x) = |x| on the line."""
    return VectorField(lambda x: np.array([abs(x[0])]), _box(1),
                       rows=lambda X: np.abs(X[:, :1]))


def make_field(label: str, params: dict | None = None) -> VectorField:
    params = params or {}
    if label == "constant":
        return constant_field(params["value"])
    if label == "linear":
        return linear_field(params["matrix"])
    if label == "unit_x":
        return unit_x_field()
    if label == "abs_shear":
        return abs_shear_field()
    if label == "abs1d":
        return abs_1d_field()
    raise KeyError(f"unknown field label {label!r}")


# scalar/vector test maps for the open-mapping probe and certificate checks

@dataclass(frozen=True, slots=True)
class CatalogMap:
    """A catalog map, defined by ``rows``; a call at one point is a one-row
    call.  Slotted, so a ``functools.wraps`` wrapper copies no ``rows`` and
    stays a pointwise map."""

    rows: Callable

    def __call__(self, x):
        return self.rows(np.asarray(x, dtype=float).reshape(1, -1))[0]


def _squares(X) -> np.ndarray:
    # float ** 2 is libm's pow, which is not x * x in about one value in
    # a thousand, so the row form keeps the pointwise operation
    return np.array([v ** 2 for v in X[:, 0].tolist()]).reshape(-1, 1)


def make_map(label: str, params: dict | None = None) -> CatalogMap:
    params = params or {}
    if label == "fold_sum":
        # F(x1, x2) = x1 + |x2|
        return CatalogMap(lambda X: (X[:, 0] + np.abs(X[:, 1]))[:, None])
    if label == "identity":
        n = int(params.get("dimension", 1))
        return CatalogMap(lambda X: np.array(X, float).reshape(len(X), n))
    if label == "abs1d":
        return CatalogMap(lambda X: np.abs(X[:, :1]))
    if label == "square1d":
        return CatalogMap(_squares)
    raise KeyError(f"unknown map label {label!r}")
