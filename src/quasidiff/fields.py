"""Built-in catalog of vector fields and scalar test maps, addressed by
string labels from CLI configs.

Every catalog entry also carries ``rows``, its values at the rows of a
(k, n) array with the bits of the pointwise function, row for row: the
row forms are elementwise (``np.abs``, ``+``, ``np.tile``, a negation),
``linear_field`` takes one gemv per row, as ``a @ x`` does, and
``square1d`` keeps its pointwise ``float ** 2``.
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
    c = np.asarray(value, dtype=float)
    return VectorField(c.size, lambda x, c=c: c, _box(c.size), 1e-9,
                       label="constant",
                       rows=lambda X, c=c: np.tile(c.reshape(1, -1),
                                                   (len(X), 1)))


def linear_field(matrix) -> VectorField:
    a = np.asarray(matrix, dtype=float)
    lip = float(np.linalg.norm(a, 2))
    # X @ a.T and einsum round differently from a @ x; a stacked matmul
    # with a trailing unit axis is one gemv per row
    return VectorField(a.shape[0], lambda x, a=a: a @ x, _box(a.shape[0]),
                       max(lip, 1e-9), label="linear",
                       rows=lambda X, a=a: np.matmul(
                           a[None], X[:, :, None])[:, :, 0])


def unit_x_field() -> VectorField:
    """f(x1, x2) = (1, 0)."""
    return VectorField(2, lambda x: np.array([1.0, 0.0]), _box(2), 1e-9,
                       label="unit_x",
                       rows=lambda X: np.tile([1.0, 0.0], (len(X), 1)))


def abs_shear_field() -> VectorField:
    """g(x1, x2) = (0, |x1|)."""
    return VectorField(2, lambda x: np.array([0.0, abs(x[0])]), _box(2), 1.0,
                       label="abs_shear",
                       rows=lambda X: np.column_stack(
                           [np.zeros(len(X)), np.abs(X[:, 0])]))


def abs_1d_field() -> VectorField:
    """f(x) = |x| on the line."""
    return VectorField(1, lambda x: np.array([abs(x[0])]), _box(1), 1.0,
                       label="abs1d", rows=lambda X: np.abs(X[:, :1]))


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
    """A catalog map: ``fn`` at one point, ``rows`` at the rows of a (k, n)
    array.  Slotted, so a ``functools.wraps`` wrapper copies no ``rows``
    and stays a pointwise map."""

    fn: Callable
    rows: Callable

    def __call__(self, x):
        return self.fn(x)


def _squares(X) -> np.ndarray:
    # float ** 2 is libm's pow, which is not x * x in about one value in
    # a thousand, so the row form keeps the pointwise operation
    return np.array([v ** 2 for v in X[:, 0].tolist()]).reshape(-1, 1)


def make_map(label: str, params: dict | None = None) -> CatalogMap:
    params = params or {}
    if label == "fold_sum":
        # F(x1, x2) = x1 + |x2|
        return CatalogMap(lambda x: np.array([x[0] + abs(x[1])]),
                          lambda X: (X[:, 0] + np.abs(X[:, 1]))[:, None])
    if label == "identity":
        n = int(params.get("dimension", 1))
        return CatalogMap(lambda x: np.asarray(x, dtype=float).reshape(n),
                          lambda X: np.array(X, dtype=float)
                          .reshape(len(X), n))
    if label == "abs1d":
        return CatalogMap(
            lambda x: np.array([abs(np.asarray(x).reshape(-1)[0])]),
            lambda X: np.abs(X[:, :1]))
    if label == "square1d":
        return CatalogMap(
            lambda x: np.array([float(np.asarray(x).reshape(-1)[0]) ** 2]),
            _squares)
    raise KeyError(f"unknown map label {label!r}")
