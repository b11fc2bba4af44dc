"""Built-in catalog of vector fields and scalar test maps, addressed by
string labels from CLI configs."""
from __future__ import annotations

import numpy as np

from .flows import Box, VectorField

_HALF_WIDTH = 10.0


def _box(n: int) -> Box:
    return Box(-_HALF_WIDTH * np.ones(n), _HALF_WIDTH * np.ones(n))


def constant_field(value) -> VectorField:
    c = np.asarray(value, dtype=float)
    return VectorField(c.size, lambda x, c=c: c, _box(c.size), 1e-9,
                       label="constant")


def linear_field(matrix) -> VectorField:
    a = np.asarray(matrix, dtype=float)
    lip = float(np.linalg.norm(a, 2))
    return VectorField(a.shape[0], lambda x, a=a: a @ x, _box(a.shape[0]),
                       max(lip, 1e-9), label="linear")


def unit_x_field() -> VectorField:
    """f(x1, x2) = (1, 0)."""
    return VectorField(2, lambda x: np.array([1.0, 0.0]), _box(2), 1e-9,
                       label="unit_x")


def abs_shear_field() -> VectorField:
    """g(x1, x2) = (0, |x1|)."""
    return VectorField(2, lambda x: np.array([0.0, abs(x[0])]), _box(2), 1.0,
                       label="abs_shear")


def abs_1d_field() -> VectorField:
    """f(x) = |x| on the line."""
    return VectorField(1, lambda x: np.array([abs(x[0])]), _box(1), 1.0,
                       label="abs1d")


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

def make_map(label: str, params: dict | None = None):
    params = params or {}
    if label == "fold_sum":
        # F(x1, x2) = x1 + |x2|
        return lambda x: np.array([x[0] + abs(x[1])])
    if label == "identity":
        n = int(params.get("dimension", 1))
        return lambda x: np.asarray(x, dtype=float).reshape(n)
    if label == "abs1d":
        return lambda x: np.array([abs(np.asarray(x).reshape(-1)[0])])
    if label == "square1d":
        return lambda x: np.array([float(np.asarray(x).reshape(-1)[0]) ** 2])
    raise KeyError(f"unknown map label {label!r}")
