"""Curated set-pair fixtures for corroborating separation verdicts.

Each fixture bundles two concrete sets around a base point z with the
approximating cones of each set and samplers that cover the sets' traces.
Samplers mix structured grids (boundaries, axes, known loci) with random
fill so that exact set intersections appear among the sampled points.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cones import conic_hull
from .separation import MultiCone


@dataclass(frozen=True)
class SeparationFixture:
    name: str
    z: np.ndarray
    k1: MultiCone
    k2: MultiCone
    sampler1: Callable
    sampler2: Callable
    radius: float
    note: str
    # optional per-scale generating family backing a z-ignoring flag
    z_ignoring_family: Callable | None = None


def _lines(*dirs) -> list:
    out = []
    for d in dirs:
        out.append(np.asarray(d, dtype=float))
        out.append(-np.asarray(d, dtype=float))
    return out


def _mc(gens, dim, z_ignoring=False) -> MultiCone:
    return MultiCone((conic_hull(gens, dim),), z_ignoring=z_ignoring)


def _axis_grid(r: float, count: int) -> np.ndarray:
    """Symmetric grid on [-r, r] that contains 0 and +-r exactly."""
    half = np.linspace(0.0, r, max(count // 2, 2))
    return np.concatenate([-half[:0:-1], half])


def _line_sampler(direction):
    d = np.asarray(direction, dtype=float)

    def sampler(rng, z, radius, count):
        ts = _axis_grid(radius, count)
        return z + np.outer(ts, d)
    return sampler


def _ray_sampler(direction):
    d = np.asarray(direction, dtype=float)

    def sampler(rng, z, radius, count):
        ts = np.linspace(0.0, radius, max(count, 2))
        return z + np.outer(ts, d)
    return sampler


def _half_plane_sampler(sign: float):
    """Closed half-plane sign*y >= 0 in R^2: boundary grid, vertical-axis
    grid, and random interior fill."""

    def sampler(rng, z, radius, count):
        xs = _axis_grid(radius, count)
        boundary = z + np.column_stack([xs, np.zeros_like(xs)])
        ys = np.linspace(0.0, radius, max(count // 2, 2))
        axis = z + np.column_stack([np.zeros_like(ys), sign * ys])
        interior = rng.uniform(-radius, radius, size=(count, 2))
        interior[:, 1] = sign * np.abs(interior[:, 1])
        return np.vstack([boundary, axis, z + interior])
    return sampler


def _graph_sampler(g):
    """The graph of the scalar function g over the axis grid."""

    def sampler(rng, z, radius, count):
        ts = _axis_grid(radius, count)
        return z + np.column_stack([ts, g(ts)])
    return sampler


def _accumulating_lines_sampler():
    """x-axis plus the horizontal lines y = 2^-k, k = 3 ... 20."""

    def sampler(rng, z, radius, count):
        xs = _axis_grid(radius, count)
        rows = [z + np.column_stack([xs, np.zeros_like(xs)])]
        for k in range(3, 21):
            y = 2.0 ** (-k)
            if y <= radius:
                rows.append(z + np.column_stack([xs, np.full_like(xs, y)]))
        return np.vstack(rows)
    return sampler


def _y_axis_with_dyadics_sampler():
    """y-axis grid plus the points (0, 2^-k), k = 3 ... 20."""
    def sampler(rng, z, radius, count):
        ys = _axis_grid(radius, count)
        pts = [np.column_stack([np.zeros_like(ys), ys])]
        dy = np.array([2.0 ** (-k) for k in range(3, 21)])
        dy = dy[dy <= radius]
        pts.append(np.column_stack([np.zeros_like(dy), dy]))
        return z + np.vstack(pts)
    return sampler


def _half_space_3d_sampler():
    """Closed half-space x3 >= 0 in R^3 with the +z-axis grid included."""

    def sampler(rng, z, radius, count):
        ts = np.linspace(0.0, radius, max(count // 2, 2))
        axis = z + np.column_stack([np.zeros_like(ts), np.zeros_like(ts), ts])
        interior = rng.uniform(-radius, radius, size=(count, 3))
        interior[:, 2] = np.abs(interior[:, 2])
        return np.vstack([axis, z + interior])
    return sampler


def _coordinate_plane_3d_sampler(axes: tuple):
    """Coordinate plane spanned by the two given axes, with each spanning
    axis grid included exactly."""

    def sampler(rng, z, radius, count):
        ts = _axis_grid(radius, count)
        rows = []
        for ax in axes:
            pts = np.zeros((ts.size, 3))
            pts[:, ax] = ts
            rows.append(z + pts)
        fill = np.zeros((count, 3))
        fill[:, axes[0]] = rng.uniform(-radius, radius, size=count)
        fill[:, axes[1]] = rng.uniform(-radius, radius, size=count)
        rows.append(z + fill)
        return np.vstack(rows)
    return sampler


def _cone_region_sampler():
    """The region y >= |x| in R^2, including its edges and the +y-axis."""

    def sampler(rng, z, radius, count):
        ts = np.linspace(0.0, radius, max(count // 2, 2))
        axis = z + np.column_stack([np.zeros_like(ts), ts])
        edge_r = z + np.column_stack([ts / np.sqrt(2.0), ts / np.sqrt(2.0)])
        edge_l = z + np.column_stack([-ts / np.sqrt(2.0), ts / np.sqrt(2.0)])
        interior = rng.uniform(-radius, radius, size=(count, 2))
        interior[:, 1] = np.abs(interior[:, 0]) \
            + np.abs(interior[:, 1]) * 0.5
        return np.vstack([axis, edge_r, edge_l, z + interior])
    return sampler


def _accumulating_family(delta):
    """Continuous selection into the accumulating-lines set that avoids the
    origin: height is the largest dyadic below delta^2."""
    k = max(3, int(np.ceil(-np.log2(max(delta * delta, 1e-300)))))
    y = 2.0 ** (-k)

    def g(t):
        t = float(np.atleast_1d(t)[0])
        return np.array([t, y])
    return g


def builtin_fixtures() -> list:
    z2 = np.zeros(2)
    z3 = np.zeros(3)
    fixtures = [
        SeparationFixture(
            "axes", z2,
            _mc(_lines([1, 0]), 2), _mc(_lines([0, 1]), 2),
            _line_sampler([1, 0]), _line_sampler([0, 1]), 1.0,
            "two transversal lines; merely transversal, no verdict fires"),
        SeparationFixture(
            "half_plane_vs_ray", z2,
            _mc([[1, 0], [-1, 0], [0, 1]], 2), _mc([[0, 1]], 2),
            _half_plane_sampler(+1.0), _ray_sampler([0, 1]), 1.0,
            "strongly transversal; common points on the positive y-axis"),
        SeparationFixture(
            "half_planes", z2,
            _mc([[1, 0], [-1, 0], [0, 1]], 2),
            _mc([[1, 0], [-1, 0], [0, -1]], 2),
            _half_plane_sampler(+1.0), _half_plane_sampler(-1.0), 1.0,
            "cones are linearly separable, so no verdict fires even though "
            "the sets share their boundary line (the theorem has no "
            "converse)"),
        SeparationFixture(
            "half_space_vs_line", z3,
            _mc(_lines([1, 0, 0], [0, 1, 0]) + [np.array([0.0, 0.0, 1.0])], 3),
            _mc(_lines([0, 0, 1]), 3),
            _half_space_3d_sampler(), _line_sampler([0, 0, 1]), 1.0,
            "strongly transversal; common points on the positive z-axis"),
        SeparationFixture(
            "parabola_vs_axis", z2,
            _mc(_lines([1, 0]), 2), _mc(_lines([1, 0]), 2),
            _graph_sampler(lambda t: t * t), _line_sampler([1, 0]), 1.0,
            "tangential contact; cones coincide, nothing fires"),
        SeparationFixture(
            "opposite_rays", z2,
            _mc([[1, 0]], 2), _mc([[-1, 0]], 2),
            _ray_sampler([1, 0]), _ray_sampler([-1, 0]), 1.0,
            "difference cone is a half-line; not transversal"),
        SeparationFixture(
            "accumulating_lines", z2,
            _mc(_lines([1, 0]), 2, z_ignoring=True), _mc(_lines([0, 1]), 2),
            _accumulating_lines_sampler(), _y_axis_with_dyadics_sampler(), 1.0,
            "transversal with a base-point-avoiding generator; fires via "
            "the z-ignoring branch",
            z_ignoring_family=_accumulating_family),
        SeparationFixture(
            "cone_vs_vertical_line", z2,
            _mc([[1, 1], [-1, 1]], 2), _mc(_lines([0, 1]), 2),
            _cone_region_sampler(), _line_sampler([0, 1]), 1.0,
            "strongly transversal; line enters the cone interior"),
        SeparationFixture(
            "abs_graph_vs_vertical_line", z2,
            MultiCone((conic_hull(_lines([1, 1]), 2),
                       conic_hull(_lines([1, -1]), 2))),
            _mc(_lines([0, 1]), 2),
            _graph_sampler(np.abs), _line_sampler([0, 1]), 1.0,
            "multi-cone of the two one-sided tangent lines; only merely "
            "transversal, no verdict"),
        SeparationFixture(
            "planes_3d", z3,
            _mc(_lines([1, 0, 0], [0, 1, 0]), 3),
            _mc(_lines([0, 1, 0], [0, 0, 1]), 3),
            _coordinate_plane_3d_sampler((0, 1)),
            _coordinate_plane_3d_sampler((1, 2)), 1.0,
            "strongly transversal planes sharing the y-axis"),
    ]
    return fixtures


def fixture_by_name(name: str) -> SeparationFixture:
    for f in builtin_fixtures():
        if f.name == name:
            return f
    raise KeyError(f"unknown separation fixture {name!r}")
