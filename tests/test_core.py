"""Unit tests for the geometric primitives, with independent brute-force
oracles for hull distance and hull vertex enumeration."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from quasidiff.core import (
    DimensionMismatchError,
    GammaSet,
    LinearMap,
    Modulus,
    OperatorSet,
    convex_hull_points,
    dist_to_operator_set,
    hausdorff_distance,
    hull_membership_residual,
)


def zoom_grid_hull_distance(vertices, target, rounds=40, grid=11):
    """Oracle: distance from target to hull(vertices) by iteratively zoomed
    grid search over simplex coefficients (independent of the solver)."""
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    k = vertices.shape[0]
    target = np.asarray(target, dtype=float)
    center = np.full(k, 1.0 / k)
    width = 1.0
    best = np.inf
    for _ in range(rounds):
        axes = [np.linspace(max(0.0, c - width), min(1.0, c + width), grid)
                for c in center]
        pts = np.array(list(itertools.product(*axes)))
        sums = pts.sum(axis=1)
        pts = pts[sums > 1e-9] / sums[sums > 1e-9, None]
        dists = np.linalg.norm(pts @ vertices - target, axis=1)
        i = int(np.argmin(dists))
        if dists[i] < best:
            best = float(dists[i])
            center = pts[i]
        width *= 0.55
    return best


def orientation_hull_2d(points):
    """Oracle: O(n^3) hull vertex finder by edge orientation tests."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    verts = []
    for i, p in enumerate(pts):
        extreme = False
        for j, q in enumerate(pts):
            if i == j:
                continue
            side = None
            good = True
            for k, r in enumerate(pts):
                if k in (i, j):
                    continue
                u, v = q - p, r - p
                cross = u[0] * v[1] - u[1] * v[0]
                if abs(cross) <= 1e-12:
                    if np.dot(r - p, r - q) < -1e-12:
                        good = False  # r strictly between p and q
                        break
                    continue
                s = np.sign(cross)
                if side is None:
                    side = s
                elif s != side:
                    good = False
                    break
            if good:
                extreme = True
                break
        if extreme:
            verts.append(p)
    return np.array(verts)


class TestLinearMap:
    def test_shapes_and_apply(self):
        L = LinearMap([[1.0, 2.0], [3.0, 4.0]])
        assert L.rows == 2 and L.cols == 2
        assert np.allclose(L.apply([1.0, 1.0]), [3.0, 7.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LinearMap([[np.inf]])

    def test_immutable(self):
        L = LinearMap([[1.0]])
        with pytest.raises(ValueError):
            L.entries[0, 0] = 2.0

    def test_frobenius_distance_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LinearMap([[1.0]]).frobenius_distance(LinearMap([[1.0, 0.0]]))


class TestOperatorSet:
    def test_canonicalized_is_order_invariant(self):
        a = OperatorSet.from_matrices([[[1.0]], [[-1.0]], [[0.5]]])
        b = OperatorSet.from_matrices([[[0.5]], [[1.0]], [[-1.0]]])
        assert np.array_equal(a.canonicalized().flat_generators(),
                              b.canonicalized().flat_generators())

    def test_distance_generator_list(self):
        s = OperatorSet.from_matrices([[[0.0]], [[2.0]]])
        assert dist_to_operator_set(LinearMap([[0.9]]), s) == pytest.approx(0.9)

    def test_distance_hull_interior_point(self):
        s = OperatorSet.from_matrices([[[-1.0]], [[1.0]]], convex_closure=True)
        assert dist_to_operator_set(LinearMap([[0.3]]), s) == 0.0

    def test_distance_hull_matches_zoom_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            verts = rng.normal(size=(rng.integers(2, 5), 3))
            target = rng.normal(size=3)
            s = OperatorSet.from_matrices(
                [v.reshape(1, 3) for v in verts], convex_closure=True)
            got = dist_to_operator_set(LinearMap(target.reshape(1, 3)), s)
            want = zoom_grid_hull_distance(verts, target)
            assert got == pytest.approx(want, abs=1e-6)

    def test_hull_membership_residual(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert hull_membership_residual(np.array([0.2, 0.2]), verts) == 0.0
        assert hull_membership_residual(np.array([1.0, 1.0]), verts) \
            == pytest.approx(np.sqrt(2) / 2)


class TestHausdorff:
    def test_identical_sets(self):
        s = OperatorSet.from_matrices([[[-1.0]], [[1.0]]], convex_closure=True)
        assert hausdorff_distance(s, s) == 0.0

    def test_segment_vs_subsegment(self):
        a = OperatorSet.from_matrices([[[-1.0]], [[1.0]]], convex_closure=True)
        b = OperatorSet.from_matrices([[[-0.5]], [[1.0]]], convex_closure=True)
        assert hausdorff_distance(a, b) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        a = OperatorSet.from_matrices([[[1.0]]])
        b = OperatorSet.from_matrices([[[1.0, 0.0]]])
        with pytest.raises(DimensionMismatchError):
            hausdorff_distance(a, b)


class TestConvexHullPoints:
    def test_matches_orientation_oracle_2d(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.normal(size=(12, 2))
            got = convex_hull_points(pts)
            want = orientation_hull_2d(pts)
            got_s = sorted(map(tuple, np.round(got, 9)))
            want_s = sorted(map(tuple, np.round(want, 9)))
            assert got_s == want_s

    def test_collinear_input(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [2.0, 2.0]])
        verts = convex_hull_points(pts)
        assert sorted(map(tuple, verts)) == [(0.0, 0.0), (2.0, 2.0)]

    def test_single_point(self):
        assert convex_hull_points([[1.0, 2.0]]).shape == (1, 2)


class TestGammaSet:
    def test_full_1d_sample_contains_endpoints(self):
        g = GammaSet.full_space(1)
        rng = np.random.default_rng(0)
        pts = g.sample(rng, np.zeros(1), 0.5, 50).ravel()
        assert np.any(np.isclose(pts, 0.5))
        assert np.any(np.isclose(pts, -0.5))

    def test_halfline_samples_on_ray(self):
        g = GammaSet.half_line([1.0, 1.0])
        rng = np.random.default_rng(0)
        pts = g.sample(rng, np.zeros(2), 1.0, 30)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)
        for p in pts:
            assert g.contains(p)

    def test_box_wider_than_ball_gives_full_sample(self):
        g = GammaSet.box([-1.0, -1.0], [1.0, 0.0])
        rng = np.random.default_rng(0)
        pts = g.sample(rng, np.zeros(2), 0.1, 40)
        assert pts.shape == (40, 2)
        assert np.all(np.linalg.norm(pts, axis=1) <= 0.1)
        assert all(g.contains(p, tol=0.0) for p in pts)

    def test_box_missing_ball_gives_no_sample(self):
        rng = np.random.default_rng(0)
        # disjoint from the cube around the ball
        assert GammaSet.box([5.0], [6.0]).sample(
            rng, np.zeros(1), 0.1, 10).shape == (0, 1)
        # meets the cube only in a corner outside the ball: every bounded
        # redraw comes back empty
        assert GammaSet.box([0.08, 0.08], [1.0, 1.0]).sample(
            rng, np.zeros(2), 0.1, 10).shape == (0, 2)

    def test_cone_contains(self):
        g = GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0]])
        assert g.contains([0.5, 0.25])
        assert not g.contains([-0.5, 0.25])


class TestModulus:
    def test_from_samples_interpolates(self):
        m = Modulus.from_samples([(0.1, 0.1), (1.0, 1.0)])
        assert m(0.55) == pytest.approx(0.55)
        assert m(0.05) == pytest.approx(0.05)  # linear below the range
        assert m(2.0) == pytest.approx(1.0)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Modulus(lambda d: 1.0 - d, grid=[0.1, 0.9])
