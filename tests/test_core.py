"""Unit tests for the geometric primitives, with independent brute-force
oracles for hull distance and hull vertex enumeration."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff.core import (
    DimensionMismatchError,
    GammaSet,
    LinearMap,
    Modulus,
    OperatorSet,
    convex_hull_points,
    dist_to_operator_set,
    InexactHausdorffError,
    NonFiniteValueError,
    _directed_hausdorff,
    ball_samples,
    evaluate_rows,
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
        with pytest.raises(NonFiniteValueError):
            LinearMap([[np.nan]])

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

    def test_hull_against_point_list_refused(self):
        # the true distance from hull{-1, 1} to {-1, 1} is 1.0 (at 0), but
        # the generators of the hull are both at distance 0
        hull = OperatorSet.from_matrices([[[-1.0]], [[1.0]]],
                                         convex_closure=True)
        points = OperatorSet.from_matrices([[[-1.0]], [[1.0]]])
        for a, b in ((hull, points), (points, hull)):
            with pytest.raises(InexactHausdorffError):
                hausdorff_distance(a, b)
        assert issubclass(InexactHausdorffError, ValueError)

    def test_exact_representations_unchanged(self):
        hull = OperatorSet.from_matrices([[[-1.0]], [[1.0]]],
                                         convex_closure=True)
        points = OperatorSet.from_matrices([[[-1.0]], [[0.5]], [[3.0]]])
        other = OperatorSet.from_matrices([[[-0.5]], [[2.0]]],
                                          convex_closure=True)
        # list to hull: each list point's distance to the segment
        assert _directed_hausdorff(points, hull) == pytest.approx(2.0)
        assert hausdorff_distance(hull, other) == pytest.approx(1.0)
        assert hausdorff_distance(points, points) == 0.0
        single = OperatorSet.from_matrices([[[2.0]]])
        assert hausdorff_distance(hull, single) == pytest.approx(3.0)
        assert hausdorff_distance(single, hull) == pytest.approx(3.0)


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


def evaluate_loop(F, points, name):
    """Oracle: one call per point, each value tested as it arrives."""
    rows = []
    for x in np.asarray(points, dtype=float):
        y = np.atleast_1d(np.asarray(F(x), dtype=float))
        if not np.all(np.isfinite(y)):
            raise NonFiniteValueError(name, point=x)
        rows.append(y)
    return np.array(rows)


def ball_loop(rng, center, radius, count):
    """Oracle: the full-space ball draw of the sampling layer, written out:
    normalised Gaussian directions, then radii radius * U^(1/n)."""
    n = center.size
    pts = rng.normal(size=(count, n))
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
    return center + pts * radii


class TestSamplingPrimitives:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(1, 12), n=st.integers(1, 3),
           m=st.integers(1, 3))
    def test_evaluate_rows_matches_loop(self, data, k, n, m):
        finite = st.floats(-1e3, 1e3, allow_nan=False)
        pts = np.array(data.draw(st.lists(finite, min_size=k * n,
                                          max_size=k * n))).reshape(k, n)
        mat = np.array(data.draw(st.lists(finite, min_size=m * n,
                                          max_size=m * n))).reshape(m, n)
        bad = data.draw(st.sets(st.integers(0, k - 1), max_size=3))
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        calls = []

        def F(x):
            calls.append(x.copy())
            y = np.sin(mat @ x)
            if any(np.array_equal(x, pts[i]) for i in bad):
                y[-1] = value
            return y

        first_bad = min((i for i in range(k)
                         if any(np.array_equal(pts[i], pts[j]) for j in bad)),
                        default=None)
        if first_bad is None:
            got = evaluate_rows(F, pts, "F")
            assert got.shape == (k, m)
            assert got.tobytes() == evaluate_loop(F, pts, "F").tobytes()
            assert np.array_equal(np.array(calls[:k]), pts)
        else:
            with pytest.raises(NonFiniteValueError) as got:
                evaluate_rows(F, pts, "F")
            with pytest.raises(NonFiniteValueError) as want:
                evaluate_loop(F, pts, "F")
            assert np.array_equal(got.value.point, pts[first_bad])
            assert np.array_equal(got.value.point, want.value.point)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_huge_finite_value_passes(self):
        got = evaluate_rows(lambda x: [1e300, 1e300], np.zeros((2, 1)), "F")
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(got[0]) == np.inf

    def test_scalar_rows_and_empty_input(self):
        seen = []
        got = evaluate_rows(lambda t: seen.append(t) or 2.0 * t,
                            np.array([0.5, -1.0]), "f")
        assert [type(t) for t in seen] == [float, float]
        assert got.tolist() == [[1.0], [-2.0]]
        assert evaluate_rows(lambda x: seen.append(x), np.zeros((0, 2)),
                             "F").shape == (0, 0)
        assert len(seen) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ball_samples_match_the_full_draw(self, n):
        center = np.linspace(-0.5, 0.5, n)
        got = ball_samples(np.random.default_rng(n), center, 0.3, 50)
        want = ball_loop(np.random.default_rng(n), center, 0.3, 50)
        assert got.tobytes() == want.tobytes()
        full = GammaSet.full_space(n).sample(np.random.default_rng(n),
                                             center, 0.3, 50)
        assert full[:50].tobytes() == want.tobytes()


class TestModulus:
    def test_from_samples_interpolates(self):
        m = Modulus.from_samples([(0.1, 0.1), (1.0, 1.0)])
        assert m(0.55) == pytest.approx(0.55)
        assert m(0.05) == pytest.approx(0.05)  # linear below the range
        assert m(2.0) == pytest.approx(1.0)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Modulus(lambda d: 1.0 - d, grid=[0.1, 0.9])
