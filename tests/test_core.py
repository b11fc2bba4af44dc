"""Unit tests for the geometric primitives, with independent brute-force
oracles for hull distance and hull vertex enumeration."""
from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasidiff import core
from quasidiff.core import (
    DimensionMismatchError,
    GammaSet,
    LinearMap,
    OperatorSet,
    convex_hull_points,
    dist_to_operator_set,
    InexactHausdorffError,
    NonFiniteValueError,
    _directed_hausdorff,
    as_matrix,
    ball_samples,
    distances_to_operator_set,
    evaluate_rows,
    hausdorff_distance,
    hull_membership_residual,
    in_conic_hull,
)

# a hull distance for a point inside the hull is rounding error of the
# vertex magnitude, at every scale
INTERIOR_TOL = 1e-14
SCALES = st.sampled_from([1e-8, 1.0, 1e8])


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
        L = np.asarray(LinearMap([[1.0, 2.0], [3.0, 4.0]]))
        assert L.shape == (2, 2)
        assert np.allclose(L @ [1.0, 1.0], [3.0, 7.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LinearMap([[np.inf]])
        with pytest.raises(NonFiniteValueError):
            LinearMap([[np.nan]])

    def test_immutable(self):
        L = LinearMap([[1.0]])
        with pytest.raises(ValueError):
            L.entries[0, 0] = 2.0

    def test_asarray_reads_the_read_only_entries(self):
        source = np.array([[1.0, 2.0]])
        L = LinearMap(source)
        source[0, 0] = 9.0  # the map keeps its own copy
        view = np.asarray(L)
        assert view.tolist() == [[1.0, 2.0]]
        with pytest.raises(ValueError):
            view[0, 0] = 5.0
        # a copy asked for is a writable copy
        copy = np.array(L)
        copy[0, 0] = 5.0
        assert np.asarray(L)[0, 0] == 1.0


class TestAsMatrix:
    def test_scalar_row_and_matrix(self):
        assert as_matrix(2.0).tolist() == [[2.0]]
        assert as_matrix([1.0, 2.0]).tolist() == [[1.0, 2.0]]
        assert as_matrix(LinearMap([[3.0], [4.0]])).tolist() == [[3.0], [4.0]]

    def test_read_only_copy(self):
        source = np.eye(2)
        m = as_matrix(source)
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        source[0, 0] = 7.0  # the caller's array stays writable and apart
        assert m[0, 0] == 1.0

    @pytest.mark.parametrize("bad", [np.zeros((2, 2, 2)), [], [[]]])
    def test_non_matrix_refused(self, bad):
        with pytest.raises(ValueError, match="m x n matrix"):
            as_matrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(NonFiniteValueError):
            as_matrix([[1.0, bad]])


class TestOperatorSet:
    def test_no_generators_refused(self):
        for make in (OperatorSet, OperatorSet.from_matrices,
                     OperatorSet.from_vectors):
            with pytest.raises(ValueError, match="at least one generator"):
                make([])

    def test_generators_of_different_shapes_refused(self):
        with pytest.raises(DimensionMismatchError):
            OperatorSet.from_matrices([[[1.0]], [[1.0, 2.0]]])
        with pytest.raises(DimensionMismatchError):
            OperatorSet([np.zeros((1, 2)), np.zeros((2, 1))])
        with pytest.raises(DimensionMismatchError):
            OperatorSet.from_vectors([[1.0], [1.0, 2.0]])

    def test_generators_must_be_matrices(self):
        with pytest.raises(ValueError, match="m, n >= 1"):
            OperatorSet(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="m, n >= 1"):
            OperatorSet(np.zeros((2, 0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused(self, bad):
        with pytest.raises(NonFiniteValueError):
            OperatorSet.from_matrices([[[1.0, 0.0]], [[0.0, bad]]])

    def test_generators_are_one_read_only_copy(self):
        source = np.arange(6.0).reshape(3, 1, 2)
        s = OperatorSet(source, convex_closure=True)
        source[0, 0, 0] = 99.0
        assert s.generators.dtype == float and s.generators.shape == (3, 1, 2)
        np.testing.assert_array_equal(s.flat_generators(),
                                      np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError):
            s.generators[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            s.flat_generators()[0, 0] = 1.0

    def test_from_matrices_reads_entries_as_linear_map_does(self):
        mats = [2.0, [3.0], [[4.0]]]
        s = OperatorSet.from_matrices(mats)
        assert s.shape == (1, 1)
        np.testing.assert_array_equal(
            s.generators, [np.asarray(LinearMap(m)) for m in mats])
        rows = OperatorSet.from_matrices([[1.0, 2.0], [3.0, 4.0]])
        assert rows.shape == (1, 2)
        np.testing.assert_array_equal(rows.generators,
                                      [[[1.0, 2.0]], [[3.0, 4.0]]])

    def test_from_vectors_matches_linear_map_from_vector(self):
        vecs = [[1.0, 2.0], [3.0, 4.0]]
        s = OperatorSet.from_vectors(vecs)
        np.testing.assert_array_equal(
            s.generators, [np.reshape(v, (-1, 1)) for v in vecs])

    def test_to_jsonable(self):
        s = OperatorSet.from_matrices([[[1.0, 2.0]], [[3.0, -4.5]]],
                                      convex_closure=True)
        assert s.to_jsonable() == {
            "generators": [[[1.0, 2.0]], [[3.0, -4.5]]],
            "convex_closure": True}
        assert json.dumps(s.to_jsonable()) == \
            '{"generators": [[[1.0, 2.0]], [[3.0, -4.5]]], ' \
            '"convex_closure": true}'
        assert OperatorSet.from_vectors([[1.0, 2.0]]).to_jsonable() == {
            "generators": [[[1.0], [2.0]]], "convex_closure": False}

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
        assert hull_membership_residual(np.array([0.2, 0.2]), verts) \
            <= INTERIOR_TOL * 2.0
        assert hull_membership_residual(np.array([1.0, 1.0]), verts) \
            == pytest.approx(np.sqrt(2) / 2)

    def test_hull_membership_residual_one_dimensional(self):
        # two scalar vertices are a (2, 1) array, not one vertex of R^2
        verts = np.array([[0.0], [1.0]])
        assert hull_membership_residual(np.array([0.5]), verts) \
            <= INTERIOR_TOL * 2.0
        assert hull_membership_residual(np.array([3.0]), verts) \
            == pytest.approx(2.0)

    @pytest.mark.parametrize("point, verts", [
        (np.array(0.5), np.array([0.0, 1.0])),
        (np.array([0.5, 0.5]), np.array([[0.0], [1.0]])),
        (np.array([0.5]), np.array([[0.0, 0.0], [1.0, 0.0]])),
    ])
    def test_hull_membership_residual_shape_mismatch(self, point, verts):
        with pytest.raises(DimensionMismatchError):
            hull_membership_residual(point, verts)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_interior_residual_at_rounding_level(self, scale):
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            verts = scale * rng.normal(size=(d + 1, d))
            point = rng.dirichlet(np.ones(d + 1)) @ verts
            assert hull_membership_residual(point, verts) \
                <= INTERIOR_TOL * (1.0 + np.abs(verts).max())


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


def operator_sets(hull: bool, n: int = 2):
    """Sets of 1 x n maps whose entries are halves in [-2, 2], so that two
    distinct generators lie at least 0.5 apart."""
    entry = st.integers(-4, 4).map(lambda k: k / 2.0)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1,
                    max_size=4).map(lambda gens: OperatorSet.from_matrices(
                        [[g] for g in gens], convex_closure=hull))


class TestHausdorffAxioms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hull=st.booleans(), data=st.data())
    def test_metric_axioms(self, hull, data):
        a, b, c = (data.draw(operator_sets(hull)) for _ in range(3))
        d = hausdorff_distance
        assert d(a, a) == 0.0
        assert d(a, b) >= 0.0
        assert d(a, b) == d(b, a)
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=operator_sets(False), b=operator_sets(False))
    def test_lists_at_zero_exactly_when_equal(self, a, b):
        rows = lambda s: {tuple(g) for g in s.flat_generators()}
        assert (hausdorff_distance(a, b) == 0.0) == (rows(a) == rows(b))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=operator_sets(True), w=st.floats(0.0, 1.0), scale=SCALES)
    # hull{-3e-8, 2e-8} against the same hull with 1e-8 added
    @example(a=OperatorSet.from_matrices([[[-3.0]], [[2.0]]],
                                         convex_closure=True),
             w=0.2, scale=1e-8)
    def test_hull_unchanged_by_an_inner_generator(self, a, w, scale):
        flats = scale * a.flat_generators()
        inner = w * flats[0] + (1.0 - w) * flats[-1]
        a = OperatorSet.from_matrices([[g] for g in flats], convex_closure=True)
        b = OperatorSet.from_matrices([[g] for g in np.vstack([flats, inner])],
                                      convex_closure=True)
        assert hausdorff_distance(a, b) == pytest.approx(0.0, abs=1e-9 * scale)


class TestDistanceProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(1, 4), n=st.integers(1, 3),
           outside=st.booleans(), scale=SCALES)
    def test_hull_distance_matches_zoom_oracle(self, data, k, n, outside,
                                               scale):
        coord = st.floats(-2.0, 2.0, allow_nan=False)
        verts = scale * np.array(data.draw(st.lists(
            coord, min_size=k * n, max_size=k * n))).reshape(k, n)
        w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k,
                                        max_size=k))) + 1e-3
        shift = scale * np.array(data.draw(st.lists(coord, min_size=n,
                                                    max_size=n)))
        target = (w / w.sum()) @ verts + (shift if outside else 0.0)
        s = OperatorSet.from_matrices([v.reshape(1, n) for v in verts],
                                      convex_closure=True)
        got = dist_to_operator_set(LinearMap(target.reshape(1, n)), s)
        assert got == pytest.approx(zoom_grid_hull_distance(verts, target),
                                    abs=1e-6 * scale)


def per_map_distances(maps, lam):
    """Oracle: the hull distance with one NNLS solve per map, in stack
    order, and the 1e-12 snap."""
    flats = lam.flat_generators()
    d = np.array([core._simplex_least_squares(flats.T, t)[1]
                  for t in maps.reshape(len(maps), -1)])
    return np.where(d <= 1e-12, 0.0, d)


def hexes(values):
    return [float(v).hex() for v in values]


def with_zeros_negated(rows):
    """The rows with each 0.0 entry made -0.0 and each -0.0 made 0.0: the
    same maps, in other bytes."""
    return np.where(rows == 0.0, -rows, rows)


class TestDistinctMapSolves:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), shape=st.sampled_from([(1, 1), (1, 2), (2, 2)]),
           k=st.integers(1, 5), scale=SCALES)
    def test_matches_one_solve_per_map_bitwise(self, data, shape, k, scale):
        size = shape[0] * shape[1]
        entry = st.sampled_from([0.0, -0.0, 0.5, -1.0]) \
            | st.floats(-2.0, 2.0, allow_nan=False)
        rows = lambda lo, hi: np.array(data.draw(st.lists(
            st.lists(entry, min_size=size, max_size=size),
            min_size=lo, max_size=hi)))
        lam = OperatorSet(scale * rows(k, k).reshape(k, *shape),
                          convex_closure=True)
        pool = rows(1, 4)
        pool = scale * np.vstack([pool, with_zeros_negated(pool)])
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=1, max_size=12))
        maps = pool[picks].reshape(-1, *shape)
        want = per_map_distances(maps, lam)
        assert hexes(distances_to_operator_set(maps, lam)) == hexes(want)
        perm = data.draw(st.permutations(range(len(maps))))
        assert hexes(distances_to_operator_set(maps[perm], lam)) \
            == hexes(want[perm])

    @pytest.mark.parametrize("k, j", [(1, 1), (7, 1), (20, 4), (9, 9)])
    def test_one_solve_per_distinct_map(self, monkeypatch, k, j):
        rng = np.random.default_rng(k + j)
        distinct = rng.normal(size=(j, 2, 2))
        if j > 1:
            # equal to map 0 as a number, not in its bytes
            distinct[0, 0, 0] = -0.0
            distinct[1] = with_zeros_negated(distinct[0])
        picks = np.concatenate([np.arange(j), rng.integers(0, j, k - j)])
        maps = distinct[rng.permutation(picks)]
        lam = OperatorSet(rng.normal(size=(3, 2, 2)), convex_closure=True)
        solve, calls = core._simplex_least_squares, []
        monkeypatch.setattr(core, "_simplex_least_squares",
                            lambda *a: calls.append(1) or solve(*a))
        got = distances_to_operator_set(maps, lam)
        assert len(calls) == j
        monkeypatch.undo()
        assert hexes(got) == hexes(per_map_distances(maps, lam))

    @pytest.mark.parametrize("hull", [False, True])
    def test_empty_stack_gives_no_distance(self, hull):
        # the stack was reshaped to (0, -1), which numpy cannot infer
        lam = OperatorSet.from_matrices([[[1.0]], [[-2.0]]],
                                        convex_closure=hull)
        got = distances_to_operator_set(np.zeros((0, 1, 1)), lam)
        assert got.dtype == float and got.shape == (0,)
        with pytest.raises(DimensionMismatchError):
            distances_to_operator_set(np.zeros((0, 1, 2)), lam)


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
            assert in_conic_hull(g.generators, p, 1e-9)

    def test_box_wider_than_ball_gives_full_sample(self):
        g = GammaSet.box([-1.0, -1.0], [1.0, 0.0])
        rng = np.random.default_rng(0)
        pts = g.sample(rng, np.zeros(2), 0.1, 40)
        assert pts.shape == (40, 2)
        assert np.all(np.linalg.norm(pts, axis=1) <= 0.1)
        assert np.all((pts >= g.bounds[0]) & (pts <= g.bounds[1]))

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
        assert in_conic_hull(g.generators, [0.5, 0.25], 1e-9)
        assert not in_conic_hull(g.generators, [-0.5, 0.25], 1e-9)

    def test_nan_half_line_refused(self):
        # a NaN norm passes the nonzero test
        with pytest.raises(NonFiniteValueError):
            GammaSet.half_line([np.nan, 1.0])

    def test_nan_finite_cone_refused(self):
        with pytest.raises(NonFiniteValueError):
            GammaSet.finite_cone([[np.nan, 1.0]])

    def test_nan_box_bound_refused(self):
        # the sample would die in numpy's uniform draw
        with pytest.raises(NonFiniteValueError):
            GammaSet.box([np.nan], [1.0])
        with pytest.raises(NonFiniteValueError):
            GammaSet.box([0.0, 0.0], [1.0, np.nan])
        # an infinite bound is clipped to the cube around the ball
        pts = GammaSet.box([-np.inf], [np.inf]).sample(
            np.random.default_rng(0), np.zeros(1), 0.1, 10)
        assert pts.shape == (10, 1) and np.all(np.abs(pts) <= 0.1)

    @pytest.mark.parametrize("gamma", [
        GammaSet.full_space(2), GammaSet.half_line([1.0, 1.0]),
        GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0]]),
        GammaSet.box([-1.0, -1.0], [1.0, 1.0])],
        ids=["full", "halfline", "cone", "box"])
    @pytest.mark.parametrize("center", [np.zeros(3), np.zeros(1),
                                        np.zeros((1, 2)), 0.0],
                             ids=["R3", "R1", "row", "scalar"])
    def test_center_of_another_shape_refused(self, gamma, center):
        # a 3-entry center on R^2 gave 3-D points for the full space
        with pytest.raises(DimensionMismatchError, match="center"):
            gamma.sample(np.random.default_rng(0), center, 0.1, 10)

    def test_box_bounds_of_different_sizes_refused(self):
        # hi was broadcast: the set sampled the square [0, 1]^2
        with pytest.raises(DimensionMismatchError):
            GammaSet.box([0.0, 0.0], [1.0])

    def test_inverted_box_refused(self):
        # the set sampled nothing at any delta
        with pytest.raises(ValueError, match="inverted"):
            GammaSet.box([1.0], [0.0])
        with pytest.raises(ValueError, match="inverted"):
            GammaSet(GammaSet.BOX, bounds=([0.0, 1.0], [1.0, 0.0]))

    def test_direct_dimension_checked(self):
        # the data is the one record of the dimension, so a kind given the
        # other kind's data, or data that is not its own, is refused
        box = ([0.0, 0.0], [1.0, 1.0])
        for kind, gens, bounds in [
                (GammaSet.BOX, np.eye(2), None),
                (GammaSet.BOX, np.eye(2), box),
                (GammaSet.CONE, None, box),
                (GammaSet.HALFLINE, None, None),
                (GammaSet.FULL, np.vstack([np.eye(2), -np.eye(2)]), box)]:
            with pytest.raises(ValueError, match="alone"):
                GammaSet(kind, gens, bounds)
        with pytest.raises(ValueError, match="unknown gamma kind"):
            GammaSet("ball", np.eye(2))
        with pytest.raises(ValueError, match="one generator"):
            GammaSet(GammaSet.HALFLINE, np.eye(2))
        # a full space whose generators are not +-e_i would sample the
        # ball but map another cone
        with pytest.raises(ValueError, match="e_i"):
            GammaSet(GammaSet.FULL, np.eye(2))
        with pytest.raises(ValueError, match="nonzero"):
            GammaSet(GammaSet.CONE, [[1.0, 0.0], [0.0, 0.0]])
        assert GammaSet(GammaSet.BOX, bounds=box).dimension == 2
        assert GammaSet(GammaSet.CONE, np.eye(3)[:2]).dimension == 3
        line = GammaSet(GammaSet.HALFLINE, [0.0, 1.0])
        assert line.dimension == 2 and line.generators.shape == (1, 2)

    def test_generators_copied_read_only(self):
        gens = np.eye(2)
        g = GammaSet.finite_cone(gens)
        gens[0, 0] = 5.0
        assert g.generators.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            g.generators[0, 0] = 0.0
        assert GammaSet.full_space(2).generators.tolist() == [
            [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]

    def test_factories_keep_their_dimension(self):
        assert GammaSet.full_space(3).dimension == 3
        assert GammaSet.half_line([0.0, 2.0]).dimension == 2
        assert GammaSet.finite_cone([1.0, 0.0, 0.0]).dimension == 3
        assert GammaSet.finite_cone(np.eye(2)).dimension == 2
        assert GammaSet.box(0.0, 1.0).dimension == 1
        assert GammaSet.box([0.0, 0.0], [1.0, 1.0]).dimension == 2

    def test_box_bounds_copied(self):
        lo, hi = -np.ones(2), np.ones(2)
        g = GammaSet.box(lo, hi)
        lo[0] = -5.0  # the caller's bounds stay writable
        assert g.bounds[0].tolist() == [-1.0, -1.0]
        with pytest.raises(ValueError):
            g.bounds[0][0] = 0.0


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


def stored_direction_sample(kind, n, direction, generators, bounds, rng,
                            center, delta, count):
    """Oracle: the direction-set sampler as it was when a set stored its
    dimension and a half-line its direction beside its other data."""
    center = np.asarray(center, dtype=float)
    if kind == GammaSet.FULL:
        out = ball_samples(rng, center, delta, count)
        if n == 1:
            out = np.vstack([out, [center - delta], [center + delta]])
        return out
    if kind == GammaSet.HALFLINE:
        radii = delta * np.concatenate([rng.uniform(size=count), [1.0]])
        return center + np.outer(radii, direction)
    if kind == GammaSet.CONE:
        coeffs = rng.uniform(size=(count, generators.shape[0]))
        raw = coeffs @ generators
        norms = np.linalg.norm(raw, axis=1)
        keep = norms > 1e-14
        raw, norms = raw[keep], norms[keep]
        radii = delta * rng.uniform(size=raw.shape[0]) ** (1.0 / n)
        return center + raw * (radii / norms)[:, None]
    lo = np.maximum(bounds[0], center - delta)
    hi = np.minimum(bounds[1], center + delta)
    if np.any(lo > hi):
        return np.zeros((0, n))
    kept, total = [], 0
    for _ in range(64):
        pts = rng.uniform(lo, hi, size=(count, n))
        pts = pts[np.linalg.norm(pts - center, axis=1) <= delta]
        kept.append(pts)
        total += pts.shape[0]
        if total >= count:
            break
    return np.vstack(kept)[:count]


class TestGammaSampleMatchesStoredDirection:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([GammaSet.FULL, GammaSet.HALFLINE,
                                 GammaSet.CONE, GammaSet.BOX]),
           n=st.integers(1, 4), k=st.integers(1, 4),
           seed=st.integers(0, 2**16), count=st.integers(1, 60),
           delta=st.sampled_from([1e-3, 0.1, 1.0]))
    def test_sample_bytes_equal(self, kind, n, k, seed, count, delta):
        rng = np.random.default_rng(seed)
        center = rng.normal(size=n)
        direction = rng.normal(size=n)
        gens = rng.normal(size=(k, n))
        lo = center + rng.uniform(-1.5, 0.5, size=n) * delta
        bounds = (lo, lo + rng.uniform(0.0, 2.0, size=n) * delta)
        gamma = {GammaSet.FULL: lambda: GammaSet.full_space(n),
                 GammaSet.HALFLINE: lambda: GammaSet.half_line(direction),
                 GammaSet.CONE: lambda: GammaSet.finite_cone(gens),
                 GammaSet.BOX: lambda: GammaSet.box(*bounds)}[kind]()
        unit = direction / np.linalg.norm(direction)
        got = gamma.sample(np.random.default_rng(seed + 1), center, delta,
                           count)
        want = stored_direction_sample(
            kind, n, unit, gens, bounds, np.random.default_rng(seed + 1),
            center, delta, count)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
