"""Unit tests for multi-cones, the open-mapping probe, separation verdicts,
and the sampling corroboration across all curated fixtures."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from quasidiff import fixtures

from quasidiff.cones import conic_hull
from quasidiff.separation import MultiCone
from quasidiff.core import DimensionMismatchError, GammaSet, LinearMap, \
    NonFiniteValueError, OperatorSet
from quasidiff.fields import make_map
from quasidiff.fixtures import builtin_fixtures, fixture_by_name
from quasidiff.separation import (
    MATCH_TOL,
    NO_CONCLUSION,
    NOT_LOCALLY_SEPARATED,
    SurjectivityError,
    audit_z_ignoring,
    build_multicone,
    local_separation_probe,
    open_mapping_probe,
    separation_verdict,
)


def dense_cover_oracle(F, radius, a, grid=4001):
    """Oracle: 1D image coverage of targets in [-a, a] by dense axis
    sampling of the fold map's domain section."""
    xs = np.linspace(-radius, radius, grid)
    vals = np.sort([F(np.array([x, 0.0]))[0] for x in xs])
    targets = np.linspace(-a, a, 81)
    return all(np.min(np.abs(vals - t)) <= 1e-3 for t in targets)


def probe_loop(sampler1, sampler2, z, radius, samples, seed):
    """Oracle: the common point of the separation probe, one match at a
    time; a later match replaces the best only when strictly closer."""
    rng = np.random.default_rng(seed)
    p1 = np.atleast_2d(sampler1(rng, z, radius, samples))
    p2 = np.atleast_2d(sampler2(rng, z, radius, samples))
    distinct_tol = max(0.01 * radius, 10.0 * MATCH_TOL)
    best, best_d = None, np.inf
    for p in p1:
        d = np.linalg.norm(p2 - p, axis=1)
        i = int(np.argmin(d))
        if d[i] > MATCH_TOL:
            continue
        mid = 0.5 * (p + p2[i])
        dz = float(np.linalg.norm(mid - z))
        if distinct_tol < dz <= radius + MATCH_TOL and d[i] < best_d:
            best, best_d = mid, d[i]
    return best


def probe_unbounded(sampler1, sampler2, z, radius, samples, seed):
    """Oracle: the separation probe with an unbounded nearest-neighbour
    query, as it was."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    rng = np.random.default_rng(seed)
    p1 = np.atleast_2d(sampler1(rng, z, radius, samples))
    p2 = np.atleast_2d(sampler2(rng, z, radius, samples))
    distinct_tol = max(0.01 * radius, 10.0 * MATCH_TOL)
    dists, idx = cKDTree(p2).query(p1, k=1)
    near = np.flatnonzero(dists <= MATCH_TOL)
    mids = 0.5 * (p1[near] + p2[idx[near]])
    dz = np.linalg.norm(mids - z, axis=1)
    ok = (dz > distinct_tol) & (dz <= radius + MATCH_TOL)
    if ok.any():
        return mids[ok][np.argmin(dists[near][ok])]
    return None


class TestBuildMulticone:
    def test_identity_on_quadrant(self):
        lam = OperatorSet.from_matrices([np.eye(2)])
        gamma = GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0]])
        mc = build_multicone(lam, gamma)
        assert len(mc.cones) == 1
        assert mc.cones[0].contains([1.0, 2.0])
        assert not mc.cones[0].contains([-1.0, 0.0])

    def test_hull_vertices_enumerated(self):
        lam = OperatorSet.from_matrices([[[1.0, -1.0]], [[1.0, 1.0]]],
                                        convex_closure=True)
        mc = build_multicone(lam, GammaSet.full_space(2))
        assert len(mc.cones) == 2
        for cone in mc.cones:
            assert cone.contains([1.0]) and cone.contains([-1.0])

    def test_zero_map_gives_trivial_cone(self):
        lam = OperatorSet.from_matrices([[[0.0, 0.0]]])
        mc = build_multicone(lam, GammaSet.full_space(2))
        assert mc.cones[0].is_trivial

    def test_box_gamma_rejected(self):
        lam = OperatorSet.from_matrices([np.eye(2)])
        with pytest.raises(ValueError):
            build_multicone(lam, GammaSet.box([0, 0], [1, 1]))


class TestSeparationVerdict:
    def test_strongly_transversal_fires(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[0.0, 1.0]])
        assert separation_verdict(k1, k2) == NOT_LOCALLY_SEPARATED

    def test_transversal_lines_need_z_ignoring(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0]])
        k2 = conic_hull([[0.0, 1.0], [0.0, -1.0]])
        assert separation_verdict(k1, k2) == NO_CONCLUSION
        mc1 = build_multicone(OperatorSet.from_matrices(
            [[[1.0], [0.0]]]), GammaSet.full_space(1), z_ignoring=True)
        assert separation_verdict(mc1, k2) == NOT_LOCALLY_SEPARATED

    def test_not_transversal_no_conclusion(self):
        k1 = conic_hull([[1.0, 0.0]])
        k2 = conic_hull([[-1.0, 0.0]])
        assert separation_verdict(k1, k2) == NO_CONCLUSION

    def test_all_pairs_lift_is_conservative(self):
        # one member pair merely transversal -> the strong branch cannot fire
        mixed = build_multicone(OperatorSet.from_matrices(
            [[[1.0], [0.0]], [[0.0], [1.0]]]), GammaSet.full_space(1))
        k2 = conic_hull([[0.0, 1.0], [0.0, -1.0]])
        assert separation_verdict(mixed, k2) == NO_CONCLUSION

    def test_member_pairs_walked_in_order(self):
        # a non-transversal member pair gives NoConclusion wherever it
        # sits among strongly transversal ones
        strong = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        up = conic_hull([[0.0, 1.0]])
        right = conic_hull([[1.0, 0.0]])
        for members in ((strong, right), (right, strong)):
            assert separation_verdict(MultiCone(members), up) == NO_CONCLUSION

    def test_empty_multicone_refused(self):
        # separation_verdict on it raised IndexError from its dimension
        with pytest.raises(ValueError, match="at least one cone"):
            MultiCone(())


class TestOpenMappingProbe:
    def setup_method(self):
        self.F = make_map("fold_sum")
        self.lam = OperatorSet.from_matrices([[[1.0, -1.0]], [[1.0, 1.0]]],
                                             convex_closure=True)
        self.gamma = GammaSet.full_space(2)

    def test_fold_sum_covers(self):
        rep = open_mapping_probe(self.F, [0.0, 0.0], [0.0], self.gamma,
                                 self.lam, 0.1, 2.0, 10, 20000, seed=5)
        assert rep.covered_fraction == 1.0
        assert rep.passed
        assert dense_cover_oracle(self.F, 0.2, 0.1)

    def test_center_target_always_present(self):
        rep = open_mapping_probe(self.F, [0.0, 0.0], [0.0], self.gamma,
                                 self.lam, 0.1, 2.0, 5, 5000, seed=5)
        assert rep.samples_used > 0  # probe ran; center covered implies pass
        assert rep.covered_fraction == 1.0

    def test_zero_map_precondition_error(self):
        lam = OperatorSet.from_matrices(
            [[[1.0, -1.0]], [[1.0, 1.0]], [[0.0, 0.0]]], convex_closure=True)
        with pytest.raises(SurjectivityError) as err:
            open_mapping_probe(self.F, [0.0, 0.0], [0.0], self.gamma, lam,
                               0.1, 2.0, 5, 100, seed=5)
        assert "generator 2" in str(err.value)

    def test_hull_through_zero_precondition_error(self):
        # both generators of co{1, -1} are surjective, but the hull holds
        # the zero map; the probe read covered 0.52 instead of refusing
        F = make_map("abs1d")
        lam = OperatorSet.from_matrices([[[1.0]], [[-1.0]]],
                                        convex_closure=True)
        with pytest.raises(SurjectivityError, match="hull"):
            open_mapping_probe(F, [0.0], [0.0], GammaSet.full_space(1), lam,
                               0.1, 2.0, 10, 20000, seed=0)
        rep = open_mapping_probe(F, [0.0], [0.0], GammaSet.full_space(1),
                                 OperatorSet(lam.generators), 0.1, 2.0, 10,
                                 20000, seed=0)
        assert rep.covered_fraction < 1.0

    @pytest.mark.parametrize("gamma", [
        GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0]]),
        GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])])
    def test_cone_hull_of_one_sign_precondition_error(self, gamma):
        # both generators take both signs on the quadrant, but their
        # midpoint 0 lies in the dual cone; the probe read covered 0.524
        F = lambda x: np.array([abs(x[0] - x[1])])
        lam = OperatorSet.from_matrices([[[1.0, -1.0]], [[-1.0, 1.0]]],
                                        convex_closure=True)
        with pytest.raises(SurjectivityError, match="one sign"):
            open_mapping_probe(F, [0.0, 0.0], [0.0], gamma, lam, 0.1, 2.0,
                               10, 2000, seed=0)
        # a hull that meets -Gamma* but not Gamma*: co{(1, -1), (-2, 1)}
        # holds (-1/2, 0)
        lam = OperatorSet.from_matrices([[[1.0, -1.0]], [[-2.0, 1.0]]],
                                        convex_closure=True)
        with pytest.raises(SurjectivityError, match="one sign"):
            open_mapping_probe(F, [0.0, 0.0], [0.0], gamma, lam, 0.1, 2.0,
                               10, 2000, seed=0)

    def test_cone_hull_of_both_signs_probed(self):
        # every map of co{(1, -1), (1, -2)} takes both signs on the
        # quadrant, so the probe runs, and x1 - 1.5 x2 covers
        F = lambda x: np.array([x[0] - 1.5 * x[1]])
        lam = OperatorSet.from_matrices([[[1.0, -1.0]], [[1.0, -2.0]]],
                                        convex_closure=True)
        rep = open_mapping_probe(F, [0.0, 0.0], [0.0],
                                 GammaSet.finite_cone([[1.0, 0.0],
                                                       [0.0, 1.0]]),
                                 lam, 0.1, 2.0, 10, 20000, seed=0)
        assert rep.passed

    def test_hull_of_maps_through_a_singular_one_refused(self):
        # co{I, diag(1, -1)} holds diag(1, 0), which maps onto a line; the
        # probe read covered 0.533 in every seed instead of refusing
        F = lambda x: np.array([x[0], abs(x[1])])
        lam = OperatorSet.from_matrices([np.eye(2), np.diag([1.0, -1.0])],
                                        convex_closure=True)
        for seed in (0, 1, 2):
            with pytest.raises(SurjectivityError, match="rank below 2"):
                open_mapping_probe(F, [0.0, 0.0], [0.0, 0.0], self.gamma,
                                   lam, 0.1, 2.0, 10, 20000, seed=seed)
        # its two vertices alone are surjective, so the finite set is probed
        rep = open_mapping_probe(F, [0.0, 0.0], [0.0, 0.0], self.gamma,
                                 OperatorSet(lam.generators), 0.1, 2.0, 10,
                                 2000, seed=0)
        assert not rep.passed

    @pytest.mark.parametrize("gens", [
        [np.eye(2), 2.0 * np.eye(2)],
        [np.eye(2), [[1.0, 0.4], [-0.3, 1.2]], [[0.9, -0.2], [0.1, 1.0]]],
        [[[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]], [[1.0, 0.2, 0.0],
                                              [0.0, 1.0, 0.3]]]])
    def test_hull_of_full_rank_maps_probed(self, gens):
        # a centre's least singular value exceeds its distance to every
        # generator (Weyl), so every map of the hull is onto
        lam = OperatorSet.from_matrices(gens, convex_closure=True)
        m, n = lam.shape
        F = make_map("identity", {"dimension": n})
        rep = open_mapping_probe(lambda x: F(x)[:m] if m < n else F(x),
                                 np.zeros(n), np.zeros(m),
                                 GammaSet.full_space(n), lam, 0.05, 2.0, 5,
                                 20000, seed=1)
        assert rep.passed

    def test_hull_of_maps_into_the_plane_on_a_cone_refused(self):
        # each generator maps the positively spanning cone onto R^2, but
        # no full-rank test is made for a hull on a cone
        gamma = GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        lam = OperatorSet.from_matrices([np.eye(2), 2.0 * np.eye(2)],
                                        convex_closure=True)
        with pytest.raises(SurjectivityError, match="cone direction set"):
            open_mapping_probe(lambda x: np.asarray(x), [0.0, 0.0],
                               [0.0, 0.0], gamma, lam, 0.1, 2.0, 5, 2000,
                               seed=0)
        rep = open_mapping_probe(lambda x: np.asarray(x), [0.0, 0.0],
                                 [0.0, 0.0], gamma, OperatorSet(
                                     lam.generators), 0.1, 2.0, 5, 2000,
                                 seed=0)
        assert rep.samples_used > 0

    def test_identity_is_open(self):
        F = make_map("identity", {"dimension": 1})
        lam = OperatorSet.from_matrices([[[1.0]]])
        rep = open_mapping_probe(F, [0.0], [0.0], GammaSet.full_space(1),
                                 lam, 0.05, 2.0, 10, 4000, seed=1)
        assert rep.passed

    def test_nonfinite_value_raises(self):
        # a NaN row used to reach cKDTree, which refused it without a point
        F = lambda x: np.array([np.nan]) if x[0] > 0.1 else self.F(x)
        with pytest.raises(NonFiniteValueError) as err:
            open_mapping_probe(F, [0.0, 0.0], [0.0], self.gamma, self.lam,
                               0.1, 2.0, 5, 2000, seed=5)
        assert err.value.point[0] > 0.1

    def test_x_bar_off_the_domain_refused(self):
        # a 3-D x_bar on Gamma = R^2 used to be sampled in R^3 and read
        # covered 1.0
        with pytest.raises(DimensionMismatchError, match="center"):
            open_mapping_probe(self.F, [0.0, 0.0, 0.0], [0.0], self.gamma,
                               self.lam, 0.1, 2.0, 10, 2000, 0)

    def test_y_bar_off_the_codomain_refused(self):
        # scipy's k-d tree used to refuse the 2-D targets without a name
        with pytest.raises(DimensionMismatchError, match="y_bar"):
            open_mapping_probe(self.F, [0.0, 0.0], [0.0, 0.0], self.gamma,
                               self.lam, 0.1, 2.0, 10, 2000, 0)

    def test_value_width_off_y_bar_refused(self):
        # scipy's k-d tree refused the 1-D targets against 2-D values with
        # a bare ValueError
        F = lambda x: np.array([x[0] + abs(x[1]), 0.0])
        with pytest.raises(DimensionMismatchError, match="F maps into R"):
            open_mapping_probe(F, [0.0, 0.0], [0.0], self.gamma, self.lam,
                               0.1, 2.0, 10, 2000, 0)

    def test_monotone_in_a(self):
        for a in (0.1, 0.05, 0.02):
            rep = open_mapping_probe(self.F, [0.0, 0.0], [0.0], self.gamma,
                                     self.lam, a, 2.0, 10, 20000, seed=5)
            assert rep.passed


class TestLocalSeparationProbe:
    def test_axes_separated(self):
        f = fixture_by_name("axes")
        out = local_separation_probe(f.sampler1, f.sampler2, f.z, 1.0, 2000,
                                     seed=0)
        assert out["separated_at_resolution"]
        assert out["common_point"] is None

    def test_half_planes_share_boundary(self):
        f = fixture_by_name("half_planes")
        out = local_separation_probe(f.sampler1, f.sampler2, f.z, 1.0, 2000,
                                     seed=0)
        assert out["common_point"] is not None
        assert abs(out["common_point"][1]) <= 1e-6

    def test_first_of_equal_matches_wins(self):
        # three exact matches: one too close to z, then two at distance 0
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.7, 0.0]])
        out = local_separation_probe(lambda *a: pts, lambda *a: pts[::-1],
                                     np.zeros(2), 1.0, 3, seed=0)
        np.testing.assert_array_equal(out["common_point"], [0.5, 0.0])

    @pytest.mark.parametrize("fixture", builtin_fixtures(),
                             ids=lambda f: f.name)
    def test_matches_loop_oracle(self, fixture):
        for seed, radius in ((0, 1.0), (1, 0.2)):
            got = local_separation_probe(fixture.sampler1, fixture.sampler2,
                                         fixture.z, radius, 300, seed)
            want = probe_loop(fixture.sampler1, fixture.sampler2, fixture.z,
                              radius, 300, seed)
            assert (got["common_point"] is None) == (want is None)
            if want is not None:
                assert got["common_point"].tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 20))
    def test_bounded_query_matches_unbounded(self, seed, k):
        # anchors on the y-axis, whose x offsets are exact distances: at
        # MATCH_TOL, one ulp either side, inside and outside; pairs of
        # points of p2 equally far from a point of p1, and repeated rows
        rng = np.random.default_rng(seed)
        tol, half = MATCH_TOL, 2.0 ** -21
        anchors = np.column_stack([np.zeros(k),
                                   rng.integers(1, 8, size=k) / 8.0])
        offsets = np.array([0.0, half, tol, np.nextafter(tol, 0.0),
                            np.nextafter(tol, 1.0), 2.0 * tol,
                            np.nextafter(2.0 * tol, 0.0), 3.0 * tol, 0.25])
        moved = anchors + np.column_stack([
            rng.choice(offsets, size=k), np.zeros(k)])
        ties = anchors + [2.0 * half, 0.0]
        fill = rng.integers(-8, 9, size=(k, 2)) / 8.0
        p2 = np.vstack([anchors, ties, fill, anchors[:2]])
        p1 = np.vstack([moved, anchors + [half, 0.0], fill[::2]])
        rng.shuffle(p1)
        tree = cKDTree(p2)
        want_d, want_i = tree.query(p1, k=1)
        got_d, got_i = tree.query(p1, k=1, distance_upper_bound=2.0 * tol)
        near = want_d <= tol
        assert np.array_equal(got_d <= tol, near)
        assert got_d[near].tobytes() == want_d[near].tobytes()
        assert np.array_equal(got_i[near], want_i[near])
        z = np.zeros(2)
        got = local_separation_probe(lambda *a: p1, lambda *a: p2, z, 1.0,
                                     k, seed)["common_point"]
        want = probe_unbounded(lambda *a: p1, lambda *a: p2, z, 1.0, k, seed)
        assert (got is None) == (want is None)
        assert want is None or got.tobytes() == want.tobytes()

    def test_parabola_vs_axis_tangential(self):
        f = fixture_by_name("parabola_vs_axis")
        out = local_separation_probe(f.sampler1, f.sampler2, f.z, 1.0, 2000,
                                     seed=0)
        assert out["separated_at_resolution"]


class TestFixtureSuite:
    def test_ten_fixtures(self):
        assert [f.name for f in builtin_fixtures()] == [
            "axes", "half_plane_vs_ray", "half_planes", "half_space_vs_line",
            "parabola_vs_axis", "opposite_rays", "accumulating_lines",
            "cone_vs_vertical_line", "abs_graph_vs_vertical_line",
            "planes_3d"]

    def test_named_fixture_equals_its_builtin(self):
        for f in builtin_fixtures():
            g = fixture_by_name(f.name)
            assert (g.z.tobytes(), g.radius, g.note) == \
                (f.z.tobytes(), f.radius, f.note)
            for a, b in ((f.k1, g.k1), (f.k2, g.k2)):
                assert a.z_ignoring == b.z_ignoring
                assert [c.generators.tobytes() for c in a.cones] == \
                    [c.generators.tobytes() for c in b.cones]
            for a, b in ((f.sampler1, g.sampler1), (f.sampler2, g.sampler2)):
                assert a(np.random.default_rng(1), f.z, 0.5, 40).tobytes() \
                    == b(np.random.default_rng(1), g.z, 0.5, 40).tobytes()
            assert (f.z_ignoring_family is None) == \
                (g.z_ignoring_family is None)
        with pytest.raises(KeyError, match="unknown separation fixture"):
            fixture_by_name("no_such_fixture")

    def test_named_fixture_built_alone(self, monkeypatch):
        # building all ten took 19 conic hulls for one fixture
        hull, calls = fixtures.conic_hull, []
        monkeypatch.setattr(fixtures, "conic_hull",
                            lambda g: calls.append(1) or hull(g))
        fixture_by_name("opposite_rays")
        assert len(calls) == 2

    def test_fired_verdicts_corroborated(self):
        for f in builtin_fixtures():
            verdict = separation_verdict(f.k1, f.k2)
            probe = local_separation_probe(f.sampler1, f.sampler2, f.z,
                                           f.radius, 2000, seed=6)
            if verdict == NOT_LOCALLY_SEPARATED:
                assert probe["common_point"] is not None, f.name

    def test_nonfinite_z_ignoring_family_raises(self):
        # a NaN value is never within tol of z, so it would pass the audit
        nan_family = lambda d: (lambda x: np.array([np.nan, np.nan]))
        with pytest.raises(NonFiniteValueError) as err:
            audit_z_ignoring(nan_family, GammaSet.full_space(1), [0.0, 0.0])
        assert err.value.point is not None

    def test_empty_deltas_refused(self):
        onto_z = lambda d: (lambda x: np.zeros(2))
        with pytest.raises(ValueError, match="empty"):
            audit_z_ignoring(onto_z, GammaSet.full_space(1), [0.0, 0.0],
                             deltas=())
        assert not audit_z_ignoring(onto_z, GammaSet.full_space(1),
                                    [0.0, 0.0])

    def test_empty_sample_refused(self):
        # a box Gamma outside every delta ball gives samples that check
        # nothing; on R the same family fails the audit
        onto_z = lambda d: (lambda x: np.zeros(1))
        with pytest.raises(ValueError, match="delta=0.1"):
            audit_z_ignoring(onto_z, GammaSet.box([5.0], [6.0]), [0.0])
        assert not audit_z_ignoring(onto_z, GammaSet.full_space(1), [0.0])

    def test_z_off_the_value_width_refused(self):
        # z = [1, 5] was broadcast against the values [1.0], and the audit
        # read True
        ones = lambda d: (lambda x: np.array([1.0]))
        with pytest.raises(DimensionMismatchError, match="z is in R"):
            audit_z_ignoring(ones, GammaSet.full_space(1), [1.0, 5.0])
        assert not audit_z_ignoring(ones, GammaSet.full_space(1), [1.0])

    def test_z_ignoring_families_audited(self):
        for f in builtin_fixtures():
            if f.z_ignoring_family is not None:
                assert audit_z_ignoring(f.z_ignoring_family,
                                        GammaSet.full_space(1), f.z), f.name
