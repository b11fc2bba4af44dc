"""Unit tests for multi-cones, the open-mapping probe, separation verdicts,
and the sampling corroboration across all curated fixtures."""
from __future__ import annotations

import numpy as np
import pytest

from quasidiff.cones import conic_hull
from quasidiff.separation import MultiCone
from quasidiff.core import GammaSet, LinearMap, NonFiniteValueError, \
    OperatorSet
from quasidiff.fields import make_map
from quasidiff.fixtures import builtin_fixtures, fixture_by_name
from quasidiff.separation import (
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

    def test_parabola_vs_axis_tangential(self):
        f = fixture_by_name("parabola_vs_axis")
        out = local_separation_probe(f.sampler1, f.sampler2, f.z, 1.0, 2000,
                                     seed=0)
        assert out["separated_at_resolution"]


class TestFixtureSuite:
    def test_ten_fixtures(self):
        assert len(builtin_fixtures()) == 10

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

    def test_z_ignoring_families_audited(self):
        for f in builtin_fixtures():
            if f.z_ignoring_family is not None:
                assert audit_z_ignoring(f.z_ignoring_family,
                                        GammaSet.full_space(1), f.z), f.name
