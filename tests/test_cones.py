"""Unit tests for the cone algebra, cross-checked by a direction-sampling
transversality oracle that never touches the LP solver, and by the
2n-coordinate-LP witness search the one-LP Gordan test replaced."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls

from quasidiff.cones import (
    COMPLEMENTARY_SUBSPACES,
    LINEARLY_SEPARABLE,
    STRONGLY_TRANSVERSAL,
    WITNESS_TOL,
    ConvexCone,
    _nontrivial_intersection_point,
    analyze_pair,
    classify_pair,
    cone_intersection,
    conic_hull,
    image_cone,
    is_full_space,
    is_transversal,
    polar_cone,
    polar_of_cone,
    separating_functional,
)
from quasidiff.core import DimensionMismatchError, GammaSet, LinearMap


def sampling_transversal_oracle(k1, k2, directions=400, seed=0, tol=1e-7):
    """Oracle: K1 - K2 = R^n iff every sampled unit direction is a
    nonnegative combination of gen1 and -gen2 (checked by NNLS)."""
    n = k1.dimension
    cols = np.vstack([k1.generators, -k2.generators]).T
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(directions, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(n), -np.eye(n)])
    for d in dirs:
        _, resid = nnls(cols, d)
        if resid > tol:
            return False
    return True


def coordinate_lp_witness(constraints, n, tol=WITNESS_TOL):
    """Oracle: a nonzero point of {p : A p <= 0, |p|_inf <= 1} by the 2n
    coordinate-maximization LPs max +-p_i, or None."""
    a = np.asarray(constraints, dtype=float).reshape(-1, n)
    for i in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = -sign  # maximize sign * p_i
            res = linprog(c, A_ub=a if a.size else None,
                          b_ub=np.zeros(a.shape[0]) if a.size else None,
                          bounds=[(-1.0, 1.0)] * n, method="highs")
            if res.status == 0 and -res.fun > tol:
                return np.asarray(res.x)
    return None


def coordinate_lp_verdict(k1, k2):
    """Oracle: transversality and the trichotomy as they were decided with
    one coordinate-LP search for transversality and another for the
    separating functional."""
    transversal = coordinate_lp_witness(
        np.vstack([k1.generators, -k2.generators]), k1.dimension) is None
    separable = coordinate_lp_witness(
        np.vstack([-k1.generators, k2.generators]), k1.dimension) is not None
    assert transversal != separable
    if not transversal:
        return False, LINEARLY_SEPARABLE
    if _nontrivial_intersection_point(k1, k2) is not None:
        return True, STRONGLY_TRANSVERSAL
    assert k1.is_subspace() and k2.is_subspace()
    return True, COMPLEMENTARY_SUBSPACES


def _spans_subspace(gens):
    """Every -g is a nonnegative combination of the generators (NNLS)."""
    return all(nnls(gens.T, -g)[1] <= 1e-9 * (1.0 + np.linalg.norm(g))
               for g in gens)


def sampling_verdict(k1, k2):
    """Oracle: the trichotomy without any LP.  A transversal pair meets
    only at 0 iff both cones are subspaces whose dimensions add up to n."""
    transversal = sampling_transversal_oracle(k1, k2)
    if not transversal:
        return False, LINEARLY_SEPARABLE
    g1, g2 = k1.generators, k2.generators
    if _spans_subspace(g1) and _spans_subspace(g2) and \
            np.linalg.matrix_rank(g1) + np.linalg.matrix_rank(g2) \
            == k1.dimension:
        return True, COMPLEMENTARY_SUBSPACES
    return True, STRONGLY_TRANSVERSAL


CONE_KINDS = ("random", "rank_deficient", "subspace", "spanning", "trivial")


def _int_rows(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                             max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda r: np.array(r, dtype=float).reshape(rows, cols))


@st.composite
def cone_pairs(draw):
    """Cone pairs in dimensions 1-5 with small integer generators: general
    position, rank-deficient generator sets, forced subspaces, +-spanning
    sets, and at most one trivial cone."""
    n = draw(st.integers(1, 5))
    pair = []
    for _ in range(2):
        kind = draw(st.sampled_from(CONE_KINDS))
        if kind == "trivial":
            gens = np.zeros((0, n))
        elif kind in ("random", "spanning"):
            gens = draw(_int_rows(draw(st.integers(1, n + 2)), n))
            if kind == "spanning":
                gens = np.vstack([gens, -gens])
        else:
            r = draw(st.integers(1, max(1, n - 1)))
            basis = draw(_int_rows(r, n))
            if kind == "subspace":
                gens = np.vstack([basis, -basis])
            else:
                coeffs = draw(_int_rows(draw(st.integers(r + 1, n + 2)), r))
                gens = coeffs @ basis
        pair.append(conic_hull(gens, n))
    assume(not (pair[0].is_trivial and pair[1].is_trivial))
    return tuple(pair)


class TestConicHull:
    def test_drops_zero_vectors(self):
        c = conic_hull([[0.0, 0.0], [1.0, 0.0]])
        assert c.generators.shape == (1, 2)

    def test_contains(self):
        c = conic_hull([[1.0, 0.0], [0.0, 1.0]])
        assert c.contains([2.0, 3.0])
        assert not c.contains([-1.0, 0.0])

    def test_trivial_cone(self):
        c = conic_hull([], dimension=2)
        assert c.is_trivial
        assert c.contains([0.0, 0.0])
        assert not c.contains([1.0, 0.0])


class TestPolar:
    def test_polar_of_first_quadrant(self):
        c = conic_hull([[1.0, 0.0], [0.0, 1.0]])
        p = polar_of_cone(c)
        # polar is the third quadrant
        assert p.contains([-1.0, -1.0])
        assert p.contains([-1.0, 0.0])
        assert not p.contains([1.0, 0.0])

    def test_polar_of_halfline(self):
        p = polar_cone([[1.0, 0.0]])
        # the half-plane x <= 0
        assert p.contains([-1.0, 5.0])
        assert p.contains([0.0, -2.0])
        assert not p.contains([0.5, 0.0])

    def test_double_polar_of_subspace(self):
        line = conic_hull([[1.0, 2.0], [-1.0, -2.0]])
        pp = polar_of_cone(polar_of_cone(line))
        for g in line.generators:
            assert pp.contains(g)
        for g in pp.generators:
            assert line.contains(g)


class TestTransversality:
    def test_half_plane_and_opposing_ray(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[0.0, 1.0]])
        # K1 - K2 = upper half-plane + downward ray = the whole plane
        assert is_transversal(k1, k2)

    def test_two_rays_not_transversal(self):
        k1 = conic_hull([[1.0, 0.0]])
        k2 = conic_hull([[-1.0, 0.0]])
        assert not is_transversal(k1, k2)

    def test_matches_sampling_oracle_random(self):
        rng = np.random.default_rng(21)
        for i in range(40):
            n = int(rng.integers(2, 4))
            k1 = conic_hull(rng.normal(size=(rng.integers(1, n + 2), n)), n)
            k2 = conic_hull(rng.normal(size=(rng.integers(1, n + 2), n)), n)
            assert is_transversal(k1, k2) == \
                sampling_transversal_oracle(k1, k2, seed=i)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_transversal(conic_hull([[1.0]], 1), conic_hull([[1.0, 0.0]], 2))


class TestAnalyzePair:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cone_pairs())
    def test_agrees_with_coordinate_lp_and_sampling_oracles(self, pair):
        k1, k2 = pair
        got = analyze_pair(k1, k2)
        assert (got.transversal, got.verdict) == coordinate_lp_verdict(k1, k2)
        assert (got.transversal, got.verdict) == sampling_verdict(k1, k2)
        assert (got.certificate is None) == got.transversal
        if got.certificate is not None:
            assert got.certificate.validate(k1, k2)

    def test_record_is_frozen(self):
        got = analyze_pair(conic_hull([[1.0, 0.0]]), conic_hull([[-1.0, 1.0]]))
        assert got.verdict == LINEARLY_SEPARABLE
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.transversal = True

    def test_views_match_record(self):
        k1 = conic_hull([[1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[-1.0, -1.0]])
        got = analyze_pair(k1, k2)
        assert not got.transversal
        assert is_transversal(k1, k2) == got.transversal
        assert classify_pair(k1, k2) == got.verdict
        np.testing.assert_array_equal(
            separating_functional(k1, k2).functional,
            got.certificate.functional)

    def test_rank_deficient_witness_is_a_null_vector(self):
        # both cones lie on the x-axis: (0, 1) separates them
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0]])
        k2 = conic_hull([[2.0, 0.0]])
        cert = analyze_pair(k1, k2).certificate
        assert cert.validate(k1, k2)
        assert abs(cert.functional[0]) <= 1e-12
        assert np.max(np.abs(cert.functional)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_trivial_cones(self, n):
        trivial = conic_hull([], dimension=n)
        assert not is_transversal(trivial, trivial)
        assert not is_full_space(trivial)
        assert classify_pair(trivial, trivial) == LINEARLY_SEPARABLE
        assert separating_functional(trivial, trivial).validate(trivial,
                                                                trivial)


class TestSeparation:
    def test_separable_pair_has_valid_certificate(self):
        k1 = conic_hull([[1.0, 0.0]])
        k2 = conic_hull([[-1.0, 1.0]])
        cert = separating_functional(k1, k2)
        assert cert is not None
        assert cert.validate(k1, k2)

    def test_transversal_pair_has_no_certificate(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[0.0, 1.0]])
        assert separating_functional(k1, k2) is None


class TestClassifyPair:
    def test_strongly_transversal(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[0.0, 1.0]])
        assert classify_pair(k1, k2) == STRONGLY_TRANSVERSAL

    def test_complementary_subspaces(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0]])
        k2 = conic_hull([[0.0, 1.0], [0.0, -1.0]])
        assert classify_pair(k1, k2) == COMPLEMENTARY_SUBSPACES

    def test_linearly_separable(self):
        k1 = conic_hull([[1.0, 0.0]])
        k2 = conic_hull([[-1.0, 1.0]])
        assert classify_pair(k1, k2) == LINEARLY_SEPARABLE


class TestImageCone:
    def test_identity_on_quadrant(self):
        gamma = GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0]])
        img = image_cone(LinearMap(np.eye(2)), gamma)
        assert img.contains([1.0, 1.0])
        assert not img.contains([-1.0, 0.0])

    def test_full_space_through_1x2_map(self):
        img = image_cone(LinearMap([[1.0, -1.0]]), GammaSet.full_space(2))
        assert is_full_space(img)

    def test_zero_map_image_is_trivial(self):
        img = image_cone(LinearMap([[0.0, 0.0]]), GammaSet.full_space(2))
        assert not is_full_space(img)

    def test_box_gamma_rejected(self):
        with pytest.raises(ValueError):
            image_cone(LinearMap(np.eye(2)), GammaSet.box([0, 0], [1, 1]))


class TestConeIntersection:
    def test_quadrant_with_half_plane(self):
        quad = conic_hull([[1.0, 0.0], [0.0, 1.0]])
        half = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        inter = cone_intersection(quad, half)
        assert inter.contains([1.0, 1.0])
        assert not inter.contains([-1.0, 0.5])

    def test_opposite_halflines_trivial(self):
        inter = cone_intersection(conic_hull([[1.0, 0.0]]),
                                  conic_hull([[-1.0, 0.0]]))
        assert not inter.contains([1.0, 0.0])
        assert not inter.contains([-1.0, 0.0])
