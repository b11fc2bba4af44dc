"""Unit tests for the cone algebra, cross-checked by a direction-sampling
transversality oracle, by a 2n-coordinate-LP witness search that shares
no code with the NNLS witness search under test, and by the per-pair
2n-LP intersection search that the subspace-and-rank rule replaced."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls

from quasidiff import cones, scenarios
from quasidiff.cones import (
    COMPLEMENTARY_SUBSPACES,
    LINEARLY_SEPARABLE,
    STRONGLY_TRANSVERSAL,
    WITNESS_TOL,
    ConvexCone,
    PairAnalysis,
    SeparationCertificate,
    analyze_pair,
    analyze_pairs,
    cone_intersection,
    conic_hull,
    image_cone,
    is_full_space,
    polar_cone,
)
from quasidiff.core import DimensionMismatchError, GammaSet, LinearMap, \
    NonFiniteValueError, OperatorSet, in_conic_hull
from quasidiff.fields import make_map
from quasidiff.fixtures import builtin_fixtures
from quasidiff.separation import NO_CONCLUSION, NOT_LOCALLY_SEPARATED, \
    SurjectivityError, open_mapping_probe, separation_verdict


@pytest.fixture
def no_linprog(monkeypatch):
    """``cones.linprog`` replaced by a function that fails the test."""
    def refused(*args, **kwargs):
        raise AssertionError("the cone layer called linprog")

    monkeypatch.setattr(cones, "linprog", refused)


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


def intersection_lp_point(k1, k2, tol=1e-7):
    """Oracle: a common point of K1 and K2 away from 0, by one LP per pair
    and coordinate, max +-x_k over {G1' a = G2' b, a, b >= 0,
    sum a + sum b = 1}, or None."""
    n = k1.dimension
    m1, m2 = k1.generators.shape[0], k2.generators.shape[0]
    if m1 == 0 or m2 == 0:
        return None
    a_eq = np.hstack([k1.generators.T, -k2.generators.T])  # n x (m1+m2)
    a_eq = np.vstack([a_eq, np.ones((1, m1 + m2))])
    b_eq = np.concatenate([np.zeros(n), [1.0]])
    for k in range(n):
        for sign in (1.0, -1.0):
            c = np.concatenate([-sign * k1.generators[:, k], np.zeros(m2)])
            res = linprog(c, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(0.0, None)] * (m1 + m2), method="highs")
            if res.status == 0 and -res.fun > tol:
                alpha = res.x[:m1]
                return k1.generators.T @ alpha
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
    if intersection_lp_point(k1, k2) is not None:
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
def _any_cone_pairs(draw):
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
        pair.append(conic_hull(gens))
    return tuple(pair)


def cone_pairs():
    """Cone pairs in dimensions 1-5 with small integer generators: general
    position, rank-deficient generator sets, forced subspaces, +-spanning
    sets, and at most one trivial cone."""
    return _any_cone_pairs().filter(
        lambda pair: not (pair[0].is_trivial and pair[1].is_trivial))


def contains_loop(cone, x, tol=1e-9):
    """Oracle: one point's membership as ``ConvexCone.contains`` tested it
    alone, NNLS on the transposed generators and the residual by ``@``."""
    x = np.asarray(x, dtype=float)
    if cone.is_trivial:
        return bool(np.linalg.norm(x) <= tol)
    coeffs, _ = nnls(cone.generators.T, x)
    return bool(np.linalg.norm(coeffs @ cone.generators - x)
                <= tol * (1.0 + np.linalg.norm(x)))


class TestConicHull:
    def test_drops_zero_vectors(self):
        c = conic_hull([[0.0, 0.0], [1.0, 0.0]])
        assert c.generators.shape == (1, 2)

    def test_contains(self):
        c = conic_hull([[1.0, 0.0], [0.0, 1.0]])
        assert c.contains([2.0, 3.0])
        assert not c.contains([-1.0, 0.0])

    def test_trivial_cone(self):
        c = conic_hull(np.zeros((0, 2)))
        assert c.dimension == 2 and c.is_trivial
        assert c.contains([0.0, 0.0])
        assert not c.contains([1.0, 0.0])

    def test_point_of_another_shape_refused(self):
        # the trivial cone tested only the norm, so it held [0, 0, 0, 0];
        # a nontrivial cone raised scipy's bare ValueError from the NNLS
        for cone in (conic_hull(np.zeros((0, 2))), conic_hull([[1.0, 0.0]])):
            for x in ([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0],
                      [[1.0, 0.0]]):
                with pytest.raises(DimensionMismatchError):
                    cone.contains(x)

    def test_non_finite_point_refused(self):
        for cone in (conic_hull(np.zeros((0, 2))), conic_hull([[1.0, 0.0]])):
            for x in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
                with pytest.raises(NonFiniteValueError):
                    cone.contains(x)

    def test_nan_generator_refused(self):
        # a NaN row fails the norm test against 0, so it was dropped and
        # the pair verdict read off the rest
        with pytest.raises(NonFiniteValueError):
            conic_hull([[np.nan, 0.0], [0.0, 1.0]])

    def test_dimension_is_the_generator_width(self):
        # a (k, n) array is k generators in R^n, a 1-D one one generator,
        # and a (0, n) array the trivial cone in R^n
        assert ConvexCone([[1, 2, 3], [4, 5, 6]]).dimension == 3
        assert ConvexCone([1.0, 2.0]).generators.tolist() == [[1.0, 2.0]]
        assert ConvexCone(np.zeros((0, 3))).dimension == 3
        assert conic_hull([1.0, 0.0]).generators.tolist() == [[1.0, 0.0]]
        # every row dropped as zero keeps the width
        assert conic_hull([[0.0, 0.0, 0.0]]).generators.shape == (0, 3)
        assert polar_cone(np.zeros((0, 2))).dimension == 2
        assert ConvexCone([[1.0, 0.0]]).to_jsonable() == {
            "dimension": 2, "generators": [[1.0, 0.0]]}
        with pytest.raises(ValueError, match="not a"):
            ConvexCone(np.zeros((2, 2, 2)))

    def test_empty_list_has_no_width(self):
        for build in (ConvexCone, conic_hull, polar_cone):
            with pytest.raises(ValueError, match=r"\(0, n\)"):
                build([])

    def test_nan_cone_refused(self):
        # analyze_pair on this cone raised LinAlgError from the SVD
        with pytest.raises(NonFiniteValueError):
            ConvexCone([[np.nan, 0.0]])


    def test_membership_recomputes_the_nnls_residual(self):
        # a closed half-space; scipy's nnls reports a residual of 0 for q2,
        # whose true distance to the cone is about 1.07
        q = np.linalg.qr(np.random.default_rng(18).normal(size=(3, 3)))[0].T
        gens = np.array([q[0], q[1], -q[0], -q[1], -q[2]])
        cone = ConvexCone(gens)
        assert not cone.contains(q[2])
        assert not cone.is_subspace()
        assert in_conic_hull(gens, q[2][None], 1e-9).tolist() == [False]
        assert cone.contains(-q[2]) and cone.contains(q[0] - q[2])


class TestMembershipRows:
    """``contains_rows`` and its one-call users against ``contains_loop``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=cone_pairs(), seed=st.integers(0, 2**16))
    def test_mask_matches_the_point_loop(self, pair, seed):
        # generators, their negations, sums and differences, and random
        # points, at the default and the corpus tolerance
        k1, k2 = pair
        n = k1.dimension
        rng = np.random.default_rng(seed)
        gens = np.vstack([k1.generators, k2.generators, np.zeros((1, n))])
        pts = np.vstack([gens, -gens, gens + gens[::-1], gens - gens[::-1],
                         rng.normal(size=(8, n)), np.eye(n), -np.eye(n)])
        for cone in (k1, k2):
            for tol in (1e-9, WITNESS_TOL):
                got = cone.contains_rows(pts, tol)
                assert got.dtype == bool and got.shape == (len(pts),)
                assert got.tolist() == [contains_loop(cone, x, tol)
                                        for x in pts]
                assert got.tolist() == [cone.contains(x, tol) for x in pts]
            assert cone.is_subspace() == all(contains_loop(cone, -g)
                                             for g in cone.generators)
        rays = cones._extreme_rays(
            np.vstack([polar_cone(k1.generators).generators,
                       polar_cone(k2.generators).generators]))
        good = [contains_loop(k1, r, 1e-7) and contains_loop(k2, r, 1e-7)
                for r in rays]
        assert cone_intersection(k1, k2).generators.tobytes() == \
            rays[np.array(good, dtype=bool)].tobytes()
        diff = conic_hull(np.vstack([k1.generators, -k2.generators]))
        assert scenarios._positively_spans(k1, k2) == all(
            contains_loop(diff, sign * e, WITNESS_TOL)
            for e in np.eye(n) for sign in (1.0, -1.0))

    def test_empty_stack(self):
        for cone in (conic_hull(np.zeros((0, 2))), conic_hull([[1.0, 0.0]])):
            assert cone.contains_rows(np.zeros((0, 2))).shape == (0,)

    def test_stack_of_another_shape_refused(self):
        for cone in (conic_hull(np.zeros((0, 2))), conic_hull([[1.0, 0.0]])):
            for pts in ([1.0, 0.0], np.zeros((2, 3)), np.zeros((1, 2, 2))):
                with pytest.raises(DimensionMismatchError):
                    cone.contains_rows(pts)
            with pytest.raises(NonFiniteValueError):
                cone.contains_rows([[0.0, 0.0], [np.nan, 0.0]])

    def test_nnls_gets_one_c_ordered_matrix(self, monkeypatch):
        # scipy's nnls copies an F-ordered matrix at every call
        seen = []

        def spy(a, b):
            seen.append(a)
            return nnls(a, b)

        monkeypatch.setattr("quasidiff.core.nnls", spy)
        gens = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        mask = in_conic_hull(gens, np.eye(3), 1e-9)
        assert mask.tolist() == [False, False, False]
        assert len(seen) == 3 and all(a is seen[0] for a in seen)
        assert seen[0].flags.c_contiguous


class TestPolar:
    @pytest.mark.parametrize("vectors", [[[np.nan, 0.0]],
                                         [[np.inf, 1.0], [0.0, 1.0]]])
    def test_non_finite_vectors_refused(self, vectors):
        # NaN raised LinAlgError from the SVD, and the infinite row gave
        # the cone {(-1, -0)} with two RuntimeWarnings
        with pytest.raises(NonFiniteValueError):
            polar_cone(vectors)

    def test_polar_of_first_quadrant(self):
        c = conic_hull([[1.0, 0.0], [0.0, 1.0]])
        p = polar_cone(c.generators)
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
        p = polar_cone(line.generators)
        pp = polar_cone(p.generators)
        for g in line.generators:
            assert pp.contains(g)
        for g in pp.generators:
            assert line.contains(g)


class TestTransversality:
    def test_half_plane_and_opposing_ray(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[0.0, 1.0]])
        # K1 - K2 = upper half-plane + downward ray = the whole plane
        assert analyze_pair(k1, k2).transversal

    def test_two_rays_not_transversal(self):
        k1 = conic_hull([[1.0, 0.0]])
        k2 = conic_hull([[-1.0, 0.0]])
        assert not analyze_pair(k1, k2).transversal

    def test_matches_sampling_oracle_random(self):
        rng = np.random.default_rng(21)
        for i in range(40):
            n = int(rng.integers(2, 4))
            k1 = conic_hull(rng.normal(size=(rng.integers(1, n + 2), n)))
            k2 = conic_hull(rng.normal(size=(rng.integers(1, n + 2), n)))
            assert analyze_pair(k1, k2).transversal == \
                sampling_transversal_oracle(k1, k2, seed=i)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            analyze_pair(conic_hull([[1.0]]), conic_hull([[1.0, 0.0]]))


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
            got.verdict = STRONGLY_TRANSVERSAL

    def test_views_match_record(self):
        k1 = conic_hull([[1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[-1.0, -1.0]])
        got = analyze_pair(k1, k2)
        assert not got.transversal
        batch = analyze_pairs([(k1, k2)])[0]
        assert (batch.transversal, batch.verdict) == \
            (got.transversal, got.verdict)
        np.testing.assert_array_equal(batch.certificate.functional,
                                      got.certificate.functional)

    def test_verdict_independent_of_generator_scale(self):
        # at k <= -32 the pair read LinearlySeparable with the functional
        # (1, -1), which is positive on (3, -3)
        g1 = np.array([[0.0, -3.0], [2.0, 2.0], [2.0, -2.0]])
        g2 = np.array([[3.0, -3.0]])
        pairs = [(ConvexCone(np.ldexp(g1, k)), ConvexCone(np.ldexp(g2, k)))
                 for k in range(-60, 61)]
        assert {p.verdict for p in analyze_pairs(pairs)} == \
            {STRONGLY_TRANSVERSAL}
        # the sign check is relative to each generator's norm
        cert = SeparationCertificate(np.array([1.0, -1.0]))
        for k in (0, -40):
            assert not cert.validate(ConvexCone(np.ldexp(g1, k)),
                                     ConvexCone(np.ldexp(g2, k)))

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
        trivial = conic_hull(np.zeros((0, n)))
        assert not analyze_pair(trivial, trivial).transversal
        assert not is_full_space(trivial)
        assert analyze_pair(trivial, trivial).verdict == LINEARLY_SEPARABLE
        assert analyze_pair(trivial, trivial).certificate.validate(trivial,
                                                                   trivial)


@st.composite
def _presentations(draw):
    """Two cones in R^n, n <= 4, of at most six generators with entries
    in -2..2, an order for each cone's generators, and a signed
    permutation matrix of the coordinates."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    gens = [np.array(draw(st.lists(row, max_size=6)),
                     dtype=float).reshape(-1, n) for _ in range(2)]
    orders = [list(draw(st.permutations(range(len(g))))) for g in gens]
    axes = list(draw(st.permutations(range(n))))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                          max_size=n))
    return gens, orders, np.eye(n)[axes] * np.array(signs)[:, None]


class TestAnalyzePairsMetamorphic:
    """Changes of presentation that must leave a verdict alone."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_presentations())
    def test_verdict_invariant(self, case):
        (g1, g2), (o1, o2), signed = case
        k1, k2 = conic_hull(g1), conic_hull(g2)
        base, permuted, moved, swapped = analyze_pairs([
            (k1, k2),
            (conic_hull(g1[o1]), conic_hull(g2[o2])),
            (conic_hull(g1 @ signed.T), conic_hull(g2 @ signed.T)),
            (k2, k1)])
        assert permuted.verdict == base.verdict
        assert moved.verdict == base.verdict
        assert swapped.verdict == base.verdict
        if swapped.certificate is not None:
            assert swapped.certificate.validate(k2, k1)
        if base.certificate is not None:
            negated = SeparationCertificate(-base.certificate.functional)
            assert negated.validate(k2, k1)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_presentations(), st.data())
    def test_verdict_invariant_under_generator_scaling(self, case, data):
        # each generator scaled by its own 2^k spans the same cone
        (g1, g2), _, _ = case
        k1, k2 = conic_hull(g1), conic_hull(g2)
        scaled = tuple(conic_hull(np.ldexp(g, np.array(data.draw(st.lists(
            st.integers(-30, 30), min_size=len(g), max_size=len(g))),
            dtype=int)[:, None])) for g in (g1, g2))
        base, moved = analyze_pairs([(k1, k2), scaled])
        assert moved.verdict == base.verdict
        if moved.certificate is not None:
            assert moved.certificate.validate(*scaled)
            assert moved.certificate.validate(k1, k2)


@st.composite
def _int_systems(draw):
    """A (k, n) system, n <= 4 and k <= 6, with entries in -2..2: empty,
    zero-row and rank-deficient systems included."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return np.array(draw(st.lists(row, max_size=6)),
                    dtype=float).reshape(-1, n)


class TestNonzeroPoints:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_int_systems())
    def test_witness_agrees_with_coordinate_lps(self, a):
        (p,) = cones._nonzero_points([a])
        assert (p is None) == (coordinate_lp_witness(a, a.shape[1]) is None)
        if p is not None:
            norms = np.linalg.norm(a, axis=1)
            unit = a[norms > 0.0] / norms[norms > 0.0, None]
            assert np.max(np.abs(p)) == 1.0
            assert np.all(unit @ p <= 1e-12)


class TestAnalyzePairs:
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(cone_pairs(), min_size=1, max_size=40))
    def test_batch_agrees_with_coordinate_lp_oracle(self, pairs):
        got = analyze_pairs(pairs)
        assert len(got) == len(pairs)
        for (k1, k2), pair in zip(pairs, got):
            assert isinstance(pair, PairAnalysis)
            assert (pair.transversal, pair.verdict) == \
                coordinate_lp_verdict(k1, k2)
            assert (pair.certificate is None) == pair.transversal
            if pair.certificate is not None:
                assert pair.certificate.validate(k1, k2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            analyze_pairs([(conic_hull([[1.0]]), conic_hull([[1.0]])),
                           (conic_hull([[1.0]]), conic_hull([[1.0, 0.0]]))])

    def test_empty_batch(self):
        assert analyze_pairs([]) == []

    def test_corpus_lp_count(self, no_linprog):
        # the witness search solves no LP; the block-diagonal batch made one
        # for the whole 200-pair corpus, and the pair-by-pair search 377
        report = scenarios.run_cone_duality(200, seed=7)
        assert report["xor_holds"] == 200
        assert report["verdict_counts"] == {
            STRONGLY_TRANSVERSAL: 93, LINEARLY_SEPARABLE: 95,
            COMPLEMENTARY_SUBSPACES: 12}

    @pytest.mark.parametrize("seed,counts", [
        (0, (492, 463, 45)), (1, (466, 487, 47)), (2, (480, 483, 37)),
        (3, (471, 484, 45)), (4, (489, 464, 47))])
    def test_corpus_verdict_counts_pinned(self, seed, counts):
        # the counts of the LP witness search, which the NNLS one replaced
        report = scenarios.run_cone_duality(1000, seed=seed)
        assert report["xor_holds"] == 1000
        assert report["verdict_counts"] == dict(zip(
            (STRONGLY_TRANSVERSAL, LINEARLY_SEPARABLE,
             COMPLEMENTARY_SUBSPACES), counts))

    def test_fixture_verdicts_without_linprog(self, no_linprog):
        want = {"axes": NO_CONCLUSION,
                "half_plane_vs_ray": NOT_LOCALLY_SEPARATED,
                "half_planes": NO_CONCLUSION,
                "half_space_vs_line": NOT_LOCALLY_SEPARATED,
                "parabola_vs_axis": NO_CONCLUSION,
                "opposite_rays": NO_CONCLUSION,
                "accumulating_lines": NOT_LOCALLY_SEPARATED,
                "cone_vs_vertical_line": NOT_LOCALLY_SEPARATED,
                "abs_graph_vs_vertical_line": NO_CONCLUSION,
                "planes_3d": NOT_LOCALLY_SEPARATED}
        assert {f.name: separation_verdict(f.k1, f.k2)
                for f in builtin_fixtures()} == want

    def test_open_mapping_probe_without_linprog(self, no_linprog):
        # the generators' image cones, and on a quadrant the two one-sign
        # systems of a scalar hull, go through the witness search
        quadrant = GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0]])
        lam = OperatorSet.from_matrices([[[1.0, -1.0]], [[1.0, -2.0]]],
                                        convex_closure=True)
        F = lambda x: np.array([x[0] - 1.5 * x[1]])
        assert open_mapping_probe(F, [0.0, 0.0], [0.0], quadrant, lam, 0.1,
                                  2.0, 10, 2000, seed=0).passed
        one_sign = OperatorSet.from_matrices([[[1.0, -1.0]], [[-1.0, 1.0]]],
                                             convex_closure=True)
        with pytest.raises(SurjectivityError, match="one sign"):
            open_mapping_probe(F, [0.0, 0.0], [0.0], quadrant, one_sign, 0.1,
                               2.0, 10, 2000, seed=0)
        fold = OperatorSet.from_matrices([[[1.0, -1.0]], [[1.0, 1.0]]],
                                         convex_closure=True)
        assert open_mapping_probe(make_map("fold_sum"), [0.0, 0.0], [0.0],
                                  GammaSet.full_space(2), fold, 0.1, 2.0, 10,
                                  2000, seed=5).passed


def _is_line(cone):
    return cone.is_subspace() and np.linalg.matrix_rank(cone.generators) == 1


class TestRunConeDualityGuards:
    def test_wrong_records_are_caught(self, monkeypatch):
        # the runner must catch an analysis that lies: a transversal
        # verdict for a separable pair, a certificate that does not
        # separate, and complementary subspaces for two lines in R^3
        real = cones.analyze_pairs
        tampered = {}

        def lying(pairs):
            out = real(pairs)
            for i, ((k1, k2), pair) in enumerate(zip(pairs, out)):
                if "ranks" not in tampered and _is_line(k1) and _is_line(k2):
                    tampered["ranks"] = i
                    out[i] = PairAnalysis(None, COMPLEMENTARY_SUBSPACES)
                elif pair.certificate is None:
                    continue
                elif "span" not in tampered:
                    tampered["span"] = i
                    out[i] = PairAnalysis(None, STRONGLY_TRANSVERSAL)
                elif "invalid" not in tampered:
                    flipped = SeparationCertificate(-pair.certificate.functional)
                    if not flipped.validate(k1, k2):
                        tampered["invalid"] = i
                        out[i] = PairAnalysis(flipped, LINEARLY_SEPARABLE)
            return out

        monkeypatch.setattr(cones, "analyze_pairs", lying)
        report = scenarios.run_cone_duality(30, dims=(3,), seed=0)
        assert set(tampered) == {"ranks", "span", "invalid"}
        xor = {f["index"]: f for f in report["xor_failures"]}
        assert xor[tampered["span"]]["span_oracle_disagrees"]
        assert xor[tampered["invalid"]]["invalid_certificate"]
        # two lines do not span R^3, so the oracle refutes that pair too
        assert xor[tampered["ranks"]]["span_oracle_disagrees"]
        assert report["xor_holds"] == 27
        assert report["trichotomy_failures"] == [
            {"index": tampered["ranks"], "verdict": COMPLEMENTARY_SUBSPACES,
             "ranks": [1, 1, 2]}]
        assert not report["trichotomy_consistent"]


class TestSeparation:
    def test_separable_pair_has_valid_certificate(self):
        k1 = conic_hull([[1.0, 0.0]])
        k2 = conic_hull([[-1.0, 1.0]])
        cert = analyze_pair(k1, k2).certificate
        assert cert is not None
        assert cert.validate(k1, k2)

    def test_transversal_pair_has_no_certificate(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[0.0, 1.0]])
        assert analyze_pair(k1, k2).certificate is None


class TestClassifyPair:
    def test_strongly_transversal(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        k2 = conic_hull([[0.0, 1.0]])
        assert analyze_pair(k1, k2).verdict == STRONGLY_TRANSVERSAL

    def test_planes_sharing_a_line_strongly_transversal(self):
        # two subspaces whose dimensions add up to more than n meet along
        # the z-axis
        e = np.eye(3)
        k1 = conic_hull(np.vstack([e[[0, 2]], -e[[0, 2]]]))
        k2 = conic_hull(np.vstack([e[[1, 2]], -e[[1, 2]]]))
        assert analyze_pair(k1, k2).transversal
        assert analyze_pair(k1, k2).verdict == STRONGLY_TRANSVERSAL

    def test_complementary_subspaces(self):
        k1 = conic_hull([[1.0, 0.0], [-1.0, 0.0]])
        k2 = conic_hull([[0.0, 1.0], [0.0, -1.0]])
        assert analyze_pair(k1, k2).verdict == COMPLEMENTARY_SUBSPACES

    def test_linearly_separable(self):
        k1 = conic_hull([[1.0, 0.0]])
        k2 = conic_hull([[-1.0, 1.0]])
        assert analyze_pair(k1, k2).verdict == LINEARLY_SEPARABLE


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

    def test_image_of_the_empty_cone_is_trivial_in_the_target(self):
        img = image_cone(np.eye(3, 2), GammaSet.finite_cone(np.zeros((0, 2))))
        assert img.is_trivial and img.dimension == 3

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

    def test_dimension_mismatch(self):
        # numpy's concatenation ValueError came out of np.vstack
        with pytest.raises(DimensionMismatchError):
            cone_intersection(conic_hull([[1.0, 0.0]]),
                              conic_hull([[1.0, 0.0, 0.0]]))


def branch_image_cone(L, gamma, direction):
    """Oracle: the image cone as it was built, one branch per kind, when a
    half-line stored its direction and the full space no generators."""
    L = np.asarray(L, dtype=float)
    m = L.shape[0]
    if gamma.kind == GammaSet.FULL:
        return conic_hull(np.vstack([L.T, -L.T]))
    if gamma.kind == GammaSet.HALFLINE:
        return conic_hull([L @ direction])
    return conic_hull([L @ g for g in gamma.generators])


class TestImageConeMatchesBranches:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([GammaSet.FULL, GammaSet.HALFLINE,
                                 GammaSet.CONE]),
           m=st.integers(1, 3), n=st.integers(1, 3), k=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_values_and_verdicts_equal(self, kind, m, n, k, seed):
        rng = np.random.default_rng(seed)
        # zeros of both signs, whose sign the two builds may not share
        L = rng.normal(size=(m, n))
        L[rng.uniform(size=(m, n)) < 0.4] = 0.0
        L[rng.uniform(size=(m, n)) < 0.2] = -0.0
        direction = rng.integers(-1, 2, size=n).astype(float)
        direction[0] = 1.0
        gamma = {GammaSet.FULL: lambda: GammaSet.full_space(n),
                 GammaSet.HALFLINE: lambda: GammaSet.half_line(direction),
                 GammaSet.CONE: lambda: GammaSet.finite_cone(
                     rng.integers(-1, 2, size=(k, n)) + 0.5)}[kind]()
        got = image_cone(L, gamma)
        want = branch_image_cone(L, gamma,
                                 direction / np.linalg.norm(direction))
        assert got.dimension == want.dimension == m
        assert np.array_equal(got.generators, want.generators)
        k2 = conic_hull(rng.integers(-1, 2, size=(int(rng.integers(0, 4)), m)))
        a, b = analyze_pairs([(got, k2), (want, k2)])
        assert (a.transversal, a.verdict) == (b.transversal, b.verdict)
        assert (a.certificate is None) == (b.certificate is None)
