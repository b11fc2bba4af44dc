"""The vectorised sampling layer against the per-sample loops it replaced.

The loops below (the greedy dedupe, the per-sample finite-difference
estimators and the pointwise mollifier) are kept here as oracles only.
Where the arithmetic is unchanged the vectorised code must match them bit
for bit.  So must the catalog's row evaluators match, stacked, the fields'
own evaluators and the maps' pointwise definitions that a one-row call of
``rows`` replaced.  The active-set scan that ``_extreme_rays`` replaced is
kept as an oracle too: the Qhull read-off must span the same cone,
minimally.
"""
from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import cones
from quasidiff.certificates import gamma_intersection
from quasidiff.core import (
    DomainEscapeError,
    EstimatorFailedError,
    GammaSet,
    NonFiniteValueError,
    OperatorSet,
    ball_samples,
    convex_hull_points,
    dedupe,
    evaluate_rows,
    in_conic_hull,
)
from quasidiff.fields import abs_1d_field, abs_shear_field, \
    constant_field, linear_field, make_map, unit_x_field
from quasidiff.flows import Box, VectorField
from quasidiff.nonsmooth import (
    DIFFERENTIABILITY_THRESHOLD,
    MollifierConfig,
    _brackets,
    _quadrature_rule,
    _scored_jacobians,
    _vertex_reduce,
    clarke_jacobian_estimate,
    differentiability_score,
    fd_jacobian,
    lie_bracket_pointwise,
    mollify,
    set_lie_bracket_estimate,
)

EXAMPLES = settings(max_examples=12, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# oracles: the per-sample loops

def dedupe_loop(points, tol):
    """Oracle: keep a row unless an earlier kept row lies within tol."""
    uniq = []
    for p in np.asarray(points, dtype=float):
        if not any(np.linalg.norm(p - q) <= tol for q in uniq):
            uniq.append(p)
    return np.array(uniq).reshape(-1, np.shape(points)[1])


def fd_jacobian_loop(f, x, h):
    """Oracle: central differences, one stencil column at a time."""
    x = np.asarray(x, dtype=float)
    n = x.size
    domain = getattr(f, "domain", None)
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        if domain is not None and not (domain.contains(x + e) and
                                       domain.contains(x - e)):
            raise DomainEscapeError("finite-difference stencil leaves domain",
                                    point=x)
        cols.append((np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


def score_loop(f, x, h):
    j1 = fd_jacobian_loop(f, x, h)
    j2 = fd_jacobian_loop(f, x, h / 2.0)
    return float(np.max(np.abs(j1 - j2)) / (1.0 + np.max(np.abs(j1))))


def vertex_reduce_loop(flats):
    if flats.shape[1] <= 4 and flats.shape[0] > flats.shape[1] + 1:
        # on rows already apart by 1e-12 the hull's own dedupe keeps all
        return convex_hull_points(dedupe_loop(flats, 1e-12))
    return dedupe_loop(flats, 1e-10)


def clarke_loop(f, x_bar, radius, samples, seed, fd_step=None):
    """Oracle: score every sample, then difference the kept ones again."""
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    h = fd_step if fd_step is not None else max(radius * 1e-3, 1e-12)
    pts = ball_samples(np.random.default_rng(seed), x_bar, radius, samples)
    kept = []
    shape = None
    for x in pts:
        try:
            score = score_loop(f, x, h)
        except DomainEscapeError:
            continue
        if score > DIFFERENTIABILITY_THRESHOLD:
            continue
        jac = fd_jacobian_loop(f, x, h)
        shape = jac.shape
        kept.append(jac.ravel())
    if not kept:
        raise EstimatorFailedError("no sample kept")
    verts = vertex_reduce_loop(np.array(kept))
    gens = verts.reshape((-1,) + shape)
    return OperatorSet(gens, convex_closure=True).canonicalized()


def bracket_loop(f, g, q, radius, samples, seed, fd_step=None):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    h = fd_step if fd_step is not None else max(radius * 1e-3, 1e-12)
    pts = ball_samples(np.random.default_rng(seed), q, radius, samples)
    kept = []
    for x in pts:
        try:
            score = max(score_loop(f, x, h), score_loop(g, x, h))
        except DomainEscapeError:
            continue
        if score > DIFFERENTIABILITY_THRESHOLD:
            continue
        jf = fd_jacobian_loop(f, x, h)
        jg = fd_jacobian_loop(g, x, h)
        kept.append(jg @ np.asarray(f(x), dtype=float)
                    - jf @ np.asarray(g(x), dtype=float))
    if not kept:
        raise EstimatorFailedError("no sample kept")
    verts = vertex_reduce_loop(np.array(kept))
    return OperatorSet.from_vectors(verts, convex_closure=True).canonicalized()


def bracket_rows_loop(f, g, q, radius, samples, seed, fd_step=None):
    """Oracle: ``set_lie_bracket_estimate`` with its brackets formed one
    kept sample at a time, ``Dg(x) @ f(x) - Df(x) @ g(x)``, in a list."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    h = fd_step if fd_step is not None else max(radius * 1e-3, 1e-12)
    pts = ball_samples(np.random.default_rng(seed), q, radius, samples)
    rows_f, jf, score_f = _scored_jacobians(f, pts, h)
    rows_g, jg, score_g = _scored_jacobians(g, pts[rows_f], h)
    pts, jf = pts[rows_f][rows_g], jf[rows_g]
    keep = np.maximum(score_f[rows_g], score_g) <= DIFFERENTIABILITY_THRESHOLD
    pts = pts[keep]
    kept = [b @ fx - a @ gx for fx, gx, a, b in zip(
        evaluate_rows(f, pts, "f"), evaluate_rows(g, pts, "g"),
        jf[keep], jg[keep])]
    if not kept:
        raise EstimatorFailedError("every sample failed the differentiability "
                                   "score; try a smaller fd step")
    verts = _vertex_reduce(np.array(kept))
    return OperatorSet.from_vectors(verts, convex_closure=True).canonicalized()


def mollified_loop(f, cfg, x):
    """Oracle: the weighted quadrature sum, one point at a time."""
    pts, weights = _quadrature_rule(f.dimension, cfg.quadrature_points,
                                    cfg.seed)
    acc = np.zeros(f.dimension)
    for w, v in zip(weights, pts):
        y = x + cfg.eta * v
        if not f.domain.contains(y):
            raise DomainEscapeError("mollification stencil leaves domain",
                                    point=y)
        acc += w * f(y)
    return acc


def extreme_rays_loop(constraints, n):
    """Oracle: the active-set scan with its pairwise direction dedupe."""
    a = np.asarray(constraints, dtype=float).reshape(-1, n)
    if a.shape[0] == 0:
        eye = np.eye(n)
        return np.vstack([eye, -eye])
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0)))
    null_basis = vt[rank:]
    rays = [b for b in null_basis] + [-b for b in null_basis]
    if rank >= 1:
        rows = list(range(a.shape[0]))
        for size in range(0, n):
            for subset in itertools.combinations(rows, size):
                sub = a[list(subset)]
                if sub.shape[0] == 0:
                    candidates = list(np.eye(n))
                else:
                    _, s2, vt2 = np.linalg.svd(sub, full_matrices=True)
                    r2 = int(np.sum(
                        s2 > 1e-10 * max(1.0, s2[0] if s2.size else 1.0)))
                    candidates = list(vt2[r2:])
                for v in candidates:
                    for cand in (v, -v):
                        if np.all(a @ cand <= 1e-9):
                            rays.append(cand)
    out = []
    for r in rays:
        nrm = np.linalg.norm(r)
        if nrm <= 1e-12:
            continue
        r = r / nrm
        if not any(np.linalg.norm(r - q) <= 1e-8 for q in out):
            out.append(r)
    return np.array(out).reshape(-1, n)


# ---------------------------------------------------------------------------
# test maps and fields

def smooth_2d(x):
    return np.array([x[0] * x[0] - x[1] * x[1], x[0] * x[1]])


def cut_field(value, lo, hi):
    """A field on a box that the sample ball around 0 overhangs."""
    return VectorField(value, Box(np.array(lo), np.array(hi)))


def refusing_field():
    """abs_shear that refuses points with x1 > 2e-4 by raising, as an
    evaluator whose own stencil left its domain would."""
    def value(x):
        if x[0] > 2e-4:
            raise DomainEscapeError("refused", point=x)
        return np.array([0.0, abs(x[0])])
    return VectorField(value, Box(-np.ones(2), np.ones(2)))


def nan_on_right(x):
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.array([np.nan if x[0] > 0 else abs(x[0])])


def same_generators(a, b):
    return np.array_equal(a.flat_generators(), b.flat_generators())


def refusing_rows_field():
    """refusing_field with a row evaluator that refuses a whole stencil
    column when any of its rows has x1 > 2e-4."""
    def rows(X):
        if np.any(X[:, 0] > 2e-4):
            raise DomainEscapeError("refused", point=X[np.argmax(X[:, 0])])
        return np.column_stack([np.zeros(len(X)), np.abs(X[:, 0])])
    return replace(refusing_field(), rows=rows)


def stacked_loop(F, X):
    """Oracle: F at each row of X, one call per row, stacked."""
    return np.array([np.asarray(F(x), dtype=float) for x in X]) \
        .reshape(len(X), -1)


def outcome(fn):
    """The bytes and shape of ``fn()``, or the type of what it raised."""
    try:
        out = np.asarray(fn(), dtype=float)
    except ArithmeticError as exc:  # float ** 2 overflows
        return type(exc)
    return out.shape, out.tobytes()


# signed zeros, and both signs at magnitudes from 1e-300 to 1e300
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999),
              st.integers(-300, 299)))


def entry_arrays(*shape):
    size = int(np.prod(shape))
    return st.lists(ENTRIES, min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=float).reshape(shape))


# the catalog maps' pointwise definitions, which their one-row calls replaced
POINTWISE_MAPS = {
    "map:fold_sum": lambda x: np.array([x[0] + abs(x[1])]),
    "map:identity": lambda x: np.asarray(x, dtype=float).reshape(3),
    "map:abs1d": lambda x: np.array([abs(np.asarray(x).reshape(-1)[0])]),
    "map:square1d": lambda x: np.array(
        [float(np.asarray(x).reshape(-1)[0]) ** 2]),
}

# the catalog, by label: (builder, input dimension)
CATALOG = {
    "map:fold_sum": (lambda: make_map("fold_sum"), 2),
    "map:identity": (lambda: make_map("identity", {"dimension": 3}), 3),
    "map:abs1d": (lambda: make_map("abs1d"), 1),
    "map:square1d": (lambda: make_map("square1d"), 1),
    "field:constant": (lambda: constant_field([2.5, -0.0, 1e-300]), 3),
    "field:unit_x": (unit_x_field, 2),
    "field:abs_shear": (abs_shear_field, 2),
    "field:abs1d": (abs_1d_field, 1),
}


def refusing_map(x):
    """The fold x1 + |x2|, refusing points with x1 > 2e-4 by raising."""
    if x[0] > 2e-4:
        raise DomainEscapeError("refused", point=x)
    return np.array([x[0] + abs(x[1])])


# pointwise maps without rows, by label: (map, centre of the sample ball)
POINTWISE_ESTIMATES = {
    "fold": (POINTWISE_MAPS["map:fold_sum"], [0.3, 0.0]),
    "smooth 2-D": (smooth_2d, [0.4, -0.7]),
    "refusing fold": (refusing_map, [0.0, 0.0]),
    "scalar fold": (lambda x: x[0] + abs(x[1]), [-0.2, 0.0]),
}


# ---------------------------------------------------------------------------

class TestDedupe:
    @EXAMPLES
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           tol=st.sampled_from([1e-12, 1e-10, 1e-8, 0.1]),
           spread=st.sampled_from([10.0, 1000.0]))
    def test_matches_greedy_loop(self, seed, dim, tol, spread):
        rng = np.random.default_rng(seed)
        # coordinates of size spread * tol keep the planted distances
        # tol * (1 +- 1e-6) well resolved in floating point
        pts = spread * tol * rng.normal(size=(40, dim))
        u = rng.normal(size=(20, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        scale = tol * np.where(rng.uniform(size=(20, 1)) < 0.5,
                               1.0 - 1e-6, 1.0 + 1e-6)
        near = pts[rng.integers(40, size=20)] + scale * u
        repeats = pts[rng.integers(40, size=15)]
        cloud = np.vstack([pts, near, repeats])[rng.permutation(75)]
        got = dedupe(cloud, tol)
        assert np.array_equal(got, dedupe_loop(cloud, tol))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                         min_size=1, max_size=30),
           reach=st.sampled_from([0.5, 1.5, 2.5, 4.5]))
    def test_idempotent_and_first_occurrence(self, rows, reach):
        # squared grid distances are integers, so no distance is near tol
        cloud = 1e-3 * np.array(rows, dtype=float)
        tol = 1e-3 * np.sqrt(reach)
        kept = dedupe(cloud, tol)
        assert np.array_equal(dedupe(kept, tol), kept)
        first = [min(i for i, r in enumerate(cloud) if np.array_equal(r, x))
                 for x in kept]
        assert first[0] == 0 and first == sorted(set(first))
        for i, x in enumerate(cloud):
            # kept exactly when no earlier kept row lies within tol
            earlier = [j for j in first
                       if j < i and np.linalg.norm(x - cloud[j]) <= tol]
            assert (i in first) == (not earlier)

    def test_planted_neighbours_on_both_sides(self):
        base = np.zeros((1, 2))
        cloud = np.vstack([base, [[1e-8 * (1 - 1e-6), 0.0]],
                           [[0.0, 1e-8 * (1 + 1e-6)]], base])
        assert np.array_equal(dedupe(cloud, 1e-8), cloud[[0, 2]])

    def test_empty_and_single(self):
        assert dedupe(np.zeros((0, 3)), 1e-8).shape == (0, 3)
        assert np.array_equal(dedupe([[1.0, 2.0]], 1e-8), [[1.0, 2.0]])

    @pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300])
    def test_nan_or_negative_tolerance_refused(self, tol):
        # such a tol kept all five equal rows
        with pytest.raises(ValueError, match="tolerance"):
            dedupe(np.ones((5, 2)), tol)
        assert dedupe(np.ones((5, 2)), 0.0).shape == (1, 2)


class TestDedupeAgainstTree:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           tol=st.sampled_from([1e-12, 1e-10, 1e-3]),
           nans=st.integers(0, 3))
    def test_clusters_isolated_and_nan_rows_match_loop(self, seed, dim, tol,
                                                       nans):
        # tight clusters (repeats and neighbours at tol * (1 +- 1e-6)),
        # rows far from every other, and rows with a NaN entry, shuffled
        rng = np.random.default_rng(seed)
        centres = 100.0 * tol * rng.normal(size=(30, dim))
        u = rng.normal(size=(150, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        scale = tol * rng.choice([0.3, 1.0 - 1e-6, 1.0 + 1e-6, 2.0],
                                 size=(150, 1))
        clusters = centres[rng.integers(30, size=150)] + scale * u
        isolated = 1e4 * tol * rng.normal(size=(120, dim))
        nan_rows = rng.normal(size=(nans, dim))
        nan_rows[:, rng.integers(dim)] = np.nan
        cloud = np.vstack([centres, clusters, isolated, nan_rows])
        cloud = cloud[rng.permutation(len(cloud))]
        got = dedupe(cloud, tol)
        assert got.tobytes() == dedupe_loop(cloud, tol).tobytes()

    # inf - inf in a distance, alike in both
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           tol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-3]),
           nonfinite=st.sampled_from([None, np.nan, np.inf, -np.inf]))
    def test_kink_clouds_of_exact_repeats_match_loop(self, seed, dim, tol,
                                                     nonfinite):
        # a few distinct rows, as at a kink, each repeated hundreds of
        # times, with neighbours at tol * (1 +- 1e-6), rows of signed zeros
        # and repeated non-finite rows, shuffled
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(3, dim))
        u = rng.normal(size=(6, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        near = base[rng.integers(3, size=6)] \
            + tol * rng.choice([1.0 - 1e-6, 1.0 + 1e-6], size=(6, 1)) * u
        zeros = np.where(rng.uniform(size=(4, dim)) < 0.5, 0.0, -0.0)
        pool = np.vstack([base, near, zeros])
        cloud = pool[rng.integers(len(pool), size=2000)]
        if nonfinite is not None:
            bad = np.repeat(base[:1], 5, axis=0)
            bad[:, -1] = nonfinite
            cloud = np.vstack([cloud, bad])
        cloud = cloud[rng.permutation(len(cloud))]
        got = dedupe(cloud, tol)
        assert got.tobytes() == dedupe_loop(cloud, tol).tobytes()


class TestRowEvaluators:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), label=st.sampled_from(sorted(CATALOG)),
           k=st.integers(1, 6))
    def test_catalog_rows_match_pointwise(self, data, label, k):
        make, n = CATALOG[label]
        F = make()
        X = data.draw(entry_arrays(k, n))
        assert outcome(lambda: F.rows(X)) == \
            outcome(lambda: stacked_loop(POINTWISE_MAPS.get(label, F), X))

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_empty_row_call(self, label):
        make, n = CATALOG[label]
        F = make()
        width = np.asarray(F.rows(np.ones((1, n)))).shape[1]
        got = F.rows(np.zeros((0, n)))
        assert got.shape == (0, width) and got.dtype == float

    def test_constant_field_keeps_its_copy(self):
        # signed zeros survive; the caller's array stays its own, and the
        # one value every call hands out cannot be written
        value = np.array([-0.0, 0.0, -2.0])
        f = constant_field(value)
        value[:] = 5.0
        want = np.array([-0.0, 0.0, -2.0]).tobytes()
        assert f(np.zeros(3)).tobytes() == want
        assert f.rows(np.zeros((4, 3))).tobytes() == want * 4
        with pytest.raises(ValueError):
            f(np.zeros(3))[0] = 1.0

    @pytest.mark.parametrize("label", sorted(
        label for label in CATALOG if label.startswith("map:")))
    def test_map_call_is_one_row(self, label):
        make, n = CATALOG[label]
        F = make()
        point = -1.5 - np.arange(n, dtype=float)
        want = F.rows(point.reshape(1, -1))
        inputs = [point, point.tolist()] + ([float(point[0])] if n == 1 else [])
        for x in inputs:
            got = F(x)
            assert got.shape == want.shape[1:]
            assert got.tobytes() == want[0].tobytes()

    # products of entries near 1e300 overflow, alike on both paths
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 5), m=st.integers(1, 3),
           k=st.integers(1, 6))
    def test_linear_rows_match_pointwise(self, data, n, m, k):
        # linear_field takes a square matrix; an m x n one checks the
        # stacked product of any shape
        a = data.draw(entry_arrays(m, n))
        f = linear_field(data.draw(entry_arrays(n, n)))
        g = replace(f, evaluator=lambda x: a @ x, rows=lambda X: np.matmul(
            a[None], X[:, :, None])[:, :, 0])
        X = data.draw(entry_arrays(k, n))
        for F in (f, g):
            assert outcome(lambda: F.rows(X)) == \
                outcome(lambda: stacked_loop(F, X))

    def test_refused_row_call_falls_back_to_the_loop(self):
        g, want = refusing_rows_field(), refusing_field()
        pts = ball_samples(np.random.default_rng(7), np.zeros(2), 1e-3, 400)
        got = _scored_jacobians(g, pts, 1e-4)
        ref = _scored_jacobians(want, pts, 1e-4)
        assert 0 < len(got[0]) < len(pts)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        f = unit_x_field()
        assert same_generators(
            clarke_jacobian_estimate(g, [0.0, 0.0], 1e-3, 300, 4),
            clarke_jacobian_estimate(want, [0.0, 0.0], 1e-3, 300, 4))
        assert same_generators(
            set_lie_bracket_estimate(f, g, [0.0, 0.0], 1e-3, 300, 4),
            set_lie_bracket_estimate(f, want, [0.0, 0.0], 1e-3, 300, 4))


class TestEstimatorsMatchLoops:
    @EXAMPLES
    @given(seed=st.integers(0, 2**31 - 1), label=st.sampled_from(
        ["abs1d", "fold_sum", "square1d", "smooth2d"]),
        offset=st.floats(-1.0, 1.0))
    def test_clarke_bit_identical(self, seed, label, offset):
        f = smooth_2d if label == "smooth2d" else make_map(label)
        dim = 1 if label in ("abs1d", "square1d") else 2
        # kink maps are centred on their kink, the smooth ones anywhere
        x_bar = [0.0] * dim if label in ("abs1d", "fold_sum") \
            else [offset] * dim
        if label == "fold_sum":
            x_bar[0] = offset
        got = clarke_jacobian_estimate(f, x_bar, 1e-3, 150, seed)
        want = clarke_loop(f, x_bar, 1e-3, 150, seed)
        assert same_generators(got, want)

    @EXAMPLES
    @given(seed=st.integers(0, 2**31 - 1), x2=st.floats(-1.0, 1.0))
    def test_bracket_bit_identical(self, seed, x2):
        f, g = unit_x_field(), abs_shear_field()
        got = set_lie_bracket_estimate(f, g, [0.0, x2], 1e-3, 150, seed)
        want = bracket_loop(f, g, [0.0, x2], 1e-3, 150, seed)
        assert same_generators(got, want)

    def test_linear_bracket_bit_identical(self):
        f = linear_field([[0.0, 1.0], [0.0, 0.0]])
        g = linear_field([[0.0, 0.0], [1.0, 0.0]])
        got = set_lie_bracket_estimate(f, g, [0.3, -0.7], 1e-3, 200, 3)
        assert same_generators(got,
                               bracket_loop(f, g, [0.3, -0.7], 1e-3, 200, 3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_escaping_stencils_skipped_alike(self, seed):
        # both boxes cut the sample ball of radius 1e-3 around 0
        f = cut_field(lambda x: np.array([1.0, 0.0]),
                      [-1.0, -1.0], [4e-4, 1.0])
        g = cut_field(lambda x: np.array([0.0, abs(x[0])]),
                      [-1.0, -5e-4], [1.0, 1.0])
        pts = ball_samples(np.random.default_rng(seed), np.zeros(2), 1e-3,
                            300)
        # a step of 1e-4 puts samples inside the box within one step of
        # each cut, so that only the + or only the - stencil escapes
        h = 1e-4
        assert np.any((pts[:, 0] <= 4e-4) & (pts[:, 0] + h > 4e-4))
        assert np.any((pts[:, 1] >= -5e-4) & (pts[:, 1] - h < -5e-4))
        args = ([0.0, 0.0], 1e-3, 300, seed)
        assert same_generators(
            set_lie_bracket_estimate(f, g, *args, fd_step=h),
            bracket_loop(f, g, *args, fd_step=h))
        assert same_generators(
            clarke_jacobian_estimate(g, *args, fd_step=h),
            clarke_loop(g, *args, fd_step=h))

    @pytest.mark.parametrize("field", ["cut", "refusing"])
    def test_bulk_pass_keeps_the_same_samples(self, field):
        # per sample: kept exactly when the loop raises no
        # DomainEscapeError, with the loop's Jacobian and score
        g = refusing_field() if field == "refusing" else cut_field(
            lambda x: np.array([x[0] * x[1], abs(x[0])]),
            [-4e-4, -5e-4], [4e-4, 5e-4])
        h = 1e-4
        pts = ball_samples(np.random.default_rng(7), np.zeros(2), 1e-3, 400)
        rows, jac, score = _scored_jacobians(g, pts, h)
        want = []
        for i, x in enumerate(pts):
            try:
                want.append((i, score_loop(g, x, h)))
            except DomainEscapeError:
                continue
        assert 0 < len(want) < len(pts)
        assert rows.tolist() == [i for i, _ in want]
        assert score.tolist() == [s for _, s in want]
        assert all(np.array_equal(j, fd_jacobian_loop(g, pts[i], h))
                   for i, j in zip(rows, jac))

    def test_refusing_evaluations_skipped_alike(self):
        g = refusing_field()
        f = unit_x_field()
        assert same_generators(
            clarke_jacobian_estimate(g, [0.0, 0.0], 1e-3, 300, 4),
            clarke_loop(g, [0.0, 0.0], 1e-3, 300, 4))
        assert same_generators(
            set_lie_bracket_estimate(f, g, [0.0, 0.0], 1e-3, 300, 4),
            bracket_loop(f, g, [0.0, 0.0], 1e-3, 300, 4))

    @pytest.mark.parametrize("label", sorted(POINTWISE_ESTIMATES))
    def test_pointwise_maps_bit_identical(self, label):
        # maps without rows, which the stencil pass calls point by point
        f, x_bar = POINTWISE_ESTIMATES[label]
        for seed in (0, 1):
            got = clarke_jacobian_estimate(f, x_bar, 1e-3, 300, seed)
            assert same_generators(got,
                                   clarke_loop(f, x_bar, 1e-3, 300, seed))
        pts = ball_samples(np.random.default_rng(3), np.asarray(x_bar),
                           1e-3, 300)
        rows, jac, score = _scored_jacobians(f, pts, 1e-5)
        want = []
        for i, x in enumerate(pts):
            try:
                want.append((i, score_loop(f, x, 1e-5)))
            except DomainEscapeError:
                continue
        assert rows.tolist() == [i for i, _ in want]
        assert score.tolist() == [s for _, s in want]
        assert all(np.array_equal(j, fd_jacobian_loop(f, pts[i], 1e-5))
                   for i, j in zip(rows, jac))

    def test_one_row_views(self):
        x = np.array([0.31, -0.2])
        assert np.array_equal(np.asarray(fd_jacobian(smooth_2d, x, 1e-5)),
                              fd_jacobian_loop(smooth_2d, x, 1e-5))
        assert differentiability_score(smooth_2d, x, 1e-5) == \
            score_loop(smooth_2d, x, 1e-5)


def estimate_outcome(run):
    """The generators' bytes of an estimate, or its error's type and
    message."""
    try:
        return run().flat_generators().tobytes()
    except EstimatorFailedError as err:
        return type(err).__name__, str(err)


def rotation_field():
    """A linear field with distinct Jacobian entries, and a row evaluator."""
    return linear_field([[0.3, -1.2], [0.7, 0.1]])


# bracket pairs by label, each field with or without rows; a field without
# rows is called point by point
BRACKET_PAIRS = {
    "unit_x/abs_shear": (unit_x_field, abs_shear_field),
    "linear/linear": (rotation_field,
                      lambda: linear_field([[0.0, 0.0], [1.0, -0.5]])),
    "linear/abs_shear": (rotation_field, abs_shear_field),
    "pointwise": (lambda: replace(rotation_field(), rows=None),
                  lambda: replace(abs_shear_field(), rows=None)),
}


class TestStackedBrackets:
    """The stacked bracket product against the per-sample list it
    replaced, by bytes, errors included."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pair=st.sampled_from(sorted(BRACKET_PAIRS)),
           seed=st.integers(0, 2**31 - 1), x1=st.floats(-1.0, 1.0),
           x2=st.floats(-1.0, 1.0), on_kink=st.booleans())
    def test_estimate_bytes(self, pair, seed, x1, x2, on_kink):
        make_f, make_g = BRACKET_PAIRS[pair]
        f, g = make_f(), make_g()
        q = [0.0 if on_kink else x1, x2]
        assert estimate_outcome(lambda: set_lie_bracket_estimate(
            f, g, q, 1e-3, 120, seed)) == estimate_outcome(
            lambda: bracket_rows_loop(f, g, q, 1e-3, 120, seed))

    @pytest.mark.parametrize("g", [
        # central differences of x1^3 at 1e-1 and 5e-2 differ by 7.5e3,
        # so every sample fails the score
        VectorField(lambda x: np.array([0.0, 1e6 * x[0] ** 3]),
                    Box(-np.ones(2), np.ones(2))),
        # every stencil leaves the box, so no sample is scored
        cut_field(lambda x: np.array([0.0, abs(x[0])]), [0.5, 0.5],
                  [1.0, 1.0])], ids=["score", "domain"])
    def test_every_sample_refused(self, g):
        f = unit_x_field()
        got = estimate_outcome(lambda: set_lie_bracket_estimate(
            f, g, [0.0, 0.0], 1e-3, 50, 0, fd_step=1e-1))
        assert got == estimate_outcome(lambda: bracket_rows_loop(
            f, g, [0.0, 0.0], 1e-3, 50, 0, fd_step=1e-1))
        assert got == ("EstimatorFailedError", "every sample failed the "
                       "differentiability score; try a smaller fd step")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), k=st.integers(0, 40),
           seed=st.integers(0, 2**16))
    def test_product_matches_per_row_matmul(self, n, k, seed):
        rng = np.random.default_rng(seed)
        jf, jg = rng.normal(size=(2, k, n, n)) * 10.0 ** rng.integers(
            -8, 8, size=(2, k, 1, 1))
        fx, gx = rng.normal(size=(2, k, n))
        got = _brackets(jf, jg, fx, gx)
        want = np.array([b @ u - a @ v for a, b, u, v in zip(jf, jg, fx, gx)])
        assert got.shape == (k, n)
        assert got.tobytes() == want.reshape(k, n).tobytes()

    def test_pointwise_bracket_is_the_one_row_view(self):
        f, g = rotation_field(), abs_shear_field()
        for x in ([0.31, -0.2], [-0.5, 0.25]):
            jf, jg = fd_jacobian(f, x, 1e-5), fd_jacobian(g, x, 1e-5)
            want = jg @ f(np.array(x)) - jf @ g(np.array(x))
            assert lie_bracket_pointwise(f, g, x, 1e-5).tobytes() == \
                want.tobytes()


class TestNonFiniteValues:
    def test_clarke_raises(self):
        with pytest.raises(NonFiniteValueError):
            clarke_jacobian_estimate(nan_on_right, [0.0], 1e-3, 200, 0)

    def test_bracket_raises(self):
        g = VectorField(lambda x: np.array([0.0, nan_on_right(x)[0]]),
                        Box(-np.ones(2), np.ones(2)))
        with pytest.raises(NonFiniteValueError):
            set_lie_bracket_estimate(unit_x_field(), g, [0.0, 0.0], 1e-3,
                                     200, 0)

    def test_bracket_raises_at_kept_point(self):
        # every stencil value is finite; only f at the samples themselves,
        # where the bracket takes f(x) and g(x), is not
        pts = ball_samples(np.random.default_rng(0), np.zeros(2), 1e-3, 50)
        samples = {tuple(p) for p in pts}
        f = VectorField(lambda x: np.array(
            [np.nan if tuple(x) in samples else 1.0, 0.0]),
            Box(-np.ones(2), np.ones(2)))
        g = linear_field([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NonFiniteValueError) as err:
            set_lie_bracket_estimate(f, g, [0.0, 0.0], 1e-3, 50, 0)
        assert np.array_equal(err.value.point, pts[0])

    def test_one_row_views_raise(self):
        with pytest.raises(NonFiniteValueError):
            fd_jacobian(nan_on_right, [0.5], 1e-3)
        with pytest.raises(NonFiniteValueError):
            differentiability_score(nan_on_right, [0.5], 1e-3)

    def test_mollify_raises_at_first_nan_point(self):
        f = VectorField(nan_on_right, Box(-np.ones(1), np.ones(1)))
        cfg = MollifierConfig(eta=1e-2, quadrature_points=64)
        with pytest.raises(NonFiniteValueError) as err:
            mollify(f, cfg)(np.zeros(1))
        pts, _ = _quadrature_rule(1, 64, 0)
        first = pts[np.argmax(pts[:, 0] > 0)]
        assert np.array_equal(err.value.point, 1e-2 * first)


class TestMollifierMatchesLoop:
    @EXAMPLES
    @given(seed=st.integers(0, 2**16), x=st.floats(-0.5, 0.5),
           which=st.sampled_from(["abs1d", "shear", "linear"]))
    def test_value_bit_identical(self, seed, x, which):
        if which == "abs1d":
            f = VectorField(lambda y: np.array([abs(y[0])]),
                            Box(-np.ones(1), np.ones(1)))
            point = np.array([x])
        else:
            f = abs_shear_field() if which == "shear" else \
                linear_field([[0.0, 1.0], [-2.0, 0.5]])
            point = np.array([x, -x / 3.0])
        cfg = MollifierConfig(eta=0.05, quadrature_points=128, seed=seed)
        got = mollify(f, cfg)(point)
        want = mollified_loop(f, cfg, point)
        # bytes, so that the sign of a zero counts too
        assert got.tobytes() == want.tobytes()

    def test_escape_raised_at_same_point(self):
        f = VectorField(lambda y: np.array([1.0, 0.0]),
                        Box(-np.ones(2), np.ones(2)))
        cfg = MollifierConfig(eta=0.1, quadrature_points=64)
        x = np.array([0.95, 0.0])
        with pytest.raises(DomainEscapeError) as got:
            mollify(f, cfg)(x)
        with pytest.raises(DomainEscapeError) as want:
            mollified_loop(f, cfg, x)
        assert np.array_equal(got.value.point, want.value.point)


def in_cone(rays, x, tol=1e-7):
    """x lies in cone(rays), by NNLS with the residual recomputed."""
    if len(rays) == 0:
        return bool(np.linalg.norm(x) <= tol)
    return in_conic_hull(rays, x, tol)


def assert_minimal_polar(got, a, n):
    """``_extreme_rays(a)`` output, a of width n, against the active-set
    scan: every ray meets the constraints, both outputs span the same cone,
    and no output ray lies in the cone of the others."""
    want = extreme_rays_loop(a, n)
    assert got.shape[1] == n
    assert np.all(np.asarray(a).reshape(-1, n) @ got.T <= 1e-9)
    assert all(in_cone(got, r) for r in want)
    assert all(in_cone(want, r) for r in got)
    assert not any(in_cone(np.delete(got, i, axis=0), r)
                   for i, r in enumerate(got))


class TestExtremeRays:
    def test_cone_test_inputs_minimal_and_same_cone(self, monkeypatch):
        calls = []
        original = cones._extreme_rays

        def checked(constraints):
            got = original(constraints)
            n = constraints.shape[1]
            assert_minimal_polar(got, constraints, n)
            calls.append(n)
            return got

        monkeypatch.setattr(cones, "_extreme_rays", checked)
        quad = cones.conic_hull([[1.0, 0.0], [0.0, 1.0]])
        half = cones.conic_hull([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        line = cones.conic_hull([[1.0, 1.0], [-1.0, -1.0]])
        cones.polar_cone(quad.generators)
        cones.polar_cone([[1.0, 0.0]])
        cones.polar_cone(np.zeros((0, 3)))
        polar = cones.polar_cone(line.generators)
        cones.polar_cone(polar.generators)
        cones.cone_intersection(quad, half)
        cones.cone_intersection(cones.conic_hull([[1.0, 0.0]]),
                                cones.conic_hull([[-1.0, 0.0]]))
        gamma_intersection(GammaSet.finite_cone([[1.0, 0.0], [1.0, 1.0]]),
                           GammaSet.finite_cone([[1.0, 1.0], [0.0, 1.0]]))
        assert len(calls) >= 11

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 5))
    def test_random_constraints_minimal_and_same_cone(self, data, n, k):
        a = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n * k,
                                        max_size=n * k)),
                     dtype=float).reshape(k, n)
        assert_minimal_polar(cones._extreme_rays(a), a, n)

    def test_close_facet_normals_both_kept(self):
        # the normals of two facets of cone(rows) are 1.4e-9 apart; merging
        # them flattens the polar, which then misses the scan's ray -e1.
        # Minimality is not checked: at NNLS tolerance each of the two
        # rays lies in the cone of the other
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-9]])
        got = cones._extreme_rays(a)
        assert len(got) == 3 and np.all(a @ got.T <= 1e-9)
        assert all(in_cone(got, r) for r in extreme_rays_loop(a, 3))

    def test_gaussian_intersection_is_minimal(self):
        # the scan returned 253 rays here, in about 45 s; the n = 3 and
        # n = 4 pairs are drawn first only to keep the stream
        rng = np.random.default_rng(0)
        for n, k in ((3, 5), (4, 6), (5, 7)):
            g1, g2 = rng.normal(size=(k, n)), rng.normal(size=(k, n))
        inter = cones.cone_intersection(cones.conic_hull(g1),
                                        cones.conic_hull(g2)).generators
        assert inter.shape == (27, 5)
        assert all(in_cone(g1, r) and in_cone(g2, r) for r in inter)
        assert not any(in_cone(np.delete(inter, i, axis=0), r)
                       for i, r in enumerate(inter))
