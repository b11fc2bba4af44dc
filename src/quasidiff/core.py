"""Shared geometric primitives: linear maps, compact operator sets, hulls,
and the two sampling primitives of every sampled check: ``ball_samples``
draws the points and ``evaluate_rows`` calls a map on them.

All values are immutable after construction and every operation is pure,
so everything here is safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull as _QhullHull
from scipy.spatial import QhullError
from scipy.spatial import cKDTree

VERDICT_TOL = 1e-8
# redraws of a box direction set before a short sample is returned
BOX_SAMPLE_ROUNDS = 64


class DimensionMismatchError(ValueError):
    """Shapes of two operands are incompatible."""


class EstimatorFailedError(RuntimeError):
    """A sampling estimator could not keep a single admissible sample."""


class DomainEscapeError(RuntimeError):
    """A trajectory or evaluation point left the declared box domain."""

    def __init__(self, message: str, point=None, time=None):
        super().__init__(message)
        self.point = point
        self.time = time


class BlowUpError(RuntimeError):
    """A trajectory produced a non-finite state."""


class NonFiniteValueError(ValueError):
    """A sampled map or field returned NaN or an infinite value."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True, slots=True)
class RowMap:
    """A map defined by ``rows``, its values at the rows of (k, n) arrays,
    one array per argument, stacked along a first axis of length k; a call
    at one point is ``rows`` of that point as a one-row array.  The catalog
    maps, the certificate families and the abundant membership oracle are
    row maps.  Slotted, so a ``functools.wraps`` wrapper copies no ``rows``
    and stays a pointwise map."""

    rows: Callable

    def __call__(self, *args):
        return self.rows(*(np.asarray(a, dtype=float).reshape(1, -1)
                           for a in args))[0]


def evaluate_rows(F, points, name: str) -> np.ndarray:
    """F at every row of ``points``, stacked into a ``(k, m)`` array.

    When F carries a row evaluator ``F.rows`` (the catalog's maps and
    fields do), it is called once on the whole ``(k, n)`` sample, the rows
    of a 1-D ``points`` as a column.  Otherwise, or when that call raises
    ``DomainEscapeError``, F is called once per row, in order, and the rows
    of a 1-D ``points`` are passed as floats.  Raises
    ``NonFiniteValueError`` at the first row whose value has a NaN or an
    infinite entry: such a value fails every comparison and so would pass
    every check.  The entries are tested once, and row by row only to name
    that row.  The test is on entries, so a huge finite value whose norm
    overflows is left to the caller's bound.  Empty ``points`` call nothing
    and give a ``(0, 0)`` array.
    """
    pts = np.asarray(points, dtype=float)
    values = _unchecked_rows(F, pts)
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values).all(axis=1)))
        x = pts[i].tolist() if pts.ndim == 1 else pts[i]
        raise NonFiniteValueError(f"{name} returned a non-finite value at "
                                  f"{np.asarray(x).tolist()}", point=x)
    return values


def _unchecked_rows(F, points) -> np.ndarray:
    """The values of ``evaluate_rows``, without its finiteness test."""
    pts = np.asarray(points, dtype=float)
    if not len(pts):
        return np.zeros((0, 0))
    values = _row_values(F, pts.reshape(len(pts), -1))
    if values is None:
        rows = pts.tolist() if pts.ndim == 1 else pts
        values = np.array([F(x) for x in rows], dtype=float)
    return values.reshape(len(pts), -1)


def _row_values(F, X: np.ndarray):
    """``F.rows(X)`` read as a float array with one row per row of the
    (k, n) array ``X``, without a copy when it already is one (no caller
    writes into it), or None when F has no row evaluator or it raises
    ``DomainEscapeError``: the caller then calls F row by row."""
    rows = getattr(F, "rows", None)
    if rows is None:
        return None
    try:
        return np.asarray(rows(X), dtype=float).reshape(len(X), -1)
    except DomainEscapeError:
        return None


def row_norms(rows) -> np.ndarray:
    """The Euclidean norm of each row of a (k, d) array by one BLAS dot per
    row, as ``np.linalg.norm`` of the row (``norm(axis=1)`` differs)."""
    a = np.ascontiguousarray(rows, dtype=float)
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


def box_bounds(lo, hi) -> tuple:
    """Read-only float copies of a box's bounds, which must share a shape,
    hold no NaN and have lo <= hi; an infinite bound is legal."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if lo.shape != hi.shape:
        raise DimensionMismatchError("box bounds of different shapes")
    if np.isnan([lo, hi]).any():
        raise NonFiniteValueError("box bounds must not be NaN")
    if (lo > hi).any():
        raise ValueError("box bounds are inverted: lo > hi")
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def ball_samples(rng: np.random.Generator, center, radius: float,
                 count: int) -> np.ndarray:
    """``count`` points uniform in ``center + B_radius``: normalised
    Gaussian directions at radii ``radius * U ** (1/n)``."""
    center = np.asarray(center, dtype=float)
    n = center.size
    dirs = rng.normal(size=(count, n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
    return center + dirs * radii


def as_matrix(value) -> np.ndarray:
    """A linear map (an array-like or a ``LinearMap``) as a read-only m x n
    float copy, a scalar as 1 x 1 and a row as 1 x n; another shape raises
    ``ValueError``, a NaN or an infinity ``NonFiniteValueError``."""
    arr = np.array(value, dtype=float, ndmin=2)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError("a linear map must be an m x n matrix with m, n >= 1")
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("a linear map must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LinearMap:
    """A linear map as input: ``np.asarray`` reads its checked entries."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", as_matrix(self.entries))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class OperatorSet:
    """A compact set of linear maps, represented by finitely many generators:
    a read-only float array of shape (k, m, n), one m x n matrix per
    generator, like ``ConvexCone.generators``.

    With ``convex_closure`` the set is the convex hull of the generators,
    otherwise the generator list itself.
    """

    generators: np.ndarray
    convex_closure: bool = False

    def __post_init__(self):
        try:
            gens = np.array(self.generators, dtype=float)
        except ValueError as exc:  # a ragged list of matrices
            raise DimensionMismatchError(
                "generators must share one shape") from exc
        if not len(gens):
            raise ValueError("operator set needs at least one generator")
        if gens.ndim != 3 or 0 in gens.shape:
            raise ValueError("generators must form a (k, m, n) array with "
                             "m, n >= 1")
        if not np.all(np.isfinite(gens)):
            raise NonFiniteValueError("generators must be finite")
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def shape(self) -> tuple:
        return self.generators.shape[1:]

    def flat_generators(self) -> np.ndarray:
        """The generators as the rows of a read-only (k, m * n) view."""
        return self.generators.reshape(len(self.generators), -1)

    def canonicalized(self) -> "OperatorSet":
        """Sort generators lexicographically so hulls compare bitwise."""
        order = _canonical_order(self.flat_generators())
        return OperatorSet(self.generators[order], self.convex_closure)

    @staticmethod
    def from_matrices(mats: Sequence, convex_closure: bool = False) -> "OperatorSet":
        """One generator per entry of ``mats``, read by ``as_matrix``."""
        return OperatorSet([as_matrix(m) for m in mats], convex_closure)

    @staticmethod
    def from_vectors(vecs: Sequence, convex_closure: bool = False) -> "OperatorSet":
        """One n x 1 generator per vector: a vector is read as a column."""
        return OperatorSet([np.asarray(v, dtype=float).reshape(-1, 1)
                            for v in vecs], convex_closure)

    def to_jsonable(self) -> dict:
        return {
            "generators": self.generators.tolist(),
            "convex_closure": self.convex_closure,
        }


@dataclass(frozen=True)
class GammaSet:
    """A direction-restriction set.  The full space, a half-line and a
    finitely generated cone are their generators, the rows of a read-only
    (k, n) array: +-e_i for the full space, the unit direction for a
    half-line.  A box is its bounds."""

    kind: str
    generators: np.ndarray | None = None
    bounds: tuple | None = None

    FULL = "full"
    HALFLINE = "halfline"
    CONE = "cone"
    BOX = "box"

    def __post_init__(self):
        if self.kind not in (GammaSet.FULL, GammaSet.HALFLINE, GammaSet.CONE,
                             GammaSet.BOX):
            raise ValueError(f"unknown gamma kind {self.kind!r}")
        box = self.kind == GammaSet.BOX
        if (self.bounds is None) == box or (self.generators is None) != box:
            raise ValueError(f"a {self.kind} set is given by its "
                             f"{'bounds' if box else 'generators'} alone")
        if box:
            object.__setattr__(self, "bounds", box_bounds(*self.bounds))
            return
        gens = np.array(self.generators, dtype=float, ndmin=2)
        if not np.all(np.isfinite(gens)):
            raise NonFiniteValueError("directions must be finite")
        if np.any(np.linalg.norm(gens, axis=1) <= 0):
            raise ValueError("generators must be nonzero")
        n = gens.shape[1]
        if self.kind == GammaSet.FULL and not np.array_equal(
                gens, np.vstack([np.eye(n), -np.eye(n)])):
            raise ValueError("the full space is generated by +-e_i")
        if self.kind == GammaSet.HALFLINE and len(gens) != 1:
            raise ValueError("a half-line has one generator")
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def dimension(self) -> int:
        return self.generators.shape[1] if self.bounds is None \
            else self.bounds[0].size

    @staticmethod
    def full_space(n: int) -> "GammaSet":
        return GammaSet(GammaSet.FULL, np.vstack([np.eye(n), -np.eye(n)]))

    @staticmethod
    def half_line(direction) -> "GammaSet":
        d = np.asarray(direction, dtype=float)
        nrm = np.linalg.norm(d)
        if nrm <= 0:
            raise ValueError("half-line direction must be nonzero")
        return GammaSet(GammaSet.HALFLINE, d / nrm)

    @staticmethod
    def finite_cone(generators) -> "GammaSet":
        return GammaSet(GammaSet.CONE, generators)

    @staticmethod
    def box(lo, hi) -> "GammaSet":
        return GammaSet(GammaSet.BOX, bounds=(lo, hi))

    def sample(self, rng: np.random.Generator, center: np.ndarray, delta: float,
               count: int) -> np.ndarray:
        """Sample points of (center + B_delta) intersected with this set.

        A cone's sample weights its generators as given: each direction is
        a uniform nonnegative combination of the generators, so near-
        duplicate rays over-weight their direction.  Such rays occur: for
        the polar of cone{[1, 0, 0], [0, 1, 0], [1, 1, 1e-9]},
        ``cones._extreme_rays`` returns two rays about 1e-9 apart.  The
        sampled directions still cover the cone; only their density
        differs.  A center whose shape is not (dimension,) raises
        ``DimensionMismatchError``."""
        center = np.asarray(center, dtype=float)
        n = self.dimension
        if center.shape != (n,):
            raise DimensionMismatchError(
                f"center of shape {center.shape} vs a set in R^{n}")
        if self.kind == GammaSet.FULL:
            out = ball_samples(rng, center, delta, count)
            if n == 1:
                out = np.vstack([out, [center - delta], [center + delta]])
            return out
        if self.kind == GammaSet.HALFLINE:
            radii = delta * np.concatenate([rng.uniform(size=count), [1.0]])
            return center + np.outer(radii, self.generators[0])
        if self.kind == GammaSet.CONE:
            coeffs = rng.uniform(size=(count, self.generators.shape[0]))
            raw = coeffs @ self.generators
            norms = np.linalg.norm(raw, axis=1)
            keep = norms > 1e-14
            raw = raw[keep]
            norms = norms[keep]
            radii = delta * rng.uniform(size=raw.shape[0]) ** (1.0 / n)
            return center + raw * (radii / norms)[:, None]
        # a box: draw from the box clipped to the cube around B_delta, keep
        # the points inside B_delta, and redraw for what is still missing
        lo = np.maximum(self.bounds[0], center - delta)
        hi = np.minimum(self.bounds[1], center + delta)
        if np.any(lo > hi):
            return np.zeros((0, n))
        kept, total = [], 0
        for _ in range(BOX_SAMPLE_ROUNDS):
            pts = rng.uniform(lo, hi, size=(count, n))
            pts = pts[np.linalg.norm(pts - center, axis=1) <= delta]
            kept.append(pts)
            total += pts.shape[0]
            if total >= count:
                break
        return np.vstack(kept)[:count]


def _simplex_least_squares(columns: np.ndarray, target: np.ndarray):
    """Minimize ``|columns @ c - target|`` over the probability simplex.

    ``columns`` is d x k.  Returns (coefficients, distance).  Least-distance
    programming (Lawson & Hanson, *Solving Least Squares Problems*, 1974,
    ch. 23): with A = columns - target, one NNLS solve of
    min |[A; 1^T] u - [0; 1]| gives c = u / sum(u).  The NNLS optimality
    condition A^T A u + (s - 1) 1 >= 0, equal on the support (s = sum(u)),
    times u^T gives |Au|^2 = s (1 - s); so p = Ac meets a_i^T p >= |p|^2 for
    every column a_i, which is the optimality condition of the min-norm
    point of conv{a_i}.  s > 0 because the gradient at u = 0 is -1 in every
    coordinate.  The distance is recomputed from c, not read off NNLS; its
    rounding error is about 1e-16 (1 + |data|), since A is not rescaled.
    """
    k = columns.shape[1]
    lifted = np.vstack([columns - target[:, None], np.ones((1, k))])
    u, _ = nnls(lifted, np.concatenate([np.zeros(columns.shape[0]), [1.0]]))
    coeffs = u / u.sum()
    return coeffs, float(np.linalg.norm(columns @ coeffs - target))


def distances_to_operator_set(maps, lam: OperatorSet) -> np.ndarray:
    """Frobenius distance from each map of a (k, m, n) stack to an operator
    set.

    Exact minimum over the generators, or over their convex hull when the
    set carries the convex-closure flag, at every scale of the set (up to
    rounding of about 1e-16 (1 + |data|)); a distance of at most 1e-12 is
    returned as 0.  A hull costs one NNLS solve per distinct map (maps
    compared by bytes), so a family that is piecewise constant near the
    base point pays for its pieces, not its samples; a repeated map gets
    the bits of its first occurrence's solve.
    """
    maps = np.asarray(maps, dtype=float)
    if maps.shape[1:] != lam.shape:
        raise DimensionMismatchError(
            f"map shape {maps.shape[1:]} vs set shape {lam.shape}")
    flats = lam.flat_generators()
    # the width is the set's, so an empty stack gives an empty array
    targets = maps.reshape(len(maps), flats.shape[1])
    if not lam.convex_closure:
        d = np.min(np.linalg.norm(flats - targets[:, None], axis=2), axis=1)
    else:
        first, inverse = _distinct_rows(targets)
        d = np.array([_simplex_least_squares(flats.T, targets[i])[1]
                      for i in first])[inverse]
    return np.where(d <= 1e-12, 0.0, d)


def dist_to_operator_set(L, lam: OperatorSet) -> float:
    """The one-map view of ``distances_to_operator_set``."""
    return float(distances_to_operator_set(as_matrix(L)[None], lam)[0])


class InexactHausdorffError(ValueError):
    """The directed Hausdorff distance from a hull to a bare generator list
    is not attained at the hull's generators, so it is not computed."""


def _directed_hausdorff(a: OperatorSet, b: OperatorSet) -> float:
    # the sup over a of the distance to b sits at a generator of a when a
    # is a bare list, or when b is a hull (the distance to a convex set is
    # convex); from a hull to a list of two or more points it may sit
    # between generators: hull{-1, 1} is at 1.0 from {-1, 1}, at 0
    if a.convex_closure and len(a.generators) > 1 \
            and not b.convex_closure and len(b.generators) > 1:
        raise InexactHausdorffError(
            "directed Hausdorff distance from a hull to a generator list")
    return float(np.max(distances_to_operator_set(a.generators, b)))


def hausdorff_distance(a: OperatorSet, b: OperatorSet) -> float:
    """Symmetric Hausdorff distance between two operator sets.

    Exact for two hulls or two generator lists; a hull of two or more
    generators against a list of two or more raises
    ``InexactHausdorffError``.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape {a.shape} vs {b.shape}")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def _canonical_order(points: np.ndarray) -> np.ndarray:
    """Row order of ``points``: lexicographic on rows rounded to 1e-12."""
    return np.lexsort(np.round(points, 12).T[::-1])


def _svd_rank(s: np.ndarray) -> int:
    """Numerical rank: the singular values above 1e-10 * max(1, s[0])."""
    return int(np.sum(s > 1e-10 * max(1.0, float(s[0]) if s.size else 1.0)))


def in_conic_hull(generators: np.ndarray, points, tol: float) -> np.ndarray:
    """Row-wise membership of the (k, n) array ``points`` in the cone of the
    (one or more) rows of ``generators``, as a length-k mask: True where
    the row x is within tol * (1 + |x|) of the cone.

    One NNLS solve per row, all on one C-ordered copy of the generators'
    transpose (scipy's ``nnls`` would copy an F-ordered matrix at every
    call); the residuals come from one stacked gemv, and their norms and
    the rows' from ``row_norms``, with the bits of ``coeffs @ generators``
    and ``np.linalg.norm`` per row.  NNLS's own residual is not used: on
    +- pairs of orthonormal vectors it can read 0 for coefficients that
    miss x by O(1)."""
    gens = np.asarray(generators, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, gens.shape[1])
    a = np.ascontiguousarray(gens.T)
    coeffs = np.array([nnls(a, x)[0] for x in pts]).reshape(-1, len(gens))
    residuals = np.matmul(coeffs[:, None, :], gens)[:, 0, :] - pts
    return row_norms(residuals) <= tol * (1.0 + row_norms(pts))


def _distinct_rows(rows: np.ndarray):
    """The distinct rows of a 2-D array, compared by their bytes, as
    ``(first, inverse)``: ``first`` holds the index of each distinct row's
    first occurrence, ascending, and ``rows[first][inverse]`` is ``rows``.
    0.0 and -0.0 differ in bytes, and a NaN row matches only its bytewise
    copies."""
    flat = np.ascontiguousarray(rows)
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))
    _, index, inverse = np.unique(keys[:, 0], return_index=True,
                                  return_inverse=True)
    order = np.argsort(index)
    return index[order], np.argsort(order)[inverse]


def dedupe(points, tol: float) -> np.ndarray:
    """Rows of ``points`` without near-duplicates, in their original order.

    Greedy first occurrence: a row is kept unless an earlier kept row lies
    within ``tol`` (Euclidean, ``norm <= tol``).  An exact repeat of an
    earlier row is never kept: its twin was kept, at distance 0, or was
    dropped by a kept row that lies within ``tol`` of the repeat too.  So
    when every entry is finite, one ``np.unique`` over the rows' bytes first
    drops every exact repeat (0.0 and -0.0 differ in bytes, so such rows
    stay for the passes below).  One k-d tree query (Bentley, CACM 1975)
    then finds the rows with no other row within ``tol * (1 + 1e-6)``; the
    margin covers the tree's own rounding.  Such a row is kept and drops
    nothing, so only the crowded rows go through the greedy passes, each of
    which keeps the first remaining row and drops every later row within
    ``tol`` of it.  The cost is one sort, one tree query and O(crowded x
    kept) vectorised distances.  Input with a NaN or an infinite entry,
    whose rows the greedy rule may keep however often they repeat, skips
    the sort and the tree, and so does a ``tol`` below 1e-100, whose square
    the tree's squared distances cannot resolve: every row is then crowded.
    A NaN or negative ``tol`` raises ``ValueError``.
    """
    if not tol >= 0.0:
        raise ValueError(f"dedupe tolerance must be a non-negative number, "
                         f"got {tol}")
    pts = np.asarray(points, dtype=float)
    rows = np.arange(len(pts))
    finite = np.isfinite(pts).all()
    if len(pts) > 1 and finite:
        rows = _distinct_rows(pts.reshape(len(pts), -1))[0]
    crowded = np.ones(len(rows), dtype=bool)
    if len(rows) > 1 and tol >= 1e-100 and finite:
        crowded = cKDTree(pts[rows]).query_ball_point(
            pts[rows], tol * (1.0 + 1e-6), return_length=True) > 1
    keep = [rows[~crowded]]
    rest = rows[crowded]
    while rest.size:
        first, rest = rest[0], rest[1:]
        keep.append([first])
        # a NaN distance is not within tol, so it keeps the row
        rest = rest[~(np.linalg.norm(pts[rest] - pts[first], axis=1) <= tol)]
    return pts[np.sort(np.concatenate(keep))]


def convex_hull_points(points) -> np.ndarray:
    """Minimal vertex set of the convex hull of low-dimensional points.

    Handles degenerate (lower-dimensional) inputs by reducing to the affine
    span before calling qhull.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("convex hull of an empty point set")
    pts = dedupe(pts, 1e-12)
    if pts.shape[0] == 1:
        return pts

    centered = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = _svd_rank(s)
    if rank == 0:
        return pts[:1]
    reduced = centered @ vt[:rank].T
    if rank == 1:
        verts = pts[[np.argmin(reduced[:, 0]), np.argmax(reduced[:, 0])]]
    else:
        try:
            verts = pts[_QhullHull(reduced).vertices]
        except QhullError:
            # nearly-degenerate input: fall back to joggled hull
            verts = pts[_QhullHull(reduced, qhull_options="QJ").vertices]
    return verts[_canonical_order(verts)]


def hull_membership_residual(point: np.ndarray, vertices: np.ndarray) -> float:
    """Distance from a d-vector ``point`` to the convex hull of the rows of
    the (k, d) array ``vertices``; other shapes raise
    ``DimensionMismatchError``."""
    point = np.asarray(point, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or point.shape != vertices.shape[1:]:
        raise DimensionMismatchError(
            f"point shape {point.shape} vs vertices shape {vertices.shape}")
    return _simplex_least_squares(vertices.T, point)[1]
