"""Shared geometric primitives: linear maps, compact operator sets, hulls,
and the two sampling primitives of every sampled check: ``ball_samples``
draws the points and ``evaluate_rows`` calls a map on them.

All values are immutable after construction and every operation is pure,
so everything here is safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull as _QhullHull
from scipy.spatial import QhullError

EQUALITY_TOL = 1e-10
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


def evaluate_rows(F, points, name: str) -> np.ndarray:
    """F at every row of ``points``, stacked into a ``(k, m)`` array.

    F is called once per row, in order; the rows of a 1-D ``points`` are
    passed as floats.  Raises ``NonFiniteValueError`` at the first row
    whose value has a NaN or an infinite entry: such a value fails every
    comparison and so would pass every check.  The test is on entries, so
    a huge finite value whose norm overflows is left to the caller's
    bound.  Empty ``points`` call nothing and give a ``(0, 0)`` array.
    """
    pts = np.asarray(points, dtype=float)
    if not len(pts):
        return np.zeros((0, 0))
    rows = pts.tolist() if pts.ndim == 1 else pts
    values = np.array([F(x) for x in rows], dtype=float).reshape(len(pts), -1)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        x = rows[int(np.argmin(finite))]
        raise NonFiniteValueError(f"{name} returned a non-finite value at "
                                  f"{np.asarray(x).tolist()}", point=x)
    return values


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


@dataclass(frozen=True)
class LinearMap:
    """A linear map R^n -> R^m stored as a dense m x n matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("entries must form an m x n matrix with m, n >= 1")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValueError("entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(v, dtype=float)

    def flat(self) -> np.ndarray:
        return self.entries.ravel()

    def frobenius_distance(self, other: "LinearMap") -> float:
        if self.entries.shape != other.entries.shape:
            raise DimensionMismatchError(
                f"shape {self.entries.shape} vs {other.entries.shape}"
            )
        return float(np.linalg.norm(self.entries - other.entries))

    @staticmethod
    def from_vector(v: np.ndarray) -> "LinearMap":
        """Store an n-vector as an n x 1 map (used for bracket values)."""
        return LinearMap(np.asarray(v, dtype=float).reshape(-1, 1))


@dataclass(frozen=True)
class OperatorSet:
    """A compact set of linear maps, represented by finitely many generators.

    With ``convex_closure`` the set is the convex hull of the generators,
    otherwise the generator list itself.
    """

    generators: tuple
    convex_closure: bool = False

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("operator set needs at least one generator")
        shape = gens[0].entries.shape
        for g in gens:
            if g.entries.shape != shape:
                raise DimensionMismatchError("generators must share one shape")
        object.__setattr__(self, "generators", gens)

    @property
    def shape(self) -> tuple:
        return self.generators[0].entries.shape

    def flat_generators(self) -> np.ndarray:
        return np.array([g.flat() for g in self.generators])

    def canonicalized(self) -> "OperatorSet":
        """Sort generators lexicographically so hulls compare bitwise."""
        flats = self.flat_generators()
        order = np.lexsort(np.round(flats, 12).T[::-1])
        return OperatorSet(
            tuple(self.generators[i] for i in order), self.convex_closure
        )

    @staticmethod
    def from_matrices(mats: Sequence, convex_closure: bool = False) -> "OperatorSet":
        return OperatorSet(
            tuple(LinearMap(np.asarray(m, dtype=float)) for m in mats), convex_closure
        )

    @staticmethod
    def from_vectors(vecs: Sequence, convex_closure: bool = False) -> "OperatorSet":
        return OperatorSet(
            tuple(LinearMap.from_vector(v) for v in vecs), convex_closure
        )

    def to_jsonable(self) -> dict:
        return {
            "generators": [g.entries.tolist() for g in self.generators],
            "convex_closure": self.convex_closure,
        }


@dataclass(frozen=True)
class GammaSet:
    """A direction-restriction set: full space, half-line, cone, or box."""

    kind: str
    dimension: int
    direction: np.ndarray | None = None
    generators: np.ndarray | None = None
    bounds: tuple | None = None

    FULL = "full"
    HALFLINE = "halfline"
    CONE = "cone"
    BOX = "box"

    @staticmethod
    def full_space(n: int) -> "GammaSet":
        return GammaSet(GammaSet.FULL, n)

    @staticmethod
    def half_line(direction) -> "GammaSet":
        d = np.asarray(direction, dtype=float)
        nrm = np.linalg.norm(d)
        if nrm <= 0:
            raise ValueError("half-line direction must be nonzero")
        return GammaSet(GammaSet.HALFLINE, d.size, direction=d / nrm)

    @staticmethod
    def finite_cone(generators) -> "GammaSet":
        g = np.atleast_2d(np.asarray(generators, dtype=float))
        if np.any(np.linalg.norm(g, axis=1) <= 0):
            raise ValueError("finite-cone generators must be nonzero")
        return GammaSet(GammaSet.CONE, g.shape[1], generators=g)

    @staticmethod
    def box(lo, hi) -> "GammaSet":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return GammaSet(GammaSet.BOX, lo.size, bounds=(lo, hi))

    def sample(self, rng: np.random.Generator, center: np.ndarray, delta: float,
               count: int) -> np.ndarray:
        """Sample points of (center + B_delta) intersected with this set."""
        center = np.asarray(center, dtype=float)
        n = self.dimension
        if self.kind == GammaSet.FULL:
            out = ball_samples(rng, center, delta, count)
            if n == 1:
                out = np.vstack([out, [center - delta], [center + delta]])
            return out
        if self.kind == GammaSet.HALFLINE:
            radii = delta * np.concatenate([rng.uniform(size=count), [1.0]])
            return center + np.outer(radii, self.direction)
        if self.kind == GammaSet.CONE:
            coeffs = rng.uniform(size=(count, self.generators.shape[0]))
            raw = coeffs @ self.generators
            norms = np.linalg.norm(raw, axis=1)
            keep = norms > 1e-14
            raw = raw[keep]
            norms = norms[keep]
            radii = delta * rng.uniform(size=raw.shape[0]) ** (1.0 / n)
            return center + raw * (radii / norms)[:, None]
        if self.kind == GammaSet.BOX:
            # draw from the box clipped to the cube around B_delta, keep the
            # points inside B_delta, and redraw for what is still missing
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
        raise ValueError(f"unknown gamma kind {self.kind!r}")

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.kind == GammaSet.FULL:
            return True
        if self.kind == GammaSet.HALFLINE:
            t = float(self.direction @ x)
            return t >= -tol and np.linalg.norm(x - t * self.direction) <= tol
        if self.kind == GammaSet.CONE:
            coeffs, resid = nnls(self.generators.T, x)
            return resid <= tol * (1.0 + np.linalg.norm(x))
        if self.kind == GammaSet.BOX:
            lo, hi = self.bounds
            return bool(np.all(x >= lo - tol) and np.all(x <= hi + tol))
        raise ValueError(f"unknown gamma kind {self.kind!r}")

    def to_jsonable(self) -> dict:
        out = {"kind": self.kind, "dimension": self.dimension}
        if self.direction is not None:
            out["direction"] = self.direction.tolist()
        if self.generators is not None:
            out["generators"] = self.generators.tolist()
        if self.bounds is not None:
            out["bounds"] = [self.bounds[0].tolist(), self.bounds[1].tolist()]
        return out


class Modulus:
    """A nondecreasing nonnegative function vanishing at 0, with an audit trail
    of (delta, value) samples."""

    def __init__(self, fn: Callable[[float], float], grid: Sequence[float] = ()):
        self._fn = fn
        grid = sorted(grid)
        self.samples = [(float(d), float(fn(d))) for d in grid]
        for (d0, v0), (d1, v1) in zip(self.samples, self.samples[1:]):
            if v1 < v0 - EQUALITY_TOL:
                raise ValueError("modulus samples must be nondecreasing in delta")
        if any(v < -EQUALITY_TOL for _, v in self.samples):
            raise ValueError("modulus values must be nonnegative")

    def __call__(self, delta: float) -> float:
        return float(self._fn(delta))

    @staticmethod
    def from_samples(samples: Sequence[tuple]) -> "Modulus":
        pts = sorted((float(d), float(v)) for d, v in samples)
        deltas = np.array([d for d, _ in pts])
        values = np.array([v for _, v in pts])

        def fn(delta, deltas=deltas, values=values):
            if delta <= deltas[0]:
                # scale down linearly below the sampled range
                return values[0] * delta / deltas[0]
            if delta >= deltas[-1]:
                return values[-1]
            return float(np.interp(delta, deltas, values))

        return Modulus(fn, deltas)


def _simplex_least_squares(columns: np.ndarray, target: np.ndarray):
    """Minimize ``|columns @ c - target|`` over the probability simplex.

    ``columns`` is d x k.  Returns (coefficients, distance).  Solved by a
    penalized NNLS to find the active support, then polished with the exact
    equality-constrained normal equations on that support.
    """
    d, k = columns.shape
    if k == 1:
        return np.ones(1), float(np.linalg.norm(columns[:, 0] - target))
    w = 1e7 * max(1.0, float(np.abs(columns).max()), float(np.abs(target).max()))
    aug = np.vstack([columns, w * np.ones((1, k))])
    rhs = np.concatenate([target, [w]])
    coeffs, _ = nnls(aug, rhs)
    total = coeffs.sum()
    if total <= 0:
        coeffs = np.full(k, 1.0 / k)
    else:
        coeffs = coeffs / total
    best = float(np.linalg.norm(columns @ coeffs - target))

    support = np.flatnonzero(coeffs > 1e-12)
    if support.size >= 1:
        sub = columns[:, support]
        s = support.size
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = sub.T @ sub
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs2 = np.concatenate([sub.T @ target, [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs2)
            c_sub = sol[:s]
            if np.all(c_sub >= -1e-10):
                c_sub = np.clip(c_sub, 0.0, None)
                c_sub /= c_sub.sum()
                cand = np.zeros(k)
                cand[support] = c_sub
                dist = float(np.linalg.norm(columns @ cand - target))
                if dist <= best:
                    coeffs, best = cand, dist
        except np.linalg.LinAlgError:
            pass
    return coeffs, best


def dist_to_operator_set(L: LinearMap, lam: OperatorSet,
                         tol: float = 1e-12) -> float:
    """Frobenius distance from a map to an operator set.

    Exact minimum over the generators, or over their convex hull when the
    set carries the convex-closure flag.
    """
    if L.entries.shape != lam.shape:
        raise DimensionMismatchError(
            f"map shape {L.entries.shape} vs set shape {lam.shape}"
        )
    flats = lam.flat_generators()
    target = L.flat()
    if not lam.convex_closure:
        d = float(np.min(np.linalg.norm(flats - target, axis=1)))
    else:
        _, d = _simplex_least_squares(flats.T, target)
    return 0.0 if d <= tol else d


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
    return max(dist_to_operator_set(g, b) for g in a.generators)


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
    order = np.lexsort(np.round(points, 12).T[::-1])
    return points[order]


def dedupe(points, tol: float) -> np.ndarray:
    """Rows of ``points`` without near-duplicates, in their original order.

    Greedy first occurrence: a row is kept unless an earlier kept row lies
    within ``tol`` (Euclidean).  Each pass keeps the first remaining row and
    drops every later row within ``tol`` of it, so the cost is
    O(rows x kept) in vectorised distance evaluations.
    """
    pts = np.asarray(points, dtype=float)
    keep = []
    rest = np.arange(pts.shape[0])
    while rest.size:
        first, rest = rest[0], rest[1:]
        keep.append(first)
        # a NaN distance is not within tol, so it keeps the row
        rest = rest[~(np.linalg.norm(pts[rest] - pts[first], axis=1) <= tol)]
    return pts[keep]


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
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > 1e-10 * scale))
    if rank == 0:
        return pts[:1]
    basis = vt[:rank]
    reduced = centered @ basis.T
    if rank == 1:
        idx = [int(np.argmin(reduced[:, 0])), int(np.argmax(reduced[:, 0]))]
        return _canonical_order(pts[idx])
    try:
        hull = _QhullHull(reduced)
        verts = pts[hull.vertices]
    except QhullError:
        # nearly-degenerate input: fall back to joggled hull
        hull = _QhullHull(reduced, qhull_options="QJ")
        verts = pts[hull.vertices]
    return _canonical_order(verts)


def hull_membership_residual(point: np.ndarray, vertices: np.ndarray) -> float:
    """Distance from a point to the convex hull of ``vertices``."""
    _, d = _simplex_least_squares(np.atleast_2d(vertices).T
                                  if vertices.ndim == 1 else vertices.T,
                                  np.atleast_1d(point))
    return d
