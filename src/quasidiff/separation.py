"""Approximating multi-cones, the numeric open-mapping probe, and
set-separation verdicts with their sampling corroboration probe."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cones import (
    ConvexCone,
    STRONGLY_TRANSVERSAL,
    _nonzero_points,
    analyze_pairs,
    image_cone,
)
from .core import DimensionMismatchError, GammaSet, NonFiniteValueError, \
    OperatorSet, _refuse_non_positive_counts, distances_to_operator_set, \
    evaluate_rows, row_norms

NOT_LOCALLY_SEPARATED = "NotLocallySeparated"
NO_CONCLUSION = "NoConclusion"

MATCH_TOL = 1e-6


class SurjectivityError(ValueError):
    """A generator fails the open-mapping surjectivity hypothesis."""


@dataclass(frozen=True)
class MultiCone:
    """The family of image cones of an operator set applied to a
    direction cone; ``z_ignoring`` is a declared property of the
    generating triple, audited only when a generating map is available."""

    cones: tuple
    z_ignoring: bool = False

    def __post_init__(self):
        if not self.cones:
            raise ValueError("a multi-cone needs at least one cone")

    @property
    def dimension(self) -> int:
        return self.cones[0].dimension


def build_multicone(lam: OperatorSet, gamma: GammaSet,
                    z_ignoring: bool = False) -> MultiCone:
    """Image cones of every generator; for hull sets the vertices are
    enumerated (conservative for the all-pairs verdict lift).  A box
    direction set, whose image is no cone, raises ``ValueError``."""
    cones = tuple(image_cone(g, gamma) for g in lam.generators)
    return MultiCone(cones, z_ignoring)


def _as_multicone(k) -> MultiCone:
    if isinstance(k, MultiCone):
        return k
    if isinstance(k, ConvexCone):
        return MultiCone((k,), z_ignoring=False)
    raise TypeError(f"expected MultiCone or ConvexCone, got {type(k)!r}")


def separation_verdict(k1, k2) -> str:
    """NotLocallySeparated when every member-cone pair is strongly
    transversal, or every pair is transversal and one side ignores the
    base point; NoConclusion otherwise (there is no converse)."""
    m1 = _as_multicone(k1)
    m2 = _as_multicone(k2)
    if m1.dimension != m2.dimension:
        raise DimensionMismatchError("multi-cones live in different dimensions")
    all_strong = True
    for pair in analyze_pairs([(c1, c2) for c1 in m1.cones for c2 in m2.cones]):
        if not pair.transversal:
            return NO_CONCLUSION
        all_strong = all_strong and pair.verdict == STRONGLY_TRANSVERSAL
    if all_strong or m1.z_ignoring or m2.z_ignoring:
        return NOT_LOCALLY_SEPARATED
    return NO_CONCLUSION


def audit_z_ignoring(g_family, gamma: GammaSet, z, deltas=(1e-1, 1e-2, 1e-3),
                     seed: int = 0) -> bool:
    """Spot-check the declared base-point-avoiding property of a
    generating family: ``g_family(delta)`` returns a continuous map whose
    values on 200 admissible steps of size delta must stay farther than
    ``MATCH_TOL`` from z.  An empty ``deltas``, or a delta whose sample is
    empty and so checks nothing, raises ``ValueError``, a NaN or an
    infinity from a map ``NonFiniteValueError``, and a map whose values
    are not of z's size ``DimensionMismatchError``."""
    if not len(deltas):
        raise ValueError("deltas is empty")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    rng = np.random.default_rng(seed)
    origin = np.zeros(gamma.dimension)
    for d in deltas:
        xs = gamma.sample(rng, origin, d, 200)
        if not len(xs):
            raise ValueError(f"the sample at delta={d} is empty")
        ys = evaluate_rows(g_family(d), xs, "g_family")
        if ys.shape[1] != z.size:
            raise DimensionMismatchError(f"g_family({d}) maps into "
                                         f"R^{ys.shape[1]}, z is in R^{z.size}")
        if np.any(row_norms(ys - z) <= MATCH_TOL):
            return False
    return True


@dataclass(frozen=True)
class ProbeReport:
    a: float
    beta: float
    covered_fraction: float
    misses: tuple
    samples_used: int

    @property
    def passed(self) -> bool:
        return self.covered_fraction == 1.0

    def to_jsonable(self) -> dict:
        return {"a": self.a, "beta": self.beta,
                "covered_fraction": self.covered_fraction,
                "misses": [m.tolist() for m in self.misses],
                "samples_used": self.samples_used,
                "passed": self.passed}


def _target_lattice(y_bar: np.ndarray, a: float, target_grid: int) -> np.ndarray:
    """Axis lattice over y_bar + B_a, always containing the center itself
    (the inclusion is not punctured).  The ball's tolerance is relative,
    so the lattice scales with a."""
    m = y_bar.size
    axes = [np.linspace(-a, a, 2 * target_grid + 1)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= a * (1.0 + 1e-12)]
    return y_bar + pts


def _in_widened_box(points: np.ndarray, others: np.ndarray,
                    margin: float) -> np.ndarray:
    """Mask of the rows of ``points`` inside the bounding box of
    ``others`` widened by ``margin`` in every coordinate.

    Both arrays are read as contiguous transposes, one row per
    coordinate: on a (2000, 2) array, ``min(axis=0)`` takes about 82 µs
    with numpy 2.4.6 on a 2-core Xeon, and ``min(axis=1)`` of the
    contiguous transpose about 7 µs, its copy included; ``all`` over the
    few rows of the transposed comparisons is fast in the same way.  Min,
    max and comparisons are exact, so the mask does not depend on the
    layout."""
    cols = np.ascontiguousarray(others.T)
    lo = cols.min(axis=1, keepdims=True) - margin
    hi = cols.max(axis=1, keepdims=True) + margin
    rows = np.ascontiguousarray(points.T)
    return ((rows >= lo) & (rows <= hi)).all(axis=0)


def _check_surjective(lam: OperatorSet, gamma: GammaSet) -> None:
    """Raise ``SurjectivityError`` unless every map of Lambda maps Gamma
    onto R^m, refusing in this order: (1) a generator whose image cone is
    not R^m; for m = 1, where a functional maps Gamma onto R exactly when
    it takes both signs on it, a hull that meets Gamma* or -Gamma*, that
    is (2) for a half-line or a cone Gamma, one of two feasibility systems
    with a nonzero point, solved in the generators' witness batch, or (3)
    for Gamma = R^n, where Gamma* = {0}, a hull that holds the zero map;
    (4) for m > 1, a hull of two or more maps not shown to have full row
    rank m, which for Gamma = R^n is surjectivity.  Deciding that is
    NP-hard (Poljak & Rohn 1993), so a sufficient test is used: by Weyl's
    inequality every L in the hull has sigma_m(L) >= sigma_m(L0) - max_i
    |L_i - L0|_2, so it has full rank when that is positive for some
    centre L0, tried at the centroid and at each generator; a half-line
    or a cone Gamma is refused, as no such test is made for it.  A finite
    set (no hull) is checked at its generators alone."""
    m = lam.shape[0]
    systems = [k.generators for k in build_multicone(lam, gamma).cones]
    scalar_hull = lam.convex_closure and m == 1
    if scalar_hull and gamma.kind != GammaSet.FULL:
        # weights w >= 0, w != 0 with +-(w @ values) >= 0, where values[i, j]
        # is generator i at direction j: the hull meets Gamma* or -Gamma*
        values = lam.flat_generators() @ gamma.generators.T
        eye = np.eye(len(values))
        systems += [np.vstack([-eye, -values.T]), np.vstack([-eye, values.T])]
    witnesses = _nonzero_points(systems)
    for idx, (g, p) in enumerate(zip(lam.generators, witnesses)):
        if p is not None:
            raise SurjectivityError(
                f"generator {idx} with matrix {g.tolist()} is not "
                "surjective on the direction set")
    if any(p is not None for p in witnesses[len(lam.generators):]):
        raise SurjectivityError("the hull of Lambda holds a functional of "
                                "one sign on the direction set")
    zero = np.zeros((1,) + lam.shape)
    if scalar_hull and gamma.kind == GammaSet.FULL \
            and distances_to_operator_set(zero, lam)[0] == 0.0:
        raise SurjectivityError("the hull of Lambda holds the zero map")
    gens = lam.generators
    if not lam.convex_closure or m == 1 or len(gens) == 1:
        return
    if gamma.kind != GammaSet.FULL:
        raise SurjectivityError(
            f"the surjectivity of a hull of maps into R^{m} is tested only "
            f"on the full space, not on a {gamma.kind} direction set")
    for centre in (gens.mean(axis=0), *gens):
        s = np.linalg.svd(centre, compute_uv=False)
        least = s[m - 1] if s.size >= m else 0.0
        if least > np.linalg.norm(gens - centre, ord=2, axis=(1, 2)).max():
            return
    raise SurjectivityError(
        "the hull of Lambda may hold a map of rank below "
        f"{m}: no centre (the centroid or a generator) has its least "
        "singular value above its distance to every generator")


def open_mapping_probe(F, x_bar, y_bar, gamma: GammaSet, lam: OperatorSet,
                       a: float, beta: float, target_grid: int = 10,
                       domain_samples: int = 20000,
                       seed: int = 0) -> ProbeReport:
    """Sampled check of the covering inclusion y_bar + B_a inside
    F((x_bar + B_{a*beta}) ∩ Gamma): a target lattice point is covered
    when a sampled value lies within half the lattice spacing,
    a / (2 * target_grid).

    The surjectivity hypothesis (every map of Lambda maps the direction
    set onto the codomain) is checked first by ``_check_surjective`` and
    raises SurjectivityError — that signal means the hypotheses fail, not
    that the probe failed.  A y_bar whose size is not Lambda's row count
    or F's value width, or an x_bar whose shape is not (gamma.dimension,),
    raises ``DimensionMismatchError``.  A NaN or an infinity in an input
    or from F raises ``NonFiniteValueError``, and a ``target_grid`` or
    ``domain_samples`` that is not a positive integer, or an empty domain
    sample, ``ValueError``.

    The k-d tree holds only the values inside the targets' bounding box
    widened by twice the covering radius r.  Any other value differs from
    every target by more than 2r in some coordinate, so its distance to
    each exceeds r and it covers none.  This holds where the ulp exceeds
    r too: a bound of the widened box rounds to the nearest double, and a
    coordinate beyond that double lies a whole spacing farther out, so
    still more than 2r from the targets; there a value covers a target
    only when their coordinates are equal.  The covered targets and
    ``covered_fraction`` are those of a tree on every value, and
    ``samples_used`` counts every domain sample.  An uncovered target's
    distance is not that to the nearest value (it is infinite when no
    value is kept, and then no tree is built), so a report of the worst
    uncovered distance must query its few misses against all values.
    """
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    y_bar = np.atleast_1d(np.asarray(y_bar, dtype=float))
    _refuse_non_finite(a=a, beta=beta, x_bar=x_bar, y_bar=y_bar)
    if a <= 0 or beta <= 0:
        raise ValueError("a and beta must be positive")
    _refuse_non_positive_counts(target_grid=target_grid,
                                domain_samples=domain_samples)
    if y_bar.size != lam.shape[0]:
        raise DimensionMismatchError(f"y_bar in R^{y_bar.size} vs maps "
                                     f"into R^{lam.shape[0]}")
    _check_surjective(lam, gamma)
    targets = _target_lattice(y_bar, a, target_grid)
    rng = np.random.default_rng(seed)
    xs = gamma.sample(rng, x_bar, a * beta, domain_samples)
    if not len(xs):
        raise ValueError(f"the domain sample is empty ({domain_samples} "
                         "points requested)")
    values = evaluate_rows(F, xs, "F")
    if values.shape[1] != y_bar.size:
        raise DimensionMismatchError(f"F maps into R^{values.shape[1]}, "
                                     f"y_bar is in R^{y_bar.size}")
    r = a / (2.0 * target_grid)
    kept = values[_in_widened_box(values, targets, 2.0 * r)]
    dists = cKDTree(kept).query(targets, k=1)[0] if len(kept) \
        else np.full(len(targets), np.inf)
    covered = dists <= r
    misses = tuple(t for t, ok in zip(targets, covered) if not ok)
    return ProbeReport(a, beta, float(np.mean(covered)), misses,
                       values.shape[0])


def _refuse_non_finite(**inputs) -> None:
    """Refuse a NaN or an infinity, which fails every comparison."""
    for name, value in inputs.items():
        if not np.isfinite(value).all():
            raise NonFiniteValueError(f"{name} must be finite, got {value}")


def _probe_points(sampler, name: str, rng, z, radius: float,
                  samples: int) -> np.ndarray:
    """A sampler's points as a (k, z.size) array.  An empty sample raises
    ``ValueError``, points of another width ``DimensionMismatchError``,
    and a NaN or infinite point ``NonFiniteValueError`` naming it: a NaN
    fails every box comparison, so the cull would drop it silently."""
    pts = np.atleast_2d(np.asarray(sampler(rng, z, radius, samples),
                                   dtype=float))
    if not pts.size:
        raise ValueError(f"{name} returned no points")
    if pts.shape[1] != z.size:
        raise DimensionMismatchError(f"{name} returned points in "
                                     f"R^{pts.shape[1]}, z is in R^{z.size}")
    if not np.isfinite(pts).all():
        point = pts[np.argmin(np.isfinite(pts).all(axis=1))]
        raise NonFiniteValueError(f"{name} returned the non-finite point "
                                  f"{point.tolist()}", point=point)
    return pts


def _lowest_nearest(tree: cKDTree, point: np.ndarray) -> int:
    """The lowest index among the rows of ``tree`` nearest to ``point``.
    Ties are read from the tree's own distances: the k nearest rows are
    asked for, k doubling until the last is farther than the first (a
    missing row is infinitely far).  A ball query at the nearest distance
    might round its inclusion test differently."""
    k = 2
    while True:
        dists, idx = tree.query(point, k=k)
        if dists[-1] > dists[0]:
            return int(idx[dists == dists[0]].min())
        k *= 2


def local_separation_probe(sampler1, sampler2, z, radius: float,
                           samples: int, seed: int) -> dict:
    """Search for a common point of two sampled sets near z, distinct
    from z at the probe's resolution.

    ``sampler1(rng, z, radius, count)`` must return points covering its
    set's trace inside z + B_radius.  Two points match within
    ``MATCH_TOL``, and matches closer to z than ``distinct_tol``
    (resolution-coupled) are not accepted as witnesses.  Before sampling,
    a NaN or infinite z or radius raises ``NonFiniteValueError``, and a
    radius <= 0 or a ``samples`` that is not a positive integer
    ``ValueError``.  An empty sample raises ``ValueError``, a sample whose
    width is not z's ``DimensionMismatchError``, and a NaN or infinite
    point ``NonFiniteValueError``, each naming its sampler.

    The point of the second sample that a point of the first matches is
    the lowest-index one among those nearest to it, and the common point
    is the midpoint of the first match, in order of distance and then of
    the first sample, that lies farther than ``distinct_tol`` from z and
    within radius + ``MATCH_TOL`` of it.  Only the points of the first
    sample inside the second's bounding box widened by 2 ``MATCH_TOL``
    are queried, and the k-d tree holds only the points of the second
    sample inside the box of the queried points, widened the same way.
    Any other point differs from every point of the other sample by more
    than 2 ``MATCH_TOL`` in some coordinate, so its distance to each
    exceeds ``MATCH_TOL`` and it has no match.  This holds where the ulp
    exceeds ``MATCH_TOL`` too: a bound of the widened box rounds to the
    nearest double, and a coordinate beyond that double lies a whole
    spacing farther out, so still more than 2 ``MATCH_TOL`` from the other
    sample; there a match needs equal coordinates.  Both culls keep the
    order of their sample, so the common point depends neither on them
    nor on the tree's shape.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _refuse_non_finite(z=z, radius=radius)
    if radius <= 0:
        raise ValueError(f"the radius must be positive, got {radius}")
    _refuse_non_positive_counts(samples=samples)
    rng = np.random.default_rng(seed)
    p1 = _probe_points(sampler1, "sampler1", rng, z, radius, samples)
    p2 = _probe_points(sampler2, "sampler2", rng, z, radius, samples)
    distinct_tol = max(0.01 * radius, 10.0 * MATCH_TOL)
    separated = {"common_point": None, "separated_at_resolution": True}
    p1 = p1[_in_widened_box(p1, p2, 2.0 * MATCH_TOL)]
    if not len(p1):
        return separated
    p2 = p2[_in_widened_box(p2, p1, 2.0 * MATCH_TOL)]
    tree = cKDTree(p2)
    # the bound prunes the search: a neighbour beyond it reads as infinitely
    # far, and a match's neighbours at its own distance are all inside it.
    # The second neighbour costs about what the first does, and shows
    # whether the nearest is unique
    dists, idx = tree.query(p1, k=2, distance_upper_bound=2.0 * MATCH_TOL)
    near = np.flatnonzero(dists[:, 0] <= MATCH_TOL)
    for i in near[np.argsort(dists[near, 0], kind="stable")]:
        j = idx[i, 0] if dists[i, 1] > dists[i, 0] \
            else _lowest_nearest(tree, p1[i])
        mid = 0.5 * (p1[i] + p2[j])
        # a row-wise norm, as a 1-D norm is a dot product that may round
        # differently
        dz = np.linalg.norm(mid - z, axis=-1)
        if distinct_tol < dz <= radius + MATCH_TOL:
            return {"common_point": mid, "separated_at_resolution": False}
    return separated
