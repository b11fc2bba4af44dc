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
from .core import DimensionMismatchError, GammaSet, OperatorSet, \
    distances_to_operator_set, evaluate_rows, row_norms

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
    (the inclusion is not punctured)."""
    m = y_bar.size
    axes = [np.linspace(-a, a, 2 * target_grid + 1)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= a + 1e-12]
    return y_bar + pts


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
    raises ``DimensionMismatchError``.  A NaN or an infinity from F raises
    ``NonFiniteValueError``, an empty domain sample ``ValueError``.
    """
    if a <= 0 or beta <= 0:
        raise ValueError("a and beta must be positive")
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    y_bar = np.atleast_1d(np.asarray(y_bar, dtype=float))
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
    dists, _ = cKDTree(values).query(targets, k=1)
    covered = dists <= a / (2.0 * target_grid)
    misses = tuple(t for t, ok in zip(targets, covered) if not ok)
    return ProbeReport(a, beta, float(np.mean(covered)), misses,
                       values.shape[0])


def local_separation_probe(sampler1, sampler2, z, radius: float,
                           samples: int, seed: int) -> dict:
    """Search for a common point of two sampled sets near z, distinct
    from z at the probe's resolution.

    ``sampler1(rng, z, radius, count)`` must return points covering its
    set's trace inside z + B_radius.  Two points match within
    ``MATCH_TOL``, and matches closer to z than ``distinct_tol``
    (resolution-coupled) are not accepted as witnesses.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    rng = np.random.default_rng(seed)
    p1 = np.atleast_2d(sampler1(rng, z, radius, samples))
    p2 = np.atleast_2d(sampler2(rng, z, radius, samples))
    distinct_tol = max(0.01 * radius, 10.0 * MATCH_TOL)
    # the bound prunes the search; a point with no neighbour inside it gets
    # an infinite distance, and a match's nearest neighbour is unchanged
    dists, idx = cKDTree(p2).query(p1, k=1,
                                   distance_upper_bound=2.0 * MATCH_TOL)
    near = np.flatnonzero(dists <= MATCH_TOL)
    mids = 0.5 * (p1[near] + p2[idx[near]])
    dz = np.linalg.norm(mids - z, axis=1)
    ok = (dz > distinct_tol) & (dz <= radius + MATCH_TOL)
    if ok.any():
        # argmin takes the first of equal distances, in the order of p1
        best = mids[ok][np.argmin(dists[near][ok])]
        return {"common_point": best, "separated_at_resolution": False}
    return {"common_point": None, "separated_at_resolution": True}
