"""Convex-cone algebra: conic hulls, polar cones, transversality and
linear-separation verdicts for finitely generated cones.

One witness search decides a cone pair.  By Gordan's alternative (Gordan
1873; Stiemke 1915), {p : A p <= 0} holds a nonzero point exactly when A
is rank-deficient or one LP is positive.  ``analyze_pair`` runs that test
once and answers transversality and the separating functional from it,
adding the intersection LP and the subspace test only for transversal
pairs; ``is_transversal``, ``separating_functional`` and ``classify_pair``
are views of its record."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls

from .core import DimensionMismatchError, GammaSet, LinearMap, dedupe

WITNESS_TOL = 1e-7


class ConsistencyError(RuntimeError):
    """The sub-verdicts of a classification contradict each other."""


@dataclass(frozen=True)
class ConvexCone:
    """A finitely generated convex cone in V-representation."""

    dimension: int
    generators: np.ndarray  # k x n, possibly k = 0 for the trivial cone

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=float).reshape(-1, self.dimension)
        gens = gens.copy()
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def is_trivial(self) -> bool:
        return self.generators.shape[0] == 0

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.is_trivial:
            return bool(np.linalg.norm(x) <= tol)
        _, resid = nnls(self.generators.T, x)
        return resid <= tol * (1.0 + np.linalg.norm(x))

    def is_subspace(self, tol: float = 1e-9) -> bool:
        """A cone closed under negation of each generator is a linear span."""
        if self.is_trivial:
            return True
        return all(self.contains(-g, tol) for g in self.generators)

    def to_jsonable(self) -> dict:
        return {"dimension": self.dimension, "generators": self.generators.tolist()}

    @staticmethod
    def from_jsonable(obj: dict) -> "ConvexCone":
        return ConvexCone(int(obj["dimension"]), np.asarray(obj["generators"]))


@dataclass(frozen=True)
class SeparationCertificate:
    """A nonzero functional nonnegative on K1 and nonpositive on K2."""

    functional: np.ndarray
    margin_checks: tuple

    def validate(self, k1: "ConvexCone", k2: "ConvexCone",
                 tol: float = WITNESS_TOL) -> bool:
        lam = self.functional
        if np.linalg.norm(lam) <= tol:
            return False
        ok1 = all(lam @ g >= -tol for g in k1.generators)
        ok2 = all(lam @ g <= tol for g in k2.generators)
        return ok1 and ok2


def conic_hull(vectors, dimension: int | None = None) -> ConvexCone:
    """Conic hull of a finite vector list; zero vectors are dropped."""
    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vecs.size == 0:
        if dimension is None:
            raise ValueError("dimension required for an empty generator list")
        return ConvexCone(dimension, np.zeros((0, dimension)))
    n = vecs.shape[1]
    keep = vecs[np.linalg.norm(vecs, axis=1) > 1e-12]
    return ConvexCone(n, keep.reshape(-1, n))


def _extreme_rays(constraints: np.ndarray, n: int) -> np.ndarray:
    """Generators of the polyhedral cone ``{p : constraints @ p <= 0}``.

    Returns extreme rays plus a +-basis of the lineality space, which
    together positively span the cone.  Intended for desk-scale n.
    """
    a = np.asarray(constraints, dtype=float).reshape(-1, n)
    if a.shape[0] == 0:
        eye = np.eye(n)
        return np.vstack([eye, -eye])
    # lineality space: constraints hold with equality
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0)))
    null_basis = vt[rank:]  # rows span {p : a p = 0}
    rays = [b for b in null_basis] + [-b for b in null_basis]

    # remaining generators: for every candidate active set, feasible
    # directions in its nullspace.  Scanning all sizes up to n-1 also covers
    # cones with lineality, where extreme quotient rays have small active
    # sets; extra non-extreme rays are harmless for a V-representation.
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
    # dedupe directions
    unit = [r / nrm for r in rays if (nrm := np.linalg.norm(r)) > 1e-12]
    return dedupe(np.array(unit).reshape(-1, n), 1e-8)


def polar_cone(vectors, dimension: int | None = None) -> ConvexCone:
    """Polar cone {p : p.w <= 0 for all w} of a finite vector list."""
    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vecs.size == 0:
        if dimension is None:
            raise ValueError("dimension required for an empty vector list")
        eye = np.eye(dimension)
        return ConvexCone(dimension, np.vstack([eye, -eye]))
    n = vecs.shape[1]
    rays = _extreme_rays(vecs, n)
    # drop rays that only witness numerical noise
    good = [r for r in rays if np.all(vecs @ r <= 1e-8)]
    return ConvexCone(n, np.array(good).reshape(-1, n))


def polar_of_cone(cone: ConvexCone) -> ConvexCone:
    return polar_cone(cone.generators, cone.dimension)


def _nonzero_point_in_polyhedral_cone(constraints: np.ndarray, n: int,
                                      tol: float = WITNESS_TOL):
    """A nonzero point of {p : constraints @ p <= 0} with |p|_inf <= 1, or None.

    Gordan's alternative (Gordan 1873; Stiemke 1915): such a point exists
    exactly when the constraint matrix A has rank < n, or when the one
    linear program max sum(-A p) over {A p <= 0, |p|_inf <= 1} is positive.
    A rank-deficient A yields a null vector scaled to |p|_inf = 1; otherwise
    the LP solution is the witness.  The objective weighs each row by its
    inverse norm, so the decision does not depend on the generators' scale.
    """
    a = np.asarray(constraints, dtype=float).reshape(-1, n)
    norms = np.linalg.norm(a, axis=1)
    unit = a / np.where(norms > 0.0, norms, 1.0)[:, None]
    _, s, vt = np.linalg.svd(unit, full_matrices=True)
    if int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0))) < n:
        return vt[-1] / np.max(np.abs(vt[-1]))
    res = linprog(unit.sum(axis=0), A_ub=a, b_ub=np.zeros(a.shape[0]),
                  bounds=[(-1.0, 1.0)] * n, method="highs")
    if res.status == 0 and -res.fun > tol and np.max(np.abs(res.x)) > tol:
        return np.asarray(res.x)
    return None


STRONGLY_TRANSVERSAL = "StronglyTransversal"
COMPLEMENTARY_SUBSPACES = "ComplementarySubspaces"
LINEARLY_SEPARABLE = "LinearlySeparable"


def _nontrivial_intersection_point(k1: ConvexCone, k2: ConvexCone,
                                   tol: float = 1e-7):
    """A common point of K1 and K2 away from 0, via the normalized LP
    max +-x_k over {G1' a = G2' b, a, b >= 0, sum a + sum b = 1}."""
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


@dataclass(frozen=True)
class PairAnalysis:
    """Everything the separation theorems ask of a cone pair, from one
    witness search: whether K1 - K2 is the whole space, the separating
    certificate when it is not, and the trichotomy verdict."""

    transversal: bool
    certificate: SeparationCertificate | None
    verdict: str


def analyze_pair(k1: ConvexCone, k2: ConvexCone) -> PairAnalysis:
    """Transversality, separation and the trichotomy of a cone pair.

    K1 - K2 = cone(G1, -G2) is the whole space iff no nonzero p has
    [G1; -G2] p <= 0.  Such a p is the negative of a separating
    functional, since those are the points of [-G1; G2] lam <= 0, so one
    witness search answers both questions.  The intersection LP and the
    subspace test run only on transversal pairs.
    """
    if k1.dimension != k2.dimension:
        raise DimensionMismatchError("cones live in different dimensions")
    witness = _nonzero_point_in_polyhedral_cone(
        np.vstack([k1.generators, -k2.generators]), k1.dimension)
    if witness is not None:
        lam = -witness
        checks = tuple(
            [(g.tolist(), "+", float(lam @ g)) for g in k1.generators]
            + [(g.tolist(), "-", float(lam @ g)) for g in k2.generators]
        )
        return PairAnalysis(False, SeparationCertificate(lam, checks),
                            LINEARLY_SEPARABLE)
    if _nontrivial_intersection_point(k1, k2) is not None:
        return PairAnalysis(True, None, STRONGLY_TRANSVERSAL)
    if k1.is_subspace() and k2.is_subspace():
        return PairAnalysis(True, None, COMPLEMENTARY_SUBSPACES)
    raise ConsistencyError(
        "transversal pair with trivial intersection and non-subspace cone"
    )


def is_transversal(k1: ConvexCone, k2: ConvexCone) -> bool:
    """True iff K1 - K2 is the whole space."""
    return analyze_pair(k1, k2).transversal


def separating_functional(k1: ConvexCone, k2: ConvexCone):
    """A nonzero functional >=0 on K1 and <=0 on K2, or None."""
    return analyze_pair(k1, k2).certificate


def classify_pair(k1: ConvexCone, k2: ConvexCone) -> str:
    """Trichotomy for a cone pair: strongly transversal, complementary
    subspaces, or linearly separable."""
    return analyze_pair(k1, k2).verdict


def image_cone(L: LinearMap, gamma: GammaSet) -> ConvexCone:
    """The cone {L v : v in Gamma} in V-representation."""
    if L.cols != gamma.dimension:
        raise DimensionMismatchError(
            f"map has {L.cols} columns, gamma dimension is {gamma.dimension}"
        )
    m = L.rows
    if gamma.kind == GammaSet.FULL:
        cols = L.entries.T  # images of the basis vectors
        return conic_hull(np.vstack([cols, -cols]), m)
    if gamma.kind == GammaSet.HALFLINE:
        return conic_hull([L.apply(gamma.direction)], m)
    if gamma.kind == GammaSet.CONE:
        return conic_hull([L.apply(g) for g in gamma.generators], m)
    raise ValueError("image of a box is not a cone")


def is_full_space(cone: ConvexCone) -> bool:
    """True iff the cone positively spans the whole space."""
    return _nonzero_point_in_polyhedral_cone(cone.generators,
                                             cone.dimension) is None


def cone_intersection(k1: ConvexCone, k2: ConvexCone) -> ConvexCone:
    """V-representation of K1 intersected with K2 (via polar constraints)."""
    p1 = polar_of_cone(k1).generators
    p2 = polar_of_cone(k2).generators
    rays = _extreme_rays(np.vstack([p1, p2]), k1.dimension)
    good = [r for r in rays
            if k1.contains(r, 1e-7) and k2.contains(r, 1e-7)]
    return ConvexCone(k1.dimension, np.array(good).reshape(-1, k1.dimension))
