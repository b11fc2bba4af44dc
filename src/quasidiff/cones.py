"""Convex-cone algebra: conic hulls, polar cones, transversality and
linear-separation verdicts for finitely generated cones.

A cone is its (k, n) generator array, and its dimension is the array's
width.  One witness search decides a cone pair: a nonzero point of
{p : A p <= 0}, or none.  The search reads only A's unit rows U, so no
verdict depends on the generators' scale.  A rank-deficient U has a null
vector.  A full-rank U has such a point exactly when no y > 0 has
U^T y = 0 (Stiemke's alternative, 1915, a refinement of Gordan's of 1873).
One Lawson-Hanson NNLS solve (Solving Least Squares Problems, 1974)
decides that and returns the point: z = argmin_{z >= 0} |U^T (1 + z)|_2,
and r = U^T (1 + z) satisfies U r >= 0, so -r is a witness unless r is 0.
The linear program this replaces, min |U^T y|_1 over y >= 1, has a value
between |r|_2 and sqrt(n) |r|_2, so the two tests can disagree only on a
system whose |r|_2 lies within a factor sqrt(n) of ``WITNESS_TOL``.
``analyze_pairs`` runs that search once per pair and records its verdict,
with the separating functional when there is one; transversality is read
off the verdict.

The trichotomy of a transversal pair needs no further search.  If
K1 - K2 = R^n and x is in K1, write -x = k1 - k2; then k2 = k1 + x lies
in K1 and K2.  So if the cones meet only at 0, -x = k1 is in K1: K1 is a
subspace, and likewise K2.  Two subspaces with K1 + K2 = R^n meet only at
0 exactly when their dimensions add up to n.  ``analyze_pair`` is the
one-pair view of the batch records.

Polars and intersections use Qhull (Barber, Dobkin & Huhdanpaa 1996), as
``convex_hull_points`` does.  {p : A p <= 0} is the polar of C = cone(rows
of A): its lineality space is null(A), and inside span(C) its extreme rays
are the outward normals of C's facets, the facets through 0 of the hull of
0 and the unit rows of A in span(C).  ``_extreme_rays`` reads them off."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# linprog is not called here: bench/tracer.py wraps cones.linprog by name
from scipy.optimize import linprog, nnls  # noqa: F401
from scipy.spatial import ConvexHull

from .core import DimensionMismatchError, GammaSet, \
    NonFiniteValueError, _svd_rank, as_matrix, dedupe, in_conic_hull, \
    row_norms

WITNESS_TOL = 1e-7


@dataclass(frozen=True)
class ConvexCone:
    """A finitely generated convex cone in V-representation: the rows of a
    read-only (k, n) generator array, k = 0 for the trivial cone in R^n.
    A 1-D input is one generator; an empty list has no width and raises
    ``ValueError``."""

    generators: np.ndarray

    def __post_init__(self):
        gens = np.array(self.generators, dtype=float)
        if gens.ndim == 1 and gens.size:
            gens = gens[None]
        if gens.ndim != 2:
            raise ValueError(f"generators of shape {gens.shape} are not a "
                             "(k, n) array; the trivial cone is (0, n)")
        if not np.all(np.isfinite(gens)):
            raise NonFiniteValueError("generators must be finite")
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]

    @property
    def is_trivial(self) -> bool:
        return self.generators.shape[0] == 0

    def contains_rows(self, points, tol: float = 1e-9) -> np.ndarray:
        """Row-wise ``contains`` of a (k, n) array, as a length-k mask, in
        one ``in_conic_hull`` call.  An array of another shape raises
        ``DimensionMismatchError``, a NaN or an infinite entry
        ``NonFiniteValueError``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points of shape {pts.shape} vs a cone in R^{self.dimension}")
        if not np.isfinite(pts).all():
            raise NonFiniteValueError("point must be finite")
        if self.is_trivial:
            return row_norms(pts) <= tol
        return in_conic_hull(self.generators, pts, tol)

    def contains(self, x, tol: float = 1e-9) -> bool:
        """True iff x is within tol * (1 + |x|) of the cone (within tol of 0
        for the trivial cone): the one-row view of ``contains_rows``.  A
        point of shape other than (dimension,) raises
        ``DimensionMismatchError``, a NaN or an infinite entry
        ``NonFiniteValueError``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"point of shape {x.shape} vs a cone in R^{self.dimension}")
        return bool(self.contains_rows(x[None], tol)[0])

    def is_subspace(self) -> bool:
        """A cone closed under negation of each generator is a linear span;
        the negations are tested in one ``contains_rows`` call at its
        default tolerance."""
        return bool(self.contains_rows(-self.generators).all())

    def to_jsonable(self) -> dict:
        return {"dimension": self.dimension, "generators": self.generators.tolist()}


@dataclass(frozen=True)
class SeparationCertificate:
    """A nonzero functional nonnegative on K1 and nonpositive on K2."""

    functional: np.ndarray

    def validate(self, k1: "ConvexCone", k2: "ConvexCone") -> bool:
        """True iff the functional is nonzero and has the two signs, each
        up to ``WITNESS_TOL`` times the generator's norm, so that the check
        does not depend on the generators' scale."""
        lam = self.functional
        if np.linalg.norm(lam) <= WITNESS_TOL:
            return False
        ok1 = all(lam @ g >= -WITNESS_TOL * np.linalg.norm(g)
                  for g in k1.generators)
        ok2 = all(lam @ g <= WITNESS_TOL * np.linalg.norm(g)
                  for g in k2.generators)
        return ok1 and ok2


def conic_hull(vectors) -> ConvexCone:
    """Conic hull of a finite vector list, read as ``ConvexCone`` reads its
    generators (a NaN or an infinite entry raises ``NonFiniteValueError``);
    zero vectors are dropped."""
    vecs = ConvexCone(vectors).generators
    return ConvexCone(vecs[np.linalg.norm(vecs, axis=1) > 1e-12])


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """The nonzero rows of a (k, n) array, each scaled to unit length: the
    generators of the same cone, whatever their scale."""
    norms = np.linalg.norm(a, axis=1)
    return a[norms > 0.0] / norms[norms > 0.0, None]


def _extreme_rays(a: np.ndarray) -> np.ndarray:
    """Minimal generators of ``{p : a @ p <= 0}`` for a (k, n) float
    matrix: a +-basis of its lineality space and the facet normals of
    C = cone(rows), from one Qhull call (module docstring).  If span(C) is
    a line, C is a ray, whose polar in the span is the opposite ray, or the
    line, whose polar is 0."""
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = _svd_rank(s)
    span, null_basis = vt[:rank], vt[rank:]
    coords = _unit_rows(a) @ span.T
    if rank > 1:
        # "Q12": dupridges, which joined facets of a degenerate C can give,
        # are not errors; "QJ" would move 0 off the facets through it
        facets = ConvexHull(np.vstack([np.zeros(rank), coords]),
                            qhull_options="Q12").equations
        normals = facets[np.abs(facets[:, -1]) <= 1e-9, :-1]
    elif rank == 1 and abs(np.sign(coords).sum()) == len(coords):
        normals = -np.sign(coords[:1])
    else:
        normals = np.zeros((0, rank))
    # Qhull triangulates, so a facet may come once per simplex; two facets
    # can have normals 1e-9 apart, so only such rounding-level repeats go
    return dedupe(np.vstack([null_basis, -null_basis, normals @ span]), 1e-12)


def polar_cone(vectors) -> ConvexCone:
    """Polar cone {p : p.w <= 0 for all w} of a finite vector list, read as
    ``ConvexCone`` reads its generators (a NaN or an infinite entry raises
    ``NonFiniteValueError``)."""
    vecs = ConvexCone(vectors).generators
    rays = _extreme_rays(vecs)
    # drop rays that only witness numerical noise
    good = np.all(vecs @ rays.T <= 1e-8, axis=0)
    return ConvexCone(rays[good])


def _nonzero_points(systems) -> list:
    """For each (k, n) matrix A, a nonzero point of {p : A p <= 0} with
    |p|_inf = 1, or None; the decision depends on A's unit rows U alone.

    A rank-deficient U yields a null vector.  A full-rank U has such a
    point exactly when no y > 0 has U^T y = 0 (Stiemke's alternative,
    module docstring), decided by one NNLS solve: z = argmin_{z >= 0}
    |U^T (1 + z)|_2, and r = U^T (1 + z), recomputed from z because NNLS's
    own residual can be wrong (see ``in_conic_hull``).  The NNLS
    optimality condition gives U r >= 0, so -r / |r|_inf is a witness when
    |r|_2 > ``WITNESS_TOL``; otherwise y = 1 + z > 0 is (numerically) the
    positive combination that rules one out."""
    points = []
    for a in systems:
        unit = _unit_rows(a)
        _, s, vt = np.linalg.svd(unit, full_matrices=True)
        if _svd_rank(s) < a.shape[1]:
            points.append(vt[-1] / np.max(np.abs(vt[-1])))
            continue
        ut = np.ascontiguousarray(unit.T)
        r = ut @ (1.0 + nnls(ut, -ut.sum(axis=1))[0])
        points.append(-r / np.max(np.abs(r))
                      if np.linalg.norm(r) > WITNESS_TOL else None)
    return points


STRONGLY_TRANSVERSAL = "StronglyTransversal"
COMPLEMENTARY_SUBSPACES = "ComplementarySubspaces"
LINEARLY_SEPARABLE = "LinearlySeparable"


@dataclass(frozen=True)
class PairAnalysis:
    """Everything the separation theorems ask of a cone pair, from one
    witness search: the trichotomy verdict, and the separating certificate
    when the verdict is ``LinearlySeparable``."""

    certificate: SeparationCertificate | None
    verdict: str

    @property
    def transversal(self) -> bool:
        """K1 - K2 is the whole space: every verdict but LinearlySeparable."""
        return self.verdict != LINEARLY_SEPARABLE


def _rank(generators: np.ndarray) -> int:
    """Rank of a generator set at the rank tolerance 1e-8; 0 when empty."""
    return int(np.linalg.matrix_rank(generators, tol=1e-8))


def analyze_pairs(pairs) -> list:
    """Transversality, separation and the trichotomy of many cone pairs.

    K1 - K2 = cone(G1, -G2) is the whole space iff no nonzero p has
    [G1; -G2] p <= 0.  Such a p is the negative of a separating
    functional, since those are the points of [-G1; G2] lam <= 0, so one
    witness search answers both questions.

    A transversal pair meets only at 0 exactly when both cones are
    subspaces whose dimensions add up to n: if K1 - K2 = R^n and x is in
    K1, then -x = k1 - k2 puts k2 = k1 + x in K1 and K2, so a trivial
    intersection makes -x = k1 a point of K1.  The pair is
    ``ComplementarySubspaces`` when both cones are subspaces and
    rank(G1) + rank(G2) <= n, and ``StronglyTransversal`` otherwise; a sum
    below n, which only a numerically inconsistent pair can give, is left
    to the caller's rank check.  Every test reads each cone's unit
    generators, so no verdict depends on the generators' scale.

    Returns one ``PairAnalysis`` per pair, in order.
    """
    pairs = list(pairs)
    if any(k1.dimension != k2.dimension for k1, k2 in pairs):
        raise DimensionMismatchError("cones live in different dimensions")
    witnesses = _nonzero_points(
        [np.vstack([k1.generators, -k2.generators]) for k1, k2 in pairs])
    results = []
    for (k1, k2), witness in zip(pairs, witnesses):
        if witness is not None:
            results.append(PairAnalysis(SeparationCertificate(-witness),
                                        LINEARLY_SEPARABLE))
            continue
        u1, u2 = (ConvexCone(_unit_rows(k.generators)) for k in (k1, k2))
        if _rank(u1.generators) + _rank(u2.generators) <= k1.dimension \
                and u1.is_subspace() and u2.is_subspace():
            results.append(PairAnalysis(None, COMPLEMENTARY_SUBSPACES))
        else:
            results.append(PairAnalysis(None, STRONGLY_TRANSVERSAL))
    return results


def analyze_pair(k1: ConvexCone, k2: ConvexCone) -> PairAnalysis:
    """The one-pair view of ``analyze_pairs``."""
    return analyze_pairs([(k1, k2)])[0]


def image_cone(L, gamma: GammaSet) -> ConvexCone:
    """The cone {L v : v in Gamma} in V-representation."""
    L = as_matrix(L)
    m, n = L.shape
    if n != gamma.dimension:
        raise DimensionMismatchError(
            f"map has {n} columns, gamma dimension is {gamma.dimension}")
    if gamma.kind == GammaSet.BOX:
        raise ValueError("image of a box is not a cone")
    return conic_hull(np.reshape([L @ g for g in gamma.generators], (-1, m)))


def is_full_space(cone: ConvexCone) -> bool:
    """True iff the cone positively spans the whole space."""
    return _nonzero_points([cone.generators])[0] is None


def cone_intersection(k1: ConvexCone, k2: ConvexCone) -> ConvexCone:
    """V-representation of K1 intersected with K2 (via polar constraints);
    cones in different dimensions raise ``DimensionMismatchError``."""
    if k1.dimension != k2.dimension:
        raise DimensionMismatchError("cones live in different dimensions")
    rays = _extreme_rays(np.vstack([polar_cone(k1.generators).generators,
                                    polar_cone(k2.generators).generators]))
    return ConvexCone(rays[k1.contains_rows(rays, 1e-7)
                           & k2.contains_rows(rays, 1e-7)])
