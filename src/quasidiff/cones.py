"""Convex-cone algebra: conic hulls, polar cones, transversality and
linear-separation verdicts for finitely generated cones.

A cone is its (k, n) generator array, and its dimension is the array's
width.  One witness search decides a cone pair.  By Gordan's alternative
(Gordan 1873; Stiemke 1915), {p : A p <= 0} holds a nonzero point exactly
when A is rank-deficient or one LP is positive.  ``analyze_pairs`` runs
that test once per pair and records its verdict, with the separating
functional when there is one; transversality is read off the verdict.
The pairs are independent, so the witness LPs of all full-rank pairs are
solved together as one block-diagonal LP: a batch costs at most one
``linprog`` call however many pairs it holds, and a batch LP that is not
optimal is re-solved one block at a time.

The trichotomy of a transversal pair needs no further LP.  If
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
# nnls is not called here: bench/tracer.py wraps cones.nnls by name
from scipy.optimize import linprog, nnls  # noqa: F401
from scipy.sparse import coo_array
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
        up to ``WITNESS_TOL``."""
        lam = self.functional
        if np.linalg.norm(lam) <= WITNESS_TOL:
            return False
        ok1 = all(lam @ g >= -WITNESS_TOL for g in k1.generators)
        ok2 = all(lam @ g <= WITNESS_TOL for g in k2.generators)
        return ok1 and ok2


def conic_hull(vectors) -> ConvexCone:
    """Conic hull of a finite vector list, read as ``ConvexCone`` reads its
    generators (a NaN or an infinite entry raises ``NonFiniteValueError``);
    zero vectors are dropped."""
    vecs = ConvexCone(vectors).generators
    return ConvexCone(vecs[np.linalg.norm(vecs, axis=1) > 1e-12])


def _extreme_rays(constraints: np.ndarray, n: int) -> np.ndarray:
    """Minimal generators of ``{p : constraints @ p <= 0}``: a +-basis of
    its lineality space and the facet normals of C = cone(rows), from one
    Qhull call (module docstring).  If span(C) is a line, C is a ray, whose
    polar in the span is the opposite ray, or the line, whose polar is 0."""
    a = np.asarray(constraints, dtype=float).reshape(-1, n)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = _svd_rank(s)
    span, null_basis = vt[:rank], vt[rank:]
    norms = np.linalg.norm(a, axis=1)
    coords = (a[norms > 0.0] / norms[norms > 0.0, None]) @ span.T
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
    rays = _extreme_rays(vecs, vecs.shape[1])
    # drop rays that only witness numerical noise
    good = np.all(vecs @ rays.T <= 1e-8, axis=0)
    return ConvexCone(rays[good])


def _block_lp(blocks) -> list:
    """Solve independent LPs as one block-diagonal LP.

    Each block ``(c, M)`` is ``min c . x`` over ``M x <= 0``, every variable
    within [-1, 1].  The blocks share no variable or row, so the batch is
    optimal exactly when every block is, and each block's slice of the
    solution is optimal for that block.  Returns one slice per block, or
    None where a block has no optimum: a batch that is not optimal is
    re-solved one block at a time.  The matrix is assembled as one sparse
    array, so memory grows with the blocks' entries, not with the square
    of the batch.
    """
    if not blocks:
        return []
    cs, mats = zip(*blocks)
    shapes = np.array([m.shape for m in mats])
    row_start = np.concatenate([[0], np.cumsum(shapes[:, 0])])
    col_start = np.concatenate([[0], np.cumsum(shapes[:, 1])])
    sizes = shapes[:, 0] * shapes[:, 1]
    data = np.concatenate([m.ravel() for m in mats])
    owner = np.repeat(np.arange(len(mats)), sizes)
    local = np.arange(data.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = shapes[owner, 1]
    nonzero = data != 0.0
    matrix = coo_array(
        (data[nonzero], ((row_start[owner] + local // width)[nonzero],
                         (col_start[owner] + local % width)[nonzero])),
        shape=(row_start[-1], col_start[-1])).tocsr()
    res = linprog(np.concatenate(cs), A_ub=matrix,
                  b_ub=np.zeros(row_start[-1]), bounds=(-1.0, 1.0),
                  method="highs")
    if res.status == 0:
        return [res.x[lo:hi] for lo, hi in zip(col_start[:-1], col_start[1:])]
    if len(blocks) == 1:
        return [None]
    return [x for block in blocks for x in _block_lp([block])]


def _nonzero_points(systems) -> list:
    """For each ``(A, n)``, a nonzero point of {p : A p <= 0} with
    |p|_inf <= 1, or None.

    Gordan's alternative (Gordan 1873; Stiemke 1915): such a point exists
    exactly when A has rank < n, or when the linear program
    max sum(-A p) over {A p <= 0, |p|_inf <= 1} is positive.  A
    rank-deficient A yields a null vector scaled to |p|_inf = 1, with no
    LP; the LPs of all full-rank systems are solved as one block-diagonal
    LP.  The objective weighs each row by its inverse norm, so the decision
    does not depend on the generators' scale.
    """
    points = [None] * len(systems)
    blocks, where = [], []
    for i, (constraints, n) in enumerate(systems):
        a = np.asarray(constraints, dtype=float).reshape(-1, n)
        norms = np.linalg.norm(a, axis=1)
        unit = a / np.where(norms > 0.0, norms, 1.0)[:, None]
        _, s, vt = np.linalg.svd(unit, full_matrices=True)
        if _svd_rank(s) < n:
            points[i] = vt[-1] / np.max(np.abs(vt[-1]))
        else:
            blocks.append((unit.sum(axis=0), a))
            where.append(i)
    solutions = _block_lp(blocks)
    for i, (c, _), x in zip(where, blocks, solutions):
        if x is not None and -(c @ x) > WITNESS_TOL \
                and np.max(np.abs(x)) > WITNESS_TOL:
            points[i] = x
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
    witness search answers both questions, with one LP for the whole
    batch.

    A transversal pair meets only at 0 exactly when both cones are
    subspaces whose dimensions add up to n: if K1 - K2 = R^n and x is in
    K1, then -x = k1 - k2 puts k2 = k1 + x in K1 and K2, so a trivial
    intersection makes -x = k1 a point of K1.  The pair is
    ``ComplementarySubspaces`` when both cones are subspaces and
    rank(G1) + rank(G2) <= n, and ``StronglyTransversal`` otherwise; a sum
    below n, which only a numerically inconsistent pair can give, is left
    to the caller's rank check.

    Returns one ``PairAnalysis`` per pair, in order.
    """
    pairs = list(pairs)
    if any(k1.dimension != k2.dimension for k1, k2 in pairs):
        raise DimensionMismatchError("cones live in different dimensions")
    witnesses = _nonzero_points(
        [(np.vstack([k1.generators, -k2.generators]), k1.dimension)
         for k1, k2 in pairs])
    results = []
    for (k1, k2), witness in zip(pairs, witnesses):
        if witness is not None:
            results.append(PairAnalysis(SeparationCertificate(-witness),
                                        LINEARLY_SEPARABLE))
        elif _rank(k1.generators) + _rank(k2.generators) <= k1.dimension \
                and k1.is_subspace() and k2.is_subspace():
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
    return _nonzero_points([(cone.generators, cone.dimension)])[0] is None


def cone_intersection(k1: ConvexCone, k2: ConvexCone) -> ConvexCone:
    """V-representation of K1 intersected with K2 (via polar constraints);
    cones in different dimensions raise ``DimensionMismatchError``."""
    if k1.dimension != k2.dimension:
        raise DimensionMismatchError("cones live in different dimensions")
    rays = _extreme_rays(np.vstack([polar_cone(k1.generators).generators,
                                    polar_cone(k2.generators).generators]),
                         k1.dimension)
    return ConvexCone(rays[k1.contains_rows(rays, 1e-7)
                           & k2.contains_rows(rays, 1e-7)])
