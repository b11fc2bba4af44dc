"""Mollification and sampling estimators: finite-difference Jacobians,
Clarke generalized Jacobians, pointwise and set-valued Lie brackets, and
the commutator-flow direction quotient.

The estimators score a whole sample cloud in one pass
(``_central_differences``): samples whose finite-difference stencil leaves
the field's box domain are masked by one vectorised test (none when the
cloud, widened by the largest step, lies in the box), the central
differences at steps h and h/2 are formed one stencil column at a time over
all remaining samples, and the step-h Jacobians come back with their
two-scale differentiability scores.  ``fd_jacobian`` and
``differentiability_score`` are one-row views of the same pass.  Sample
balls come from ``core.ball_samples``; maps and fields are read on a whole
sample, and on each stencil side and column, by ``core``'s row reader, and
the stacked products are ``core._apply_maps``.  Non-finite values raise
``NonFiniteValueError`` instead of reaching a score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatchError,
    DomainEscapeError,
    EstimatorFailedError,
    NonFiniteValueError,
    OperatorSet,
    _apply_maps,
    _read_rows,
    _refuse_non_positive_counts,
    ball_samples,
    convex_hull_points,
    dedupe,
    evaluate_rows,
)
from .flows import VectorField, default_config, multiflow_commutator

DIFFERENTIABILITY_THRESHOLD = 1e-3


@dataclass(frozen=True)
class MollifierConfig:
    """The mollifier's width eta and its quadrature: ``quadrature_points``
    nodes, a positive integer, of which the rule takes at least 16, and the
    seed of their scrambling."""
    eta: float
    quadrature_points: int = 512
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
        _refuse_non_positive_counts(quadrature_points=self.quadrature_points)


def _central_differences(f, pts: np.ndarray, steps: tuple):
    """Central-difference Jacobians of f at every row of ``pts``, per step.

    Returns ``(rows, jacobians)``: the indices of the rows whose stencils
    x +- step * e_i all lie in ``f.domain`` (when f has one) and evaluate
    without ``DomainEscapeError``, and for each step a C-contiguous
    ``(len(rows), m, n)`` array of their Jacobians.  Each stencil side and
    column is read by ``core._read_rows`` on the rows still kept; only a
    column whose read raises ``DomainEscapeError`` is read again row by
    row, and the rows whose reads escape are dropped.  Raises
    ``NonFiniteValueError`` when a kept row has a non-finite quotient.
    """
    k, n = pts.shape
    stencils = []
    for h in steps:
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            stencils.append((pts + e, pts - e, 2.0 * h))
    ok = np.ones(k, dtype=bool)
    domain = getattr(f, "domain", None)
    # rounding is monotone, so every stencil entry lies between a column's
    # least entry less the largest step and its greatest plus that step:
    # when those bounds are in the box, so is every stencil
    reach = max(abs(h) for h in steps)
    if domain is not None and k and not (
            np.all(domain.lo <= pts.min(axis=0) - reach)
            and np.all(pts.max(axis=0) + reach <= domain.hi)):
        for plus, minus, _ in stencils:
            ok &= domain.contains_rows(plus) & domain.contains_rows(minus)
    values = None  # (stencil, +/-, row, output), sized at the first value
    for c, (plus, minus, _) in enumerate(stencils):
        live = np.flatnonzero(ok)
        if not live.size:
            continue
        try:
            vp, vm = (_read_rows(f, side[live]) for side in (plus, minus))
        except DomainEscapeError:  # row by row, dropping the rows that escape
            read = []
            for r in live.tolist():
                try:
                    read.append([_read_rows(f, side[r:r + 1])
                                 for side in (plus, minus)])
                except DomainEscapeError:
                    ok[r] = False
            live = np.flatnonzero(ok)
            if not live.size:
                continue
            vp, vm = (np.vstack(side) for side in zip(*read))
        vp, vm = vp.reshape(len(live), -1), vm.reshape(len(live), -1)
        if values is None:
            values = np.zeros((len(stencils), 2, k, vp.shape[1]))
        values[c, 0, live] = vp
        values[c, 1, live] = vm
    rows = np.flatnonzero(ok)
    if not rows.size:
        return rows, [np.zeros((0, 0, n)) for _ in steps]
    widths = np.array([w for _, _, w in stencils])
    quotients = ((values[:, 0, rows] - values[:, 1, rows])
                 / widths[:, None, None])
    finite = np.all(np.isfinite(quotients), axis=(0, 2))
    if not finite.all():
        raise NonFiniteValueError("non-finite value in a finite-difference "
                                  "stencil", point=pts[rows[np.argmin(finite)]])
    return rows, [np.ascontiguousarray(q.transpose(1, 2, 0))
                  for q in np.split(quotients, len(steps))]


def _scores(j1: np.ndarray, j2: np.ndarray) -> np.ndarray:
    """Two-scale agreement of step-h and step-h/2 Jacobians, over the last
    two axes; near zero on locally linear neighbourhoods."""
    return (np.max(np.abs(j1 - j2), axis=(-2, -1))
            / (1.0 + np.max(np.abs(j1), axis=(-2, -1))))


def _scored_jacobians(f, pts: np.ndarray, h: float):
    """``(rows, step-h Jacobians, scores)`` for the rows of ``pts`` whose
    stencils at h and h/2 stay in the domain."""
    rows, (j1, j2) = _central_differences(f, pts, (h, h / 2.0))
    return rows, j1, _scores(j1, j2) if rows.size else np.zeros(0)


def _at_point(f, x, steps: tuple) -> list:
    """Per-step Jacobians at the single point x."""
    x = np.asarray(x, dtype=float)
    rows, jacs = _central_differences(f, x.reshape(1, -1), steps)
    if not rows.size:
        raise DomainEscapeError("finite-difference stencil leaves domain",
                                point=x)
    return [j[0] for j in jacs]


def fd_jacobian(f, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of f at x with step h, an m x n array."""
    return _at_point(f, x, (h,))[0]


def differentiability_score(f, x, h: float) -> float:
    """Two-scale agreement of central differences; near zero on locally
    linear neighborhoods."""
    return float(_scores(*_at_point(f, x, (h, h / 2.0))))


def _primes(count: int) -> list:
    """The first ``count`` primes, by trial division."""
    primes, c = [], 2
    while len(primes) < count:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes


def _halton(d: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of the Owen-scrambled Halton sequence in
    [0, 1)^d, a (count, d) array, with the bits of scipy's
    ``qmc.Halton(d=d, seed=seed).random(count)``.

    Coordinate i is the van der Corput sequence in the i-th prime base b,
    each digit of an index passed through its own permutation of
    ``arange(b)`` (Owen, "A randomized Halton algorithm in R",
    arXiv:1706.02808).  There are ceil(54 / log2(b)) - 1 digit places,
    those whose weight b^-j still counts next to 1 in double precision;
    their permutations are shuffled by one ``default_rng(seed)``, base by
    base and place by place.  The permuted digits are added onto a zero
    start place by place, the lowest (weight 1/b) first.  Once every index
    has run out of digits, a place adds its permutation of 0 as one
    scalar, which gives the same bits.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for base in _primes(d):
        places = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], places, axis=0)
        # one call, with the bits of rng.shuffle on each row in turn
        rng.permuted(perms, axis=1, out=perms)
        seq, q, b2r = np.zeros(count), np.arange(count), 1.0 / base
        for perm in perms:
            if q.any():
                seq += perm[q % base] * b2r
                q //= base
            else:
                seq += float(perm[0]) * b2r
            b2r /= base
        cols.append(seq)
    return np.array(cols).T


def _quadrature_rule(n: int, count: int, seed: int):
    """Symmetric quasi-Monte-Carlo bump quadrature on the unit ball.

    The nodes are the first ``count // 2`` (at least 8) scrambled Halton
    points (``_halton``, 4 * that many drawn), mapped to [-1, 1)^n, that
    lie within 0.999 of the origin, with their negatives; the weights are
    the bump exp(-1 / (1 - |x|^2)) at each node, |x|^2 taken by one BLAS
    dot per node (``core._apply_maps``), normalized to unit total mass.
    So constants are reproduced exactly and odd moments vanish.  From
    n = 5 on, fewer than half of the Halton draws land in the ball, and
    ``EstimatorFailedError`` is raised rather than shrink the rule.
    """
    half = max(count // 2, 8)
    raw = 2.0 * _halton(n, 4 * half, seed) - 1.0
    inside = raw[np.linalg.norm(raw, axis=1) < 0.999][:half]
    if len(inside) < half:
        raise EstimatorFailedError(
            f"{len(inside)} of {4 * half} quadrature draws land in the unit "
            f"ball of dimension {n}, fewer than the {half} needed")
    pts = np.vstack([inside, -inside])
    # every node has |x| < 0.999, so r2 < 1 and every weight is positive
    r2 = _apply_maps(pts[:, None, :], pts)[:, 0]
    weights = np.exp(-1.0 / (1.0 - r2))
    return pts, weights / weights.sum()


def mollify(f: VectorField, cfg: MollifierConfig) -> VectorField:
    """Convolve a field with the rescaled bump kernel at width eta.

    Once per mollified field: the quadrature rule, its stencil offsets
    ``eta * pts``, their least and greatest entry per coordinate (as
    Python floats, with the box's bounds), the weight column and the zero
    start row.  Per evaluation at x: the stencil ``x + offsets``, one box
    test of its two extreme rows (exact, as rounding is monotone, so
    x + min <= x + o for every offset o), the row-wise test of the whole
    stencil only when that one misses, to report the first failing row, one
    ``evaluate_rows`` call and the weighted sum.  Values that are not n wide
    raise ``DimensionMismatchError``.  From n = 5 on the quadrature rule
    raises ``EstimatorFailedError``.  The rule's scrambled Halton nodes are
    built in-house from numpy (``_halton``), so mollifying imports nothing
    beyond numpy.
    """
    pts, weights = _quadrature_rule(f.dimension, cfg.quadrature_points, cfg.seed)
    offsets = cfg.eta * pts
    # per coordinate: the least and greatest offset, and the box's bounds
    edges = list(zip(offsets.min(axis=0).tolist(), offsets.max(axis=0).tolist(),
                     f.domain.lo.tolist(), f.domain.hi.tolist()))
    column = weights[:, None]
    n = f.dimension
    zero = np.zeros((1, n))

    def evaluator(x):
        ys = x + offsets
        # strict: a point of another size must not skip a coordinate
        if not all(lo <= v + a and v + b <= hi
                   for v, (a, b, lo, hi) in zip(x.tolist(), edges,
                                                 strict=True)):
            inside = f.domain.contains_rows(ys)
            if not inside.all():
                raise DomainEscapeError("mollification stencil leaves domain",
                                        point=ys[np.argmin(inside)])
        values = evaluate_rows(f, ys, "f")
        if values.shape[1] != n:
            raise DimensionMismatchError(f"field of dimension {n} returned "
                                         f"rows of width {values.shape[1]}")
        # the weighted rows are added in quadrature order onto a zero start,
        # the same bits as a row loop of `acc += w * v` at well under half
        # its cost; np.sum would add a single column pairwise, which rounds
        # differently
        return np.add.accumulate(np.concatenate((zero, column * values)),
                                 axis=0)[-1]

    return VectorField(evaluator, f.domain)


def _brackets(jf: np.ndarray, jg: np.ndarray, fx: np.ndarray,
              gx: np.ndarray) -> np.ndarray:
    """The brackets Dg(x) f(x) - Df(x) g(x) of k points, from their (k, n, n)
    Jacobian stacks and (k, n) field values, as a (k, n) array, by two
    ``core._apply_maps`` products."""
    return _apply_maps(jg, fx) - _apply_maps(jf, gx)


def lie_bracket_pointwise(f: VectorField, g: VectorField, x, h: float) -> np.ndarray:
    """[f, g](x) = Dg(x) f(x) - Df(x) g(x) via central differences."""
    x = np.asarray(x, dtype=float)
    jf = fd_jacobian(f, x, h)
    jg = fd_jacobian(g, x, h)
    return _brackets(jf[None], jg[None], f(x)[None], g(x)[None])[0]


def _vertex_reduce(flats: np.ndarray) -> np.ndarray:
    """Reduce a generator cloud to hull vertices when the flattened
    dimension is desk-scale, else just deduplicate."""
    if flats.shape[1] <= 4 and flats.shape[0] > flats.shape[1] + 1:
        return convex_hull_points(flats)
    return dedupe(flats, 1e-10)


def clarke_jacobian_estimate(f, x_bar, radius: float, samples: int,
                             seed: int, fd_step: float | None = None
                             ) -> OperatorSet:
    """Hull of the Jacobians sampled around x_bar whose differentiability
    score is at most ``DIFFERENTIABILITY_THRESHOLD``."""
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    h = fd_step if fd_step is not None else max(radius * 1e-3, 1e-12)
    rng = np.random.default_rng(seed)
    pts = ball_samples(rng, x_bar, radius, samples)
    _, jac, score = _scored_jacobians(f, pts, h)
    kept = jac[score <= DIFFERENTIABILITY_THRESHOLD]
    if not len(kept):
        raise EstimatorFailedError("every sample failed the differentiability "
                                   "score; try a smaller fd step")
    verts = _vertex_reduce(kept.reshape(kept.shape[0], -1))
    return OperatorSet(verts.reshape((-1,) + kept.shape[1:]),
                       convex_closure=True).canonicalized()


def set_lie_bracket_estimate(f: VectorField, g: VectorField, q, radius: float,
                             samples: int, seed: int,
                             fd_step: float | None = None) -> OperatorSet:
    """Hull of sampled pointwise brackets near q, as n x 1 operators, from
    the samples where both fields score at most
    ``DIFFERENTIABILITY_THRESHOLD``."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    h = fd_step if fd_step is not None else max(radius * 1e-3, 1e-12)
    rng = np.random.default_rng(seed)
    pts = ball_samples(rng, q, radius, samples)
    # g is differenced only where f's stencils stayed in the domain
    rows_f, jf, score_f = _scored_jacobians(f, pts, h)
    rows_g, jg, score_g = _scored_jacobians(g, pts[rows_f], h)
    pts, jf = pts[rows_f][rows_g], jf[rows_g]
    keep = np.maximum(score_f[rows_g], score_g) <= DIFFERENTIABILITY_THRESHOLD
    if not keep.any():
        raise EstimatorFailedError("every sample failed the differentiability "
                                   "score; try a smaller fd step")
    pts = pts[keep]
    kept = _brackets(jf[keep], jg[keep], evaluate_rows(f, pts, "f"),
                     evaluate_rows(g, pts, "g"))
    verts = _vertex_reduce(kept)
    return OperatorSet.from_vectors(verts, convex_closure=True).canonicalized()


def bracket_flow_direction(f: VectorField, g: VectorField, q,
                           eps) -> np.ndarray:
    """(Psi_sqrt(eps)(q) - q) / eps, the measurable direction quotient of
    the commutator flow, in exactly 200 RK4 steps per leg
    (``default_config``).  A 1-D sequence of eps (an eps-ladder) gives a
    (k, n) array, row r the quotient at eps[r], from one stacked
    commutator flow; each row has the bits of a one-eps call."""
    ladder = list(eps) if np.ndim(eps) else [eps]
    for e in ladder:
        if not (math.isfinite(e) and e > 0):
            raise ValueError(f"eps must be positive and finite, got {e}")
    ts = [float(np.sqrt(e)) for e in ladder]
    q = np.atleast_1d(np.asarray(q, dtype=float))
    ends = multiflow_commutator(f, g, q, ts, [default_config(t) for t in ts])
    quotients = (ends - q) / np.array(ladder, dtype=float).reshape(-1, 1)
    return quotients if np.ndim(eps) else quotients[0]


def mollified_commutator_flow(f: VectorField, g: VectorField, q, eps: float,
                              quadrature_points: int = 256,
                              seed: int = 0) -> np.ndarray:
    """Commutator flow of the mollified fields with the width coupling
    eta = eps^2, in 50 RK4 steps per leg."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be non-negative and finite, got {eps}")
    eta = eps * eps
    f_s = mollify(f, MollifierConfig(eta, quadrature_points, seed))
    g_s = mollify(g, MollifierConfig(eta, quadrature_points, seed + 1))
    t = float(np.sqrt(eps))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return multiflow_commutator(f_s, g_s, q, t,
                                default_config(t, legs_per_unit=50))
