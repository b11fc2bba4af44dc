"""Mollification and sampling estimators: finite-difference Jacobians,
Clarke generalized Jacobians, pointwise and set-valued Lie brackets, and
the commutator-flow direction quotient.

The estimators score a whole sample cloud in one pass
(``_central_differences``): samples whose finite-difference stencil leaves
the field's box domain are masked by one vectorised test, the central
differences at steps h and h/2 are formed one stencil column at a time over
all remaining samples, and the step-h Jacobians come back with their
two-scale differentiability scores.  ``fd_jacobian`` and
``differentiability_score`` are one-row views of the same pass.  Sample
balls come from ``core.ball_samples``; maps and fields are called on a
whole sample through ``core.evaluate_rows``.  A map or field with a row
evaluator (``rows``, as every catalog entry has) is called once per
sample, and in the stencil pass once per stencil side and column; any
other callable is called point by point, and the stencil pass then skips
the rows whose calls leave the domain.  Non-finite values raise
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
    _row_values,
    ball_samples,
    convex_hull_points,
    dedupe,
    evaluate_rows,
)
from .flows import VectorField, default_config, multiflow_commutator

DIFFERENTIABILITY_THRESHOLD = 1e-3


@dataclass(frozen=True)
class MollifierConfig:
    eta: float
    quadrature_points: int = 512
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")


def _bump(v: np.ndarray) -> float:
    r2 = float(v @ v)
    if r2 >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - r2)))


def _central_differences(f, pts: np.ndarray, steps: tuple):
    """Central-difference Jacobians of f at every row of ``pts``, per step.

    Returns ``(rows, jacobians)``: the indices of the rows whose stencils
    x +- step * e_i all lie in ``f.domain`` (when f has one) and evaluate
    without ``DomainEscapeError``, and for each step a C-contiguous
    ``(len(rows), m, n)`` array of their Jacobians.  A row evaluator
    ``f.rows`` is called once per stencil side and column on the rows still
    kept; a column whose call raises ``DomainEscapeError``, and every
    column of an f without one, calls f row by row and stacks each side's
    values once.  Raises
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
    if domain is not None:
        for plus, minus, _ in stencils:
            ok &= domain.contains_rows(plus) & domain.contains_rows(minus)
    values = None  # (stencil, +/-, row, output), sized at the first value
    for c, (plus, minus, _) in enumerate(stencils):
        live = np.flatnonzero(ok)
        vp = _row_values(f, plus[live]) if live.size else None
        vm = _row_values(f, minus[live]) if vp is not None else None
        if vm is None:
            got, vp, vm = [], [], []
            for r, xp, xm in zip(live.tolist(), plus[live], minus[live]):
                try:
                    a, b = f(xp), f(xm)
                except DomainEscapeError:
                    ok[r] = False
                    continue
                got.append(r)
                vp.append(a)
                vm.append(b)
            if not got:
                continue
            live = got
            vp = np.array(vp, dtype=float).reshape(len(got), -1)
            vm = np.array(vm, dtype=float).reshape(len(got), -1)
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


def _quadrature_rule(n: int, count: int, seed: int):
    """Symmetric quasi-Monte-Carlo bump quadrature on the unit ball.

    Points come in +-pairs and weights are normalized to unit total mass,
    so constants are reproduced exactly and odd moments vanish.  From n = 5
    on, fewer than half of the Halton draws land in the ball, and
    ``EstimatorFailedError`` is raised rather than shrink the rule.
    """
    # imported here, as scipy.stats is slow to import and only this needs it
    from scipy.stats import qmc

    half = max(count // 2, 8)
    sampler = qmc.Halton(d=n, seed=seed)
    raw = 2.0 * sampler.random(4 * half) - 1.0
    inside = raw[np.linalg.norm(raw, axis=1) < 0.999][:half]
    if len(inside) < half:
        raise EstimatorFailedError(
            f"{len(inside)} of {4 * half} quadrature draws land in the unit "
            f"ball of dimension {n}, fewer than the {half} needed")
    pts = np.vstack([inside, -inside])
    weights = np.array([_bump(v) for v in pts])
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
    raises ``EstimatorFailedError``; it is the one user of ``scipy.stats``,
    which it imports on its first call.
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


def lie_bracket_pointwise(f: VectorField, g: VectorField, x, h: float) -> np.ndarray:
    """[f, g](x) = Dg(x) f(x) - Df(x) g(x) via central differences."""
    x = np.asarray(x, dtype=float)
    jf = fd_jacobian(f, x, h)
    jg = fd_jacobian(g, x, h)
    return jg @ f(x) - jf @ g(x)


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
    # the same J @ v product as lie_bracket_pointwise
    pts = pts[keep]
    kept = [b @ fx - a @ gx for fx, gx, a, b in zip(
        evaluate_rows(f, pts, "f"), evaluate_rows(g, pts, "g"),
        jf[keep], jg[keep])]
    if not kept:
        raise EstimatorFailedError("every sample failed the differentiability "
                                   "score; try a smaller fd step")
    verts = _vertex_reduce(np.array(kept))
    return OperatorSet.from_vectors(verts, convex_closure=True).canonicalized()


def bracket_flow_direction(f: VectorField, g: VectorField, q,
                           eps: float) -> np.ndarray:
    """(Psi_sqrt(eps)(q) - q) / eps, the measurable direction quotient of
    the commutator flow, in 200 RK4 steps per leg (``default_config``)."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    t = float(np.sqrt(eps))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return (multiflow_commutator(f, g, q, t, default_config(t)) - q) / eps


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
