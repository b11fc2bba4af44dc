"""First-order set-valued approximation certificates and their calculus.

A certificate packages a base pair (x_bar, y_bar), a direction set, a
compact operator set Lambda, a modulus rho, and a family
delta -> (L_delta, h_delta) of continuous evaluators.  The verifier is a
sampled falsifier: acceptance means no violation was found at the stated
resolution, not a proof.

An evaluator is a callable at one point.  The built-in families are
``core.RowMap``s, defined by their values at the rows of a sample, so the
verifier calls each of them once per delta-sample; a plain callable, such
as a user's lambda, is called once per point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.sparse.csgraph import connected_components

from . import cones as _cones
from .core import (
    DimensionMismatchError,
    GammaSet,
    NonFiniteValueError,
    OperatorSet,
    RowMap,
    VERDICT_TOL,
    _unchecked_rows,
    as_matrix,
    ball_samples,
    distances_to_operator_set,
    evaluate_rows,
    row_norms,
)

DEFAULT_DELTA_GRID = (1e-1, 1e-2, 1e-3)
# the Cauchy test of the one-sided difference quotients
CAUCHY_TOL = 1e-4
# the single-linkage gap at which a curve's generator list is connected
CURVE_GAP = 1e-2


class NotOneSidedDifferentiableError(RuntimeError):
    """One-sided difference quotients failed the Cauchy check."""


class WindowResolutionError(ValueError):
    """A curve's reference time is too large for its sample offsets to
    resolve the certificate's inner window [-delta^2, delta^2]."""


class AbundanceError(RuntimeError):
    """The retraction family violated its uniform error bound."""

    def __init__(self, message, worst_point=None):
        super().__init__(message)
        self.worst_point = worst_point


@dataclass(frozen=True)
class QdqCertificate:
    """A certificate; frozen, so a changed copy comes from
    ``dataclasses.replace``.  ``retraction_eta`` is the retraction-width
    schedule delta -> eta of a certificate made by ``abundant_transfer``,
    None otherwise."""

    x_bar: np.ndarray
    y_bar: np.ndarray
    gamma: GammaSet
    lam: OperatorSet
    delta_star: float
    rho: Callable[[float], float]
    family: Callable[[float], tuple]
    lipschitz_budget: Callable[[float], float] | None = None
    retraction_eta: Callable[[float], float] | None = None

    def __post_init__(self):
        for name in ("x_bar", "y_bar"):
            object.__setattr__(self, name, np.atleast_1d(
                np.asarray(getattr(self, name), dtype=float)))
        m, n = self.lam.shape
        sizes = (self.y_bar.size, self.x_bar.size, self.gamma.dimension)
        if sizes != (m, n, n):
            raise DimensionMismatchError(f"y_bar, x_bar and Gamma of sizes "
                                         f"{sizes} vs {m} x {n} maps")

    @property
    def codomain_dim(self) -> int:
        return self.y_bar.size


@dataclass(frozen=True)
class VerificationReport:
    accepted: bool
    rho_monotone: bool
    violations: list
    checks_per_delta: tuple  # (delta, points checked) per grid value

    @property
    def worst_violations(self) -> list:
        """The 20 largest violations by float ``value`` (others rank 0)."""
        return sorted(self.violations, key=lambda v: -(
            v["value"] if isinstance(v["value"], float) else 0.0))[:20]

    @property
    def checks_run(self) -> int:
        return sum(c for _, c in self.checks_per_delta)

    def to_jsonable(self) -> dict:
        return {
            "accepted": self.accepted,
            "worst_violations": self.worst_violations,
            "checks_run": self.checks_run,
            "checks_per_delta": [list(dc) for dc in self.checks_per_delta],
            "rho_monotone": self.rho_monotone,
        }


def _map_rows(L_fn):
    """A reader of ``L_fn`` at the rows of a (k, n) array, stacked
    (k, m, n) and left unchecked: one ``L_fn.rows`` call when it has one,
    else one call per row, each map read as a 2-D float array; maps of
    several shapes raise ``DimensionMismatchError``."""
    rows = getattr(L_fn, "rows", None)
    if rows is not None:
        return lambda X: np.asarray(rows(X), dtype=float)

    def loop(X):
        maps = [np.atleast_2d(np.asarray(L_fn(x), dtype=float)) for x in X]
        if len({m.shape for m in maps}) > 1:
            raise DimensionMismatchError(
                "L_fn returned maps of several shapes")
        return np.array(maps)
    return loop


def _family_at(cert: QdqCertificate, delta: float):
    """``cert.family(delta)`` as its two row readers, maps and remainders,
    left unchecked: a non-finite value is refused by the verifier's own
    check, which names the outer point."""
    L_fn, h_fn = cert.family(delta)
    return _map_rows(L_fn), partial(_unchecked_rows, h_fn)


def _map_stack(L_fn, xs) -> np.ndarray:
    """``L_fn`` at every row of ``xs``, read by ``_map_rows``; a NaN or an
    infinity raises ``NonFiniteValueError`` at the first row whose map has
    one."""
    stack = _map_rows(L_fn)(xs)
    bad = ~np.isfinite(stack.reshape(len(xs), -1)).all(axis=1)
    if bad.any():
        x = xs[bad.argmax()]
        raise NonFiniteValueError(f"non-finite L_fn at {x.tolist()}", point=x)
    return stack


def _violations(delta, xs, checks) -> list:
    """The records of the failed ``(name, values, bound, failed)`` checks at
    the rows of ``xs``, point by point and then in the order of ``checks``."""
    failed = np.column_stack([bad for _, _, _, bad in checks])
    return [{"delta": delta, "x": xs[i].tolist(), "check": checks[j][0],
             "value": checks[j][1][i].tolist(), "bound": checks[j][2]}
            for i, j in zip(*np.nonzero(failed))]


def verify_certificate(F, cert: QdqCertificate, delta_grid,
                       points_per_delta: int, seed: int = 0,
                       membership=None) -> VerificationReport:
    """Sampled falsification of the three certificate inequalities.

    ``F`` is a single-valued callable unless ``membership(x, y) -> bool``
    is supplied for a set-valued target; a membership ``RowMap`` gives the
    mask of a whole delta-sample in one call.  Raises on an empty
    ``delta_grid`` and on delta values at or above ``cert.delta_star``.  A delta whose
    sample holds fewer than ``points_per_delta`` points (a box direction
    set that misses most of the ball) blocks acceptance, so the verifier
    never passes vacuously.  Each sampled point is evaluated once; the
    continuity budget is checked at every one but ``x_bar``.
    """
    deltas = sorted(float(d) for d in delta_grid)
    if not deltas:
        raise ValueError("delta_grid is empty")
    for d in deltas:
        if not 0.0 < d < cert.delta_star:
            raise ValueError(f"delta {d} outside (0, {cert.delta_star})")

    rho_vals = [cert.rho(d) for d in deltas]
    rho_monotone = all(b >= a - 1e-12 for a, b in zip(rho_vals, rho_vals[1:])) \
        and all(v >= -1e-12 for v in rho_vals)

    violations = []
    checks_per_delta = []
    rng = np.random.default_rng(seed)
    for d, rho_d in zip(deltas, rho_vals):
        L_fn, h_fn = cert.family(d)
        xs = cert.gamma.sample(rng, cert.x_bar, d, points_per_delta)
        xs = xs[:points_per_delta + 2]
        checks_per_delta.append((d, len(xs)))
        if not len(xs):
            continue
        hs = evaluate_rows(h_fn, xs, "h_fn")
        if hs.shape[1] != cert.codomain_dim:
            raise DimensionMismatchError(f"h_fn values of width {hs.shape[1]}"
                                         f" vs R^{cert.codomain_dim}")
        Ls = _map_stack(L_fn, xs)
        dists = distances_to_operator_set(Ls, cert.lam)
        hns = row_norms(hs)
        # one matmul per row, as in L @ (x - x_bar), keeps its bits
        values = cert.y_bar \
            + np.matmul(Ls, (xs - cert.x_bar)[:, :, None])[:, :, 0] + hs
        checks = [("operator_distance", dists, rho_d,
                   dists > rho_d + VERDICT_TOL),
                  ("remainder_size", hns, d * rho_d,
                   hns > d * rho_d + VERDICT_TOL)]
        if membership is not None:
            rows = getattr(membership, "rows", None)
            if rows is not None:
                member = np.asarray(rows(xs, values), dtype=bool)
            else:
                member = np.array([bool(membership(x, v))
                                   for x, v in zip(xs, values)])
            checks.append(("membership", values, None, ~member))
        else:
            resids = row_norms(values - evaluate_rows(F, xs, "F"))
            checks.append(("approximation_identity", resids, VERDICT_TOL,
                           resids > VERDICT_TOL))
        violations += _violations(d, xs, checks)
        # x2 moves toward x_bar by d * 1e-6 of the distance, so only x_bar
        # itself, which does not move, is skipped
        x2s = xs + d * 1e-6 * (cert.x_bar - xs)
        moved = ~np.all(x2s == xs, axis=1)
        if cert.lipschitz_budget is not None and len(xs) >= 2 and moved.any():
            budget = cert.lipschitz_budget(d)
            dxs = row_norms(x2s[moved] - xs[moved])
            devs = row_norms((Ls[moved] - _map_stack(L_fn, x2s[moved]))
                             .reshape(len(dxs), -1))
            violations += _violations(d, xs[moved], [(
                "continuity_budget", devs / np.maximum(dxs, 1e-300), budget,
                devs > budget * dxs * 1.5 + 1e-9)])

    sampled_enough = all(c >= points_per_delta for _, c in checks_per_delta)
    accepted = rho_monotone and sampled_enough and not violations
    return VerificationReport(accepted, rho_monotone, violations,
                              tuple(checks_per_delta))


# ---------------------------------------------------------------------------
# explicit certificate for |x| at 0

def absvalue_certificate(delta: float):
    """The explicit piecewise family for |x| at 0.

    The slope evaluator ramps through [-1, 1] on the inner window
    [-delta^2, delta^2] and equals sgn outside; the remainder is chosen so
    the approximation identity holds exactly, which keeps |h| <= delta^2/4.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    d2 = delta * delta

    def slopes(X):
        t = X[:, 0]
        out = np.where(t > 0, 1.0, -1.0)
        inner = np.abs(t) <= d2
        out[inner] = t[inner] / d2
        return out[:, None, None]

    def remainders(X):
        t = X[:, 0]
        out = np.zeros(len(t))
        inner = np.abs(t) <= d2
        out[inner] = np.abs(t[inner]) - t[inner] * t[inner] / d2
        return out[:, None]

    return RowMap(slopes), RowMap(remainders)


def absvalue_qdq(lam: OperatorSet | None = None) -> QdqCertificate:
    """Full certificate for |x| at (0, 0) in the direction of the line."""
    if lam is None:
        lam = OperatorSet.from_matrices([[[-1.0]], [[1.0]]], convex_closure=True)
    return QdqCertificate(
        x_bar=np.zeros(1), y_bar=np.zeros(1),
        gamma=GammaSet.full_space(1), lam=lam,
        delta_star=1.0,
        rho=lambda d: d,
        family=absvalue_certificate,
        lipschitz_budget=lambda d: 1.1 / (d * d) + 2.0,
    )


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class CurveData:
    """A continuous curve with one-sided derivatives at a reference time;
    frozen, like ``QdqCertificate``."""

    f: Callable[[float], np.ndarray]
    t_bar: float
    right_derivative: np.ndarray
    left_derivative: np.ndarray

    def __post_init__(self):
        for name in ("right_derivative", "left_derivative"):
            object.__setattr__(self, name, np.atleast_1d(
                np.asarray(getattr(self, name), dtype=float)))

    @property
    def codomain_dim(self) -> int:
        return self.right_derivative.size

    def arc_points(self, u) -> np.ndarray:
        """Points of the straight segment from the left derivative (u = -1)
        to the right one (u = +1), one row per entry of an array ``u``."""
        w = 0.5 * (1.0 + np.asarray(u, dtype=float))[..., None]
        return w * self.right_derivative + (1.0 - w) * self.left_derivative

    @staticmethod
    def from_function(f, t_bar: float) -> "CurveData":
        left, right = one_sided_derivatives(f, t_bar)
        return CurveData(f, t_bar, right, left)


def one_sided_derivatives(f, t_bar: float):
    """Richardson-extrapolated one-sided difference quotients at the steps
    2^-4 ... 2^-16.

    Returns (left, right); raises if the last two extrapolants are farther
    apart than ``CAUCHY_TOL``, and ``NonFiniteValueError`` if f returns a
    NaN or an infinity.
    """
    f0 = evaluate_rows(f, [t_bar], "f")[0]
    hs = np.array([2.0 ** (-k) for k in range(4, 17)])

    def extrapolants(sign):
        qs = sign * (evaluate_rows(f, t_bar + sign * hs, "f") - f0) \
            / hs[:, None]
        return 2.0 * qs[1:] - qs[:-1]

    out = []
    for sign in (-1.0, 1.0):
        rs = extrapolants(sign)
        # written so that a NaN gap, from quotients that overflowed, fails
        if not np.linalg.norm(rs[-1] - rs[-2]) <= CAUCHY_TOL:
            raise NotOneSidedDifferentiableError(
                f"quotients not Cauchy on the {'left' if sign < 0 else 'right'}"
            )
        out.append(rs[-1])
    return out[0], out[1]


def minimal_curve_qdq(f, t_bar: float) -> OperatorSet:
    """Smallest certificate set for a scalar curve: the segment between the
    one-sided derivatives."""
    return _derivative_segment(*one_sided_derivatives(f, t_bar))


def _derivative_segment(left, right) -> OperatorSet:
    """The hull of the one-sided derivatives of a scalar curve."""
    if left.size != 1:
        raise DimensionMismatchError("minimal certificate set needs m = 1")
    lo, hi = sorted([float(left[0]), float(right[0])])
    return OperatorSet.from_matrices([[[lo]], [[hi]]], convex_closure=True)


def curve_certificate(data: CurveData, delta: float):
    """Piecewise family for a curve: difference quotients on the outer
    annulus, the connecting arc on the inner window, affine links between."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    d2 = delta * delta
    t_bar = data.t_bar
    f0 = np.atleast_1d(np.asarray(data.f(t_bar), dtype=float))

    def phi(s) -> np.ndarray:
        """f(t_bar + s) - f(t_bar), one f call and one row per offset."""
        return np.array([np.atleast_1d(np.asarray(data.f(t), dtype=float))
                         for t in (t_bar + s).tolist()]).reshape(
                             len(s), f0.size) - f0

    def maps(s, ph=None) -> np.ndarray:
        """The (k, m, 1) maps at the offsets s; ``ph`` is phi(s) when the
        caller has it."""
        out = np.empty((len(s), f0.size))
        arc = np.abs(s) <= d2 / 2.0
        link = ~arc & (np.abs(s) < d2)
        out[arc] = data.arc_points(2.0 * s[arc] / d2)
        for side, on in ((1.0, link & (s > 0)), (-1.0, link & ~(s > 0))):
            if on.any():
                w = ((side * s[on] - d2 / 2.0) / (d2 / 2.0))[:, None]
                end = phi(np.array([side * d2]))[0] / (side * d2)
                out[on] = (1.0 - w) * data.arc_points(side) + w * end
        outer = ~(arc | link)
        out[outer] = (phi(s[outer]) if ph is None else ph[outer]) \
            / s[outer, None]
        return out[:, :, None]

    def remainders(X):
        s = X[:, 0] - t_bar
        ph = phi(s)
        return ph - np.matmul(maps(s, ph), s[:, None, None])[:, :, 0]

    return RowMap(lambda X: maps(X[:, 0] - t_bar)), RowMap(remainders)


def curve_qdq(data: CurveData) -> QdqCertificate:
    """Full curve certificate with an empirically measured modulus, on
    delta_star = 0.5.  Lambda is the derivative segment of a scalar curve,
    else 41 points of the connecting arc.  Raises ``WindowResolutionError``
    when t_bar + offset merges distinct offsets of an inner window, whose
    modulus would then be measured without sampling the window."""
    delta_star = 0.5
    if data.codomain_dim == 1:
        lam = _derivative_segment(data.left_derivative, data.right_derivative)
    else:
        lam = OperatorSet.from_vectors(
            data.arc_points(np.linspace(-1.0, 1.0, 41)))

    grid = sorted(set([2.0 ** (-k) for k in range(2, 13)]
                      + [float(d) for d in DEFAULT_DELTA_GRID]))
    grid = [d for d in grid if d < delta_star]
    budgets = {}
    raw = []
    for d in grid:
        L_fn, h_fn = curve_certificate(data, d)
        # multi-scale grid: the piecewise regions live at scales d and d^2
        inner = np.linspace(-d * d, d * d, 161)
        if np.unique(data.t_bar + inner).size < inner.size:
            raise WindowResolutionError(
                f"t_bar = {data.t_bar!r} merges the inner-window offsets "
                f"at delta {d!r}, so the window would go unsampled")
        offs = np.unique(np.concatenate([
            np.linspace(-d, d, 161), inner, [-d * d / 2.0, d * d / 2.0]]))
        ts = data.t_bar + offs
        hs = evaluate_rows(h_fn, ts[:, None], "h_fn")
        Ls = _map_stack(L_fn, ts[:, None])
        raw.append(max(float(np.max(distances_to_operator_set(Ls, lam))),
                       float(np.max(row_norms(hs))) / d))
        # the slope of L between neighbours that t_bar + offs kept apart
        steps = np.diff(ts)
        jumps = row_norms((Ls[1:] - Ls[:-1]).reshape(len(steps), -1))
        budgets[d] = 2.0 * float(np.max(jumps[steps > 0] / steps[steps > 0],
                                        initial=0.0)) + 1.0
    # monotonize with headroom so the verifier's own samples stay inside
    values = 1.3 * np.maximum.accumulate(raw) + 1e-9
    # linear below the measured grid; from its top on, np.interp holds the
    # last value exactly
    rho = lambda d: float(values[0] * d / grid[0] if d <= grid[0]
                          else np.interp(d, grid, values))
    budget = lambda d: budgets[min(grid, key=lambda g: abs(g - d))] * 2.0

    return QdqCertificate(
        x_bar=np.array([data.t_bar]),
        y_bar=np.atleast_1d(np.asarray(data.f(data.t_bar), dtype=float)),
        gamma=GammaSet.full_space(1), lam=lam, delta_star=delta_star,
        rho=rho, family=lambda d: curve_certificate(data, d),
        lipschitz_budget=budget)


def falsify_curve_qdq(data: CurveData, lam: OperatorSet):
    """Necessary-condition falsifier for curve certificate sets.

    Returns a witness dict when a one-sided derivative is farther than
    1e-6 from the set, or when a non-hulled generator list splits (at the
    gap ``CURVE_GAP``) into components separating the two derivatives.
    Absence of a witness does not certify anything.
    """
    tol = 1e-6
    ends = np.stack([data.right_derivative, data.left_derivative])
    dists = distances_to_operator_set(ends[:, :, None], lam).tolist()
    for side, dist in zip(("right", "left"), dists):
        if dist > tol:
            return {"kind": "missing_derivative", "side": side,
                    "distance": dist}
    if lam.convex_closure:
        return None  # hulls are connected
    flats = lam.flat_generators()
    # single-linkage components at the gap threshold, numbered in the order
    # of their first generator
    _, labels = connected_components(
        np.linalg.norm(flats[:, None] - flats[None], axis=2) <= CURVE_GAP,
        directed=False)
    comp_right, comp_left = labels[np.argmin(
        np.linalg.norm(flats - ends[:, None], axis=2), axis=1)].tolist()
    if comp_right != comp_left:
        return {"kind": "disconnected", "gap": CURVE_GAP,
                "components": [comp_left, comp_right]}
    return None


# ---------------------------------------------------------------------------
# calculus

def gamma_intersection(g1: GammaSet, g2: GammaSet) -> GammaSet:
    """Closed-form intersection for the supported direction-set kinds."""
    if g1.kind == GammaSet.FULL:
        return g2
    if g2.kind == GammaSet.FULL:
        return g1
    if g1.kind == GammaSet.HALFLINE and g2.kind == GammaSet.HALFLINE:
        if np.allclose(g1.generators, g2.generators):
            return g1
        raise ValueError("half-lines with distinct directions: intersection "
                         "is not representable")
    if g1.kind == GammaSet.CONE and g2.kind == GammaSet.CONE:
        k1 = _cones.conic_hull(g1.generators)
        k2 = _cones.conic_hull(g2.generators)
        inter = _cones.cone_intersection(k1, k2)
        if inter.is_trivial:
            raise ValueError("cone intersection is trivial")
        return GammaSet.finite_cone(inter.generators)
    if g1.kind == GammaSet.CONE and g2.kind == GammaSet.HALFLINE:
        return gamma_intersection(g2, g1)
    if g1.kind == GammaSet.HALFLINE and g2.kind == GammaSet.CONE:
        if _cones.conic_hull(g2.generators).contains(g1.generators[0]):
            return g1
        raise ValueError("half-line leaves the cone")
    raise ValueError(f"unsupported intersection {g1.kind!r} with {g2.kind!r}")


def _pair_set(op, a: OperatorSet, b: OperatorSet) -> OperatorSet:
    """The set of ``op(a_i, b_j)`` over every generator pair, a-major (b's
    index runs fastest), and a hull when either operand is.  ``op`` maps two
    broadcast (ka, kb, m, n) stacks to one (ka, kb, p, q) stack."""
    ka, kb = len(a.generators), len(b.generators)
    out = op(np.broadcast_to(a.generators[:, None], (ka, kb) + a.shape),
             np.broadcast_to(b.generators[None], (ka, kb) + b.shape))
    return OperatorSet(out.reshape((ka * kb,) + out.shape[2:]),
                       a.convex_closure or b.convex_closure)


def _max_generator_norm(s: OperatorSet) -> float:
    return float(np.max(np.linalg.norm(s.generators, 2, axis=(1, 2))))


def combine_certificates(kind: str, certF: QdqCertificate,
                         certG: QdqCertificate, alpha: float = 1.0,
                         beta: float = 1.0) -> QdqCertificate:
    """Calculus combinators: 'linear', 'set_product', 'scalar_product'."""
    if not np.allclose(certF.x_bar, certG.x_bar):
        raise ValueError("combinators need a shared base point")
    gamma = gamma_intersection(certF.gamma, certG.gamma)
    delta_star = min(certF.delta_star, certG.delta_star)
    budget = None
    if certF.lipschitz_budget and certG.lipschitz_budget:
        bf, bg = certF.lipschitz_budget, certG.lipschitz_budget
        budget = lambda d: (abs(alpha) + abs(beta) + 1.0) * (bf(d) + bg(d))

    if kind == "linear":
        if certF.codomain_dim != certG.codomain_dim:
            raise DimensionMismatchError("linear combination needs a shared "
                                         "codomain")
        lam = _pair_set(lambda f, g: alpha * f + beta * g,
                        certF.lam, certG.lam)
        y_bar = alpha * certF.y_bar + beta * certG.y_bar
        rho = lambda d: abs(alpha) * certF.rho(d) + abs(beta) * certG.rho(d)

        def family(d):
            LF, hF = _family_at(certF, d)
            LG, hG = _family_at(certG, d)
            return (RowMap(lambda X: alpha * LF(X) + beta * LG(X)),
                    RowMap(lambda X: alpha * hF(X) + beta * hG(X)))

    elif kind == "set_product":
        lam = _pair_set(lambda f, g: np.concatenate([f, g], axis=2),
                        certF.lam, certG.lam)
        y_bar = np.concatenate([certF.y_bar, certG.y_bar])
        rho = lambda d: certF.rho(d) + certG.rho(d)

        def family(d):
            LF, hF = _family_at(certF, d)
            LG, hG = _family_at(certG, d)
            return (RowMap(lambda X: np.concatenate([LF(X), LG(X)], axis=1)),
                    RowMap(lambda X: np.concatenate([hF(X), hG(X)], axis=1)))

    elif kind == "scalar_product":
        if certF.codomain_dim != 1 or certG.codomain_dim != 1:
            raise DimensionMismatchError("product rule needs m = 1")
        yF = float(certF.y_bar[0])
        yG = float(certG.y_bar[0])
        lam = _pair_set(lambda g, f: yF * g + yG * f, certG.lam, certF.lam)
        y_bar = np.array([yF * yG])
        cap = min(delta_star, 0.5)
        K = (_max_generator_norm(certF.lam) + 2.0 * certF.rho(cap)) \
            * (_max_generator_norm(certG.lam) + 2.0 * certG.rho(cap)) + 1.0
        rho = lambda d: abs(yF) * certG.rho(d) + abs(yG) * certF.rho(d) \
            + K * d

        def family(d):
            LF, hF = _family_at(certF, d)
            LG, hG = _family_at(certG, d)

            def remainders(X):
                dX = (X - certF.x_bar)[:, :, None]
                hf, hg = hF(X), hG(X)
                aF = np.matmul(LF(X), dX)[:, :, 0] + hf
                aG = np.matmul(LG(X), dX)[:, :, 0] + hg
                return yF * hg + yG * hf + aF * aG
            return RowMap(lambda X: yF * LG(X) + yG * LF(X)), \
                RowMap(remainders)

    else:
        raise ValueError(f"unknown combinator kind {kind!r}")
    return QdqCertificate(certF.x_bar, y_bar, gamma, lam, delta_star, rho,
                          family, budget)


def compose_certificates(certF: QdqCertificate,
                         certG: QdqCertificate) -> QdqCertificate:
    """Chain rule: the set of all compositions, with the scaled radius and
    modulus bookkeeping of the chain-rule construction."""
    if not np.allclose(certF.y_bar, certG.x_bar):
        raise ValueError("chaining point mismatch: codomain base of the inner "
                         "certificate must equal the outer base point")
    lam = _pair_set(np.matmul, certG.lam, certF.lam)
    M = max(1.0, _max_generator_norm(certF.lam), _max_generator_norm(certG.lam))
    delta_star = min(certF.delta_star, certG.delta_star / (3.0 * M), 1.0)

    def family(d):
        LF, hF = _family_at(certF, d)
        LG, hG = _family_at(certG, 3.0 * M * d)

        def inner(X):
            """The inner maps and remainders at the rows of X, and the
            points xi(x) = y_bar + L(x) (x - x_bar) + h(x) they give."""
            Ls, hs = LF(X), hF(X)
            return Ls, hs, certF.y_bar \
                + np.matmul(Ls, (X - certF.x_bar)[:, :, None])[:, :, 0] + hs

        def maps(X):
            Ls, _, Y = inner(X)
            return np.matmul(LG(Y), Ls)

        def remainders(X):
            _, hs, Y = inner(X)
            return np.matmul(LG(Y), hs[:, :, None])[:, :, 0] + hG(Y)
        return RowMap(maps), RowMap(remainders)

    return QdqCertificate(
        certF.x_bar, certG.y_bar, certF.gamma, lam, delta_star,
        lambda d: M * (certF.rho(d) + 3.0 * certG.rho(3.0 * M * d)),
        family, None)


def singleton_qdq_check(F, x_bar, L) -> bool:
    """True iff F looks differentiable at x_bar with derivative L: the
    scaled sup-residual over the balls of radius 2^-2 ... 2^-13 (64 seeded
    samples each, plus the axis points) drops below 1e-3.  Raises
    ``NonFiniteValueError`` if F returns a NaN or an infinity."""
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    L = as_matrix(L)
    F0 = evaluate_rows(F, x_bar[None, :], "F")[0]
    rng = np.random.default_rng(0)
    n = x_bar.size
    ratios = []
    for k in range(2, 14):
        d = 2.0 ** (-k)
        pts = np.vstack([ball_samples(rng, x_bar, d, 64),
                         x_bar + d * np.eye(n), x_bar - d * np.eye(n)])
        resids = evaluate_rows(F, pts, "F") - F0 \
            - np.matmul(L, (pts - x_bar)[:, :, None])[:, :, 0]
        ratios.append(float(np.max(row_norms(resids))) / d)
    return ratios[-1] <= 1e-3 and ratios[-1] <= 0.5 * ratios[0] + 1e-12


def abundant_transfer(F, cert: QdqCertificate, theta_family,
                      seed: int = 0) -> QdqCertificate:
    """Transfer a certificate to the set-valued union of eta-retractions.

    ``theta_family(eta)`` must return a continuous map with
    ``|F(x) - theta_eta(F(x))| < eta`` everywhere; this is audited on 100
    seeded samples at eta = 1e-1 ... 1e-4 before the transfer; an empty
    sample, which audits nothing, raises ``ValueError``.  A NaN or an
    infinity from F or the retraction raises ``NonFiniteValueError``.
    """
    rng = np.random.default_rng(seed)
    xs = cert.gamma.sample(rng, cert.x_bar,
                           min(cert.delta_star * 0.9, 1.0), 100)
    if not len(xs):
        raise ValueError("the retraction audit sample is empty")
    ys = evaluate_rows(F, xs, "F")
    for eta in (1e-1, 1e-2, 1e-3, 1e-4):
        errs = row_norms(ys - evaluate_rows(theta_family(eta), ys,
                                            "the retraction"))
        misses = np.flatnonzero(errs >= eta + VERDICT_TOL)
        if misses.size:
            i = misses[0]
            raise AbundanceError(f"retraction at eta={eta} misses by "
                                 f"{errs[i]}", worst_point=xs[i])

    # the retraction-width schedule lets membership oracles reconstruct
    # the exact images used by the family
    eta_of = lambda d: d * float(cert.rho(d))

    def family(d):
        L_fn, h_fn = cert.family(d)
        eta = eta_of(d)
        theta = theta_family(eta) if eta > 0 else None

        def remainders(X):
            ys = _unchecked_rows(F, X)
            shifts = np.zeros_like(ys) if theta is None \
                else _unchecked_rows(theta, ys) - ys
            return shifts + _unchecked_rows(h_fn, X)
        return L_fn, RowMap(remainders)

    return QdqCertificate(
        cert.x_bar, cert.y_bar, cert.gamma, cert.lam, cert.delta_star,
        lambda d: 2.0 * cert.rho(d), family, cert.lipschitz_budget,
        retraction_eta=eta_of)


def abundant_membership(F, cert: QdqCertificate, theta_family,
                        delta_grid=DEFAULT_DELTA_GRID):
    """Membership oracle for the retraction union of a certificate made by
    ``abundant_transfer`` (another raises ``ValueError``), for use as the
    ``membership`` argument of the verifier: a ``RowMap`` whose rows
    ``(xs, ys)`` give the mask of the rows ys[i] in the union at xs[i].
    Each width eta is tried, in ascending order, only on the rows that no
    earlier one matched, as a point-by-point loop would.  A NaN or an
    infinity from F or the retraction raises ``NonFiniteValueError`` at the
    first row, in that loop's order, that meets one: it would compare as
    no image at all and so read as a non-member."""
    if cert.retraction_eta is None:
        raise ValueError("the certificate has no retraction schedule: "
                         "make it with abundant_transfer")
    etas = sorted({float(cert.retraction_eta(d)) for d in delta_grid} - {0.0})
    thetas = [theta_family(eta) for eta in etas]

    def member_rows(X, Y):
        base = _unchecked_rows(F, X)
        hit = np.zeros(len(X), dtype=bool)
        # the rows whose values so far are all finite
        live = np.isfinite(base).all(axis=1)
        for theta in thetas:
            todo = np.flatnonzero(live & ~hit)
            if not todo.size:
                break
            imgs = _unchecked_rows(theta, base[todo])
            ok = np.isfinite(imgs).all(axis=1)
            live[todo[~ok]] = False
            hit[todo[ok]] = row_norms(Y[todo[ok]] - imgs[ok]) <= VERDICT_TOL
        if not live.all():
            # the checked reads of the first such row raise its error
            i = int(np.argmin(live))
            base = evaluate_rows(F, X[i:i + 1], "F")
            for theta in thetas:
                evaluate_rows(theta, base, "the retraction")
        return hit

    return RowMap(member_rows)
