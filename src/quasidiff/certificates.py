"""First-order set-valued approximation certificates and their calculus.

A certificate packages a base pair (x_bar, y_bar), a direction set, a
compact operator set Lambda, a modulus rho, and a family
delta -> (L_delta, h_delta) of continuous evaluators.  The verifier is a
sampled falsifier: acceptance means no violation was found at the stated
resolution, not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import cones as _cones
from .core import (
    DimensionMismatchError,
    GammaSet,
    LinearMap,
    Modulus,
    OperatorSet,
    VERDICT_TOL,
    ball_samples,
    dist_to_operator_set,
    evaluate_rows,
)

DEFAULT_DELTA_GRID = (1e-1, 1e-2, 1e-3)


class NotOneSidedDifferentiableError(RuntimeError):
    """One-sided difference quotients failed the Cauchy check."""


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

    @property
    def codomain_dim(self) -> int:
        return self.y_bar.size

    def to_jsonable(self, delta_grid=DEFAULT_DELTA_GRID) -> dict:
        return {
            "x_bar": self.x_bar.tolist(),
            "y_bar": self.y_bar.tolist(),
            "gamma": self.gamma.to_jsonable(),
            "lambda": self.lam.to_jsonable(),
            "delta_star": self.delta_star,
            "rho_samples": [[d, float(self.rho(d))] for d in sorted(delta_grid)],
        }


@dataclass
class VerificationReport:
    accepted: bool
    worst_violations: list
    checks_run: int
    rho_monotone: bool
    violations: list = field(default_factory=list)
    checks_per_delta: tuple = ()  # (delta, points checked) per grid value

    def to_jsonable(self) -> dict:
        return {
            "accepted": self.accepted,
            "worst_violations": self.worst_violations,
            "checks_run": self.checks_run,
            "checks_per_delta": [list(dc) for dc in self.checks_per_delta],
            "rho_monotone": self.rho_monotone,
        }


def _as_linear_map(value) -> LinearMap:
    if isinstance(value, LinearMap):
        return value
    return LinearMap(np.atleast_2d(np.asarray(value, dtype=float)))


def verify_certificate(F, cert: QdqCertificate, delta_grid,
                       points_per_delta: int, seed: int = 0,
                       tol: float = VERDICT_TOL,
                       membership=None) -> VerificationReport:
    """Sampled falsification of the three certificate inequalities.

    ``F`` is a single-valued callable unless ``membership(x, y) -> bool``
    is supplied for a set-valued target.  Raises on an empty ``delta_grid``
    and on delta values at or above ``cert.delta_star``.  A delta whose
    sample holds fewer than ``points_per_delta`` points (a box direction
    set that misses most of the ball) blocks acceptance, so the verifier
    never passes vacuously.
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
        hs = evaluate_rows(h_fn, xs, "h_fn")
        if membership is None:
            fxs = evaluate_rows(F, xs, "F")
        for i, (x, h) in enumerate(zip(xs, hs)):
            L = _as_linear_map(L_fn(x))
            dist = dist_to_operator_set(L, cert.lam)
            if dist > rho_d + tol:
                violations.append({"delta": d, "x": x.tolist(),
                                   "check": "operator_distance",
                                   "value": dist, "bound": rho_d})
            hn = float(np.linalg.norm(h))
            if hn > d * rho_d + tol:
                violations.append({"delta": d, "x": x.tolist(),
                                   "check": "remainder_size",
                                   "value": hn, "bound": d * rho_d})
            value = cert.y_bar + L.apply(x - cert.x_bar) + h
            if membership is not None:
                if not membership(x, value):
                    violations.append({"delta": d, "x": x.tolist(),
                                       "check": "membership",
                                       "value": value.tolist(), "bound": None})
            else:
                resid = float(np.linalg.norm(value - fxs[i]))
                if resid > tol:
                    violations.append({"delta": d, "x": x.tolist(),
                                       "check": "approximation_identity",
                                       "value": resid, "bound": tol})
        if cert.lipschitz_budget is not None and len(xs) >= 2:
            budget = cert.lipschitz_budget(d)
            for x in xs[: min(16, len(xs))]:
                step = d * 1e-6
                x2 = x + step * (cert.x_bar - x) if np.linalg.norm(
                    cert.x_bar - x) > 0 else x
                if np.allclose(x, x2):
                    continue
                dx = float(np.linalg.norm(x2 - x))
                dev = _as_linear_map(L_fn(x)).frobenius_distance(
                    _as_linear_map(L_fn(x2)))
                if dev > budget * dx * 1.5 + 1e-9:
                    violations.append({"delta": d, "x": x.tolist(),
                                       "check": "continuity_budget",
                                       "value": dev / max(dx, 1e-300),
                                       "bound": budget})

    ranked = sorted(violations,
                    key=lambda v: -(v["value"]
                                    if isinstance(v["value"], float) else 0.0))
    sampled_enough = all(c >= points_per_delta for _, c in checks_per_delta)
    accepted = rho_monotone and sampled_enough and not violations
    checks = sum(c for _, c in checks_per_delta)
    return VerificationReport(accepted, ranked[:20], checks, rho_monotone,
                              violations, tuple(checks_per_delta))


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

    def L_fn(x):
        t = float(np.atleast_1d(x)[0])
        if abs(t) <= d2:
            slope = t / d2
        else:
            slope = 1.0 if t > 0 else -1.0
        return LinearMap([[slope]])

    def h_fn(x):
        t = float(np.atleast_1d(x)[0])
        if abs(t) <= d2:
            return np.array([abs(t) - t * t / d2])
        return np.array([0.0])

    return L_fn, h_fn


def absvalue_qdq(lam: OperatorSet | None = None,
                 delta_star: float = 1.0) -> QdqCertificate:
    """Full certificate for |x| at (0, 0) in the direction of the line."""
    if lam is None:
        lam = OperatorSet.from_matrices([[[-1.0]], [[1.0]]], convex_closure=True)
    return QdqCertificate(
        x_bar=np.zeros(1), y_bar=np.zeros(1),
        gamma=GammaSet.full_space(1), lam=lam,
        delta_star=delta_star,
        rho=lambda d: d,
        family=absvalue_certificate,
        lipschitz_budget=lambda d: 1.1 / (d * d) + 2.0,
    )


# ---------------------------------------------------------------------------
# curves

@dataclass
class CurveData:
    """A continuous curve with one-sided derivatives at a reference time."""

    f: Callable[[float], np.ndarray]
    t_bar: float
    right_derivative: np.ndarray
    left_derivative: np.ndarray
    arc: Callable[[float], LinearMap] | None = None

    def __post_init__(self):
        self.right_derivative = np.atleast_1d(
            np.asarray(self.right_derivative, dtype=float))
        self.left_derivative = np.atleast_1d(
            np.asarray(self.left_derivative, dtype=float))

    @property
    def codomain_dim(self) -> int:
        return self.right_derivative.size

    def arc_map(self, u: float) -> LinearMap:
        """Arc from the left derivative (u = -1) to the right one (u = +1);
        defaults to the straight segment."""
        if self.arc is not None:
            return _as_linear_map(self.arc(u))
        w = 0.5 * (1.0 + u)
        vec = w * self.right_derivative + (1.0 - w) * self.left_derivative
        return LinearMap.from_vector(vec)

    @staticmethod
    def from_function(f, t_bar: float) -> "CurveData":
        left, right = one_sided_derivatives(f, t_bar)
        return CurveData(f, t_bar, right, left)


def one_sided_derivatives(f, t_bar: float, k_min: int = 4, k_max: int = 16,
                          cauchy_tol: float = 1e-4):
    """Richardson-extrapolated one-sided difference quotients.

    Returns (left, right); raises if the extrapolants are not Cauchy at
    the stated tolerance, and ``NonFiniteValueError`` if f returns a NaN or
    an infinity.
    """
    f0 = evaluate_rows(f, [t_bar], "f")[0]
    hs = np.array([2.0 ** (-k) for k in range(k_min, k_max + 1)])

    def extrapolants(sign):
        qs = sign * (evaluate_rows(f, t_bar + sign * hs, "f") - f0) \
            / hs[:, None]
        return 2.0 * qs[1:] - qs[:-1]

    out = []
    for sign in (-1.0, 1.0):
        rs = extrapolants(sign)
        # written so that a NaN gap, from quotients that overflowed, fails
        if not np.linalg.norm(rs[-1] - rs[-2]) <= cauchy_tol:
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

    def phi(s: float) -> np.ndarray:
        return np.atleast_1d(np.asarray(data.f(t_bar + s), dtype=float)) - f0

    def L_fn(x):
        s = float(np.atleast_1d(x)[0]) - t_bar
        if abs(s) <= d2 / 2.0:
            return data.arc_map(2.0 * s / d2)
        if abs(s) < d2:
            if s > 0:
                w = (s - d2 / 2.0) / (d2 / 2.0)
                end = phi(d2) / d2
                start = data.arc_map(1.0).flat()
            else:
                w = (-s - d2 / 2.0) / (d2 / 2.0)
                end = phi(-d2) / (-d2)
                start = data.arc_map(-1.0).flat()
            return LinearMap.from_vector((1.0 - w) * start + w * end)
        return LinearMap.from_vector(phi(s) / s)

    def h_fn(x):
        s = float(np.atleast_1d(x)[0]) - t_bar
        return phi(s) - L_fn(x).apply(np.array([s]))

    return L_fn, h_fn


def curve_qdq(data: CurveData, lam: OperatorSet | None = None,
              delta_star: float = 0.5, arc_samples: int = 41,
              extra_deltas=DEFAULT_DELTA_GRID) -> QdqCertificate:
    """Full curve certificate with an empirically measured modulus."""
    if lam is None:
        if data.codomain_dim == 1:
            lam = _derivative_segment(data.left_derivative,
                                      data.right_derivative)
        else:
            pts = [data.arc_map(u).flat()
                   for u in np.linspace(-1.0, 1.0, arc_samples)]
            lam = OperatorSet(
                tuple(LinearMap(p.reshape(-1, 1)) for p in pts),
                convex_closure=False)

    grid = sorted(set([2.0 ** (-k) for k in range(2, 13)]
                      + [float(d) for d in extra_deltas]))
    grid = [d for d in grid if d < delta_star]
    samples = []
    budgets = {}
    raw = []
    for d in grid:
        L_fn, h_fn = curve_certificate(data, d)
        # multi-scale grid: the piecewise regions live at scales d and d^2
        offs = np.unique(np.concatenate([
            np.linspace(-d, d, 161),
            np.linspace(-d * d, d * d, 161),
            [-d * d / 2.0, d * d / 2.0],
        ]))
        ts = data.t_bar + offs
        hs = evaluate_rows(h_fn, ts[:, None], "h_fn")
        worst = 0.0
        slope = 0.0
        prev = None
        prev_t = None
        for t, h in zip(ts, hs):
            L = L_fn(np.array([t]))
            worst = max(worst, dist_to_operator_set(L, lam),
                        float(np.linalg.norm(h)) / d)
            if prev is not None and t > prev_t:
                slope = max(slope, L.frobenius_distance(prev) / (t - prev_t))
            prev, prev_t = L, t
        raw.append(worst)
        budgets[d] = 2.0 * slope + 1.0
    # monotonize with headroom so the verifier's own samples stay inside
    acc = 0.0
    for i, d in enumerate(grid):
        acc = max(acc, raw[i])
        samples.append((d, 1.3 * acc + 1e-9))
    rho = Modulus.from_samples(samples)

    def budget(d, budgets=budgets, grid=grid):
        nearest = min(grid, key=lambda g: abs(g - d))
        return budgets[nearest] * 2.0

    return QdqCertificate(
        x_bar=np.array([data.t_bar]),
        y_bar=np.atleast_1d(np.asarray(data.f(data.t_bar), dtype=float)),
        gamma=GammaSet.full_space(1), lam=lam, delta_star=delta_star,
        rho=rho, family=lambda d: curve_certificate(data, d),
        lipschitz_budget=budget)


def falsify_curve_qdq(data: CurveData, lam: OperatorSet, tol: float = 1e-6,
                      gap: float = 1e-2):
    """Necessary-condition falsifier for curve certificate sets.

    Returns a witness dict when a one-sided derivative is missing from the
    set, or when a non-hulled generator list splits (at the given gap) into
    components separating the two derivatives.  Absence of a witness does
    not certify anything.
    """
    right = LinearMap.from_vector(data.right_derivative)
    left = LinearMap.from_vector(data.left_derivative)
    d_right = dist_to_operator_set(right, lam)
    d_left = dist_to_operator_set(left, lam)
    if d_right > tol:
        return {"kind": "missing_derivative", "side": "right",
                "distance": d_right}
    if d_left > tol:
        return {"kind": "missing_derivative", "side": "left",
                "distance": d_left}
    if lam.convex_closure:
        return None  # hulls are connected
    flats = lam.flat_generators()
    k = flats.shape[0]
    # single-linkage components at the gap threshold
    labels = list(range(k))

    def find(i):
        while labels[i] != i:
            labels[i] = labels[labels[i]]
            i = labels[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if np.linalg.norm(flats[i] - flats[j]) <= gap:
                labels[find(i)] = find(j)
    comp_right = find(int(np.argmin(
        np.linalg.norm(flats - right.flat(), axis=1))))
    comp_left = find(int(np.argmin(
        np.linalg.norm(flats - left.flat(), axis=1))))
    if comp_right != comp_left:
        return {"kind": "disconnected", "gap": gap,
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
        if np.allclose(g1.direction, g2.direction):
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
        k2 = _cones.conic_hull(g2.generators)
        if k2.contains(g1.direction):
            return g1
        raise ValueError("half-line leaves the cone")
    raise ValueError(f"unsupported intersection {g1.kind!r} with {g2.kind!r}")


def _minkowski(alpha: float, a: OperatorSet, beta: float,
               b: OperatorSet) -> OperatorSet:
    gens = tuple(LinearMap(alpha * ga.entries + beta * gb.entries)
                 for ga in a.generators for gb in b.generators)
    return OperatorSet(gens, a.convex_closure or b.convex_closure)


def _max_generator_norm(s: OperatorSet) -> float:
    return max(float(np.linalg.norm(g.entries, 2)) for g in s.generators)


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
        lam = _minkowski(alpha, certF.lam, beta, certG.lam)

        def family(d):
            LF, hF = certF.family(d)
            LG, hG = certG.family(d)
            L = lambda x: LinearMap(alpha * _as_linear_map(LF(x)).entries
                                    + beta * _as_linear_map(LG(x)).entries)
            h = lambda x: alpha * np.atleast_1d(hF(x)) \
                + beta * np.atleast_1d(hG(x))
            return L, h

        return QdqCertificate(
            certF.x_bar, alpha * certF.y_bar + beta * certG.y_bar, gamma, lam,
            delta_star,
            lambda d: abs(alpha) * certF.rho(d) + abs(beta) * certG.rho(d),
            family, budget)

    if kind == "set_product":
        gens = tuple(
            LinearMap(np.vstack([ga.entries, gb.entries]))
            for ga in certF.lam.generators for gb in certG.lam.generators)
        lam = OperatorSet(gens, certF.lam.convex_closure
                          or certG.lam.convex_closure)

        def family(d):
            LF, hF = certF.family(d)
            LG, hG = certG.family(d)
            L = lambda x: LinearMap(np.vstack(
                [_as_linear_map(LF(x)).entries, _as_linear_map(LG(x)).entries]))
            h = lambda x: np.concatenate(
                [np.atleast_1d(hF(x)), np.atleast_1d(hG(x))])
            return L, h

        return QdqCertificate(
            certF.x_bar, np.concatenate([certF.y_bar, certG.y_bar]), gamma,
            lam, delta_star, lambda d: certF.rho(d) + certG.rho(d), family,
            budget)

    if kind == "scalar_product":
        if certF.codomain_dim != 1 or certG.codomain_dim != 1:
            raise DimensionMismatchError("product rule needs m = 1")
        yF = float(certF.y_bar[0])
        yG = float(certG.y_bar[0])
        lam = _minkowski(yF, certG.lam, yG, certF.lam)
        cap = min(delta_star, 0.5)
        K = (_max_generator_norm(certF.lam) + 2.0 * certF.rho(cap)) \
            * (_max_generator_norm(certG.lam) + 2.0 * certG.rho(cap)) + 1.0

        def family(d):
            LF, hF = certF.family(d)
            LG, hG = certG.family(d)

            def L(x):
                return LinearMap(yF * _as_linear_map(LG(x)).entries
                                 + yG * _as_linear_map(LF(x)).entries)

            def h(x):
                dx = np.atleast_1d(x) - certF.x_bar
                aF = _as_linear_map(LF(x)).apply(dx) + np.atleast_1d(hF(x))
                aG = _as_linear_map(LG(x)).apply(dx) + np.atleast_1d(hG(x))
                return yF * np.atleast_1d(hG(x)) + yG * np.atleast_1d(hF(x)) \
                    + aF * aG
            return L, h

        return QdqCertificate(
            certF.x_bar, np.array([yF * yG]), gamma, lam, delta_star,
            lambda d: abs(yF) * certG.rho(d) + abs(yG) * certF.rho(d) + K * d,
            family, budget)

    raise ValueError(f"unknown combinator kind {kind!r}")


def compose_certificates(certF: QdqCertificate,
                         certG: QdqCertificate) -> QdqCertificate:
    """Chain rule: the set of all compositions, with the scaled radius and
    modulus bookkeeping of the chain-rule construction."""
    if not np.allclose(certF.y_bar, certG.x_bar):
        raise ValueError("chaining point mismatch: codomain base of the inner "
                         "certificate must equal the outer base point")
    gens = tuple(LinearMap(gg.entries @ gf.entries)
                 for gg in certG.lam.generators for gf in certF.lam.generators)
    lam = OperatorSet(gens, certF.lam.convex_closure
                      or certG.lam.convex_closure)
    M = max(1.0, _max_generator_norm(certF.lam), _max_generator_norm(certG.lam))
    delta_star = min(certF.delta_star, certG.delta_star / (3.0 * M), 1.0)

    def family(d):
        LF, hF = certF.family(d)
        LG, hG = certG.family(3.0 * M * d)

        def xi(x):
            return certF.y_bar \
                + _as_linear_map(LF(x)).apply(np.atleast_1d(x) - certF.x_bar) \
                + np.atleast_1d(hF(x))

        def L(x):
            return LinearMap(_as_linear_map(LG(xi(x))).entries
                             @ _as_linear_map(LF(x)).entries)

        def h(x):
            y = xi(x)
            return _as_linear_map(LG(y)).apply(np.atleast_1d(hF(x))) \
                + np.atleast_1d(hG(y))
        return L, h

    return QdqCertificate(
        certF.x_bar, certG.y_bar, certF.gamma, lam, delta_star,
        lambda d: M * (certF.rho(d) + 3.0 * certG.rho(3.0 * M * d)),
        family, None)


def singleton_qdq_check(F, x_bar, L: LinearMap, seed: int = 0,
                        samples: int = 64, k_min: int = 2,
                        k_max: int = 13) -> bool:
    """True iff F looks differentiable at x_bar with derivative L: the
    scaled sup-residual over shrinking balls drops below 1e-3.  Raises
    ``NonFiniteValueError`` if F returns a NaN or an infinity."""
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    F0 = evaluate_rows(F, x_bar[None, :], "F")[0]
    rng = np.random.default_rng(seed)
    n = x_bar.size
    ratios = []
    for k in range(k_min, k_max + 1):
        d = 2.0 ** (-k)
        pts = np.vstack([ball_samples(rng, x_bar, d, samples),
                         x_bar + d * np.eye(n), x_bar - d * np.eye(n)])
        sup = 0.0
        for x, fx in zip(pts, evaluate_rows(F, pts, "F")):
            resid = float(np.linalg.norm(fx - F0 - L.apply(x - x_bar)))
            sup = max(sup, resid)
        ratios.append(sup / d)
    return ratios[-1] <= 1e-3 and ratios[-1] <= 0.5 * ratios[0] + 1e-12


def abundant_transfer(F, cert: QdqCertificate, theta_family,
                      eta_grid=(1e-1, 1e-2, 1e-3, 1e-4), seed: int = 0,
                      audit_points: int = 100,
                      tol: float = VERDICT_TOL) -> QdqCertificate:
    """Transfer a certificate to the set-valued union of eta-retractions.

    ``theta_family(eta)`` must return a continuous map with
    ``|F(x) - theta_eta(F(x))| < eta`` everywhere; this is audited on
    samples before the transfer, and a NaN or an infinity from F or the
    retraction raises ``NonFiniteValueError``.
    """
    rng = np.random.default_rng(seed)
    xs = cert.gamma.sample(rng, cert.x_bar,
                           min(cert.delta_star * 0.9, 1.0), audit_points)
    ys = evaluate_rows(F, xs, "F")
    for eta in eta_grid:
        thetas = evaluate_rows(theta_family(eta), ys, "the retraction")
        for x, y, theta_y in zip(xs, ys, thetas):
            err = float(np.linalg.norm(y - theta_y))
            if err >= eta + tol:
                raise AbundanceError(
                    f"retraction at eta={eta} misses by {err}", worst_point=x)

    def family(d):
        L_fn, h_fn = cert.family(d)
        eta = d * float(cert.rho(d))

        def h(x):
            y = np.atleast_1d(np.asarray(F(x), dtype=float))
            if eta > 0:
                shift = np.atleast_1d(
                    np.asarray(theta_family(eta)(y), dtype=float)) - y
            else:
                shift = np.zeros_like(y)
            return shift + np.atleast_1d(h_fn(x))
        return L_fn, h

    # the retraction-width schedule lets membership oracles reconstruct
    # the exact images used by the family
    return QdqCertificate(
        cert.x_bar, cert.y_bar, cert.gamma, cert.lam, cert.delta_star,
        lambda d: 2.0 * cert.rho(d), family, cert.lipschitz_budget,
        retraction_eta=lambda d: d * float(cert.rho(d)))


def abundant_membership(F, cert: QdqCertificate, theta_family,
                        delta_grid=DEFAULT_DELTA_GRID,
                        tol: float = VERDICT_TOL):
    """Membership oracle for the retraction union, for use as the
    ``membership`` argument of the verifier."""
    eta_of = cert.retraction_eta or (lambda d: d * float(cert.rho(d)))
    etas = sorted({float(eta_of(d)) for d in delta_grid} - {0.0})

    def member(x, y):
        base = np.atleast_1d(np.asarray(F(x), dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        for eta in etas:
            img = np.atleast_1d(
                np.asarray(theta_family(eta)(base), dtype=float))
            if np.linalg.norm(y - img) <= tol:
                return True
        return False

    return member
