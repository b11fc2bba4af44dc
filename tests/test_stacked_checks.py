"""The stacked certificate checks against the per-point loops they replaced.

``verify_loop`` is the verifier as it was, one point at a time, with its
continuity budget widened from the first 16 points of each delta to every
point, and the report fields it stored; ``curve_modulus_loop`` is the
per-delta grid of ``curve_qdq`` as it was, and ``modulus_loop`` the
modulus object it built.  They are kept here as oracles only.  The
stacked code evaluates each sample once and must give the same report,
field for field and bit for bit, and the same modulus and budgets.
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import certificates as c
from quasidiff.core import (
    VERDICT_TOL,
    GammaSet,
    LinearMap,
    OperatorSet,
    _simplex_least_squares,
    distances_to_operator_set,
    evaluate_rows,
    row_norms,
)

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# oracles: the per-point loops

def dist_loop(L, lam):
    """Oracle: the distance from one map to an operator set."""
    flats = lam.flat_generators()
    target = np.asarray(L, dtype=float).ravel()
    if not lam.convex_closure:
        d = float(np.min(np.linalg.norm(flats - target, axis=1)))
    else:
        _, d = _simplex_least_squares(flats.T, target)
    return 0.0 if d <= 1e-12 else d


def verify_loop(F, cert, delta_grid, points_per_delta, seed=0,
                membership=None):
    """Oracle: the verifier one point and one inequality at a time, as the
    dict of every field its report stored."""
    deltas = sorted(float(d) for d in delta_grid)
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
            L = np.atleast_2d(np.asarray(L_fn(x), dtype=float))
            dist = dist_loop(L, cert.lam)
            if dist > rho_d + VERDICT_TOL:
                violations.append({"delta": d, "x": x.tolist(),
                                   "check": "operator_distance",
                                   "value": dist, "bound": rho_d})
            hn = float(np.linalg.norm(h))
            if hn > d * rho_d + VERDICT_TOL:
                violations.append({"delta": d, "x": x.tolist(),
                                   "check": "remainder_size",
                                   "value": hn, "bound": d * rho_d})
            value = cert.y_bar + L @ (x - cert.x_bar) + h
            if membership is not None:
                if not membership(x, value):
                    violations.append({"delta": d, "x": x.tolist(),
                                       "check": "membership",
                                       "value": value.tolist(), "bound": None})
            else:
                resid = float(np.linalg.norm(value - fxs[i]))
                if resid > VERDICT_TOL:
                    violations.append({"delta": d, "x": x.tolist(),
                                       "check": "approximation_identity",
                                       "value": resid, "bound": VERDICT_TOL})
        if cert.lipschitz_budget is not None and len(xs) >= 2:
            budget = cert.lipschitz_budget(d)
            for x in xs:
                x2 = x + d * 1e-6 * (cert.x_bar - x)
                if np.array_equal(x, x2):
                    continue
                dx = float(np.linalg.norm(x2 - x))
                dev = float(np.linalg.norm(np.asarray(L_fn(x), dtype=float)
                                           - np.asarray(L_fn(x2), dtype=float)))
                if dev > budget * dx * 1.5 + 1e-9:
                    violations.append({"delta": d, "x": x.tolist(),
                                       "check": "continuity_budget",
                                       "value": dev / max(dx, 1e-300),
                                       "bound": budget})
    ranked = sorted(violations,
                    key=lambda v: -(v["value"]
                                    if isinstance(v["value"], float) else 0.0))
    sampled_enough = all(n >= points_per_delta for _, n in checks_per_delta)
    accepted = rho_monotone and sampled_enough and not violations
    return {"accepted": accepted, "worst_violations": ranked[:20],
            "checks_run": sum(n for _, n in checks_per_delta),
            "rho_monotone": rho_monotone, "violations": violations,
            "checks_per_delta": tuple(checks_per_delta)}


def curve_modulus_loop(data):
    """Oracle: the modulus samples and the per-delta budgets of
    ``curve_qdq``, one grid point at a time."""
    if data.codomain_dim == 1:
        lam = c._derivative_segment(data.left_derivative,
                                    data.right_derivative)
    else:
        lam = OperatorSet.from_vectors(
            data.arc_points(np.linspace(-1.0, 1.0, 41)))
    grid = sorted(set([2.0 ** (-k) for k in range(2, 13)]
                      + [float(d) for d in c.DEFAULT_DELTA_GRID]))
    grid = [d for d in grid if d < 0.5]
    budgets, raw = {}, []
    for d in grid:
        L_fn, h_fn = c.curve_certificate(data, d)
        offs = np.unique(np.concatenate([
            np.linspace(-d, d, 161), np.linspace(-d * d, d * d, 161),
            [-d * d / 2.0, d * d / 2.0]]))
        ts = data.t_bar + offs
        hs = evaluate_rows(h_fn, ts[:, None], "h_fn")
        worst, slope, prev, prev_t = 0.0, 0.0, None, None
        for t, h in zip(ts, hs):
            L = L_fn(np.array([t]))
            worst = max(worst, dist_loop(L, lam),
                        float(np.linalg.norm(h)) / d)
            if prev is not None and t > prev_t:
                slope = max(slope, float(np.linalg.norm(
                    np.asarray(L) - np.asarray(prev))) / (t - prev_t))
            prev, prev_t = L, t
        raw.append(worst)
        budgets[d] = 2.0 * slope + 1.0
    samples, acc = [], 0.0
    for d, r in zip(grid, raw):
        acc = max(acc, r)
        samples.append((d, 1.3 * acc + 1e-9))
    return samples, budgets


def modulus_loop(samples, delta):
    """Oracle: the modulus that ``curve_qdq`` built from its samples, at
    delta: linear below the grid, interpolated inside it and constant
    above it."""
    deltas = np.array([d for d, _ in samples])
    values = np.array([v for _, v in samples])
    if delta <= deltas[0]:
        return float(values[0] * delta / deltas[0])
    if delta >= deltas[-1]:
        return float(values[-1])
    return float(np.interp(delta, deltas, values))


def bits(obj):
    """``obj`` with every float replaced by its hex form, so that ``==``
    compares bits (and tells 0.0 from -0.0)."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# the certificates

def abs_map(x):
    return np.array([abs(np.atleast_1d(x)[0])])


def theta(eta):
    return lambda y: y + 0.5 * eta * np.cos(y)


@lru_cache(maxsize=None)
def curve(name):
    if name == "abs":
        return c.CurveData.from_function(lambda t: abs(t), 0.0)
    if name == "corner":
        return c.CurveData.from_function(lambda t: np.array([t, abs(t)]), 0.0)
    if name == "sin":
        return c.CurveData.from_function(np.sin, 0.3)
    if name == "space":
        return c.CurveData.from_function(
            lambda t: np.array([t, abs(t), t * t]), 0.0)
    # |t - t_bar| at t_bar = float(name); far from 0, t_bar + offs rounds
    # neighbouring offsets together
    t_bar = float(name)
    return c.CurveData(lambda t: np.array([abs(t - t_bar)]), t_bar, [1.0],
                       [-1.0])


@lru_cache(maxsize=None)
def curve_cert(name):
    return c.curve_qdq(curve(name))


# a map whose products with the samples round
SHEAR = np.array([[0.3, -1.7], [2.1, 0.9]])


def linear_cert(matrix):
    """The exact certificate of x -> matrix @ x on the box [0, 1]^2."""
    return c.QdqCertificate(
        x_bar=[0.0, 0.0], y_bar=[0.0, 0.0],
        gamma=GammaSet.box([0.0, 0.0], [1.0, 1.0]),
        lam=OperatorSet.from_matrices([matrix]), delta_star=1.0,
        rho=lambda d: 0.0,
        family=lambda d: (lambda x: LinearMap(matrix),
                          lambda x: np.zeros(2)))


def doubler():
    return c.QdqCertificate(
        x_bar=[0.0], y_bar=[0.0], gamma=GammaSet.full_space(1),
        lam=OperatorSet.from_matrices([[[2.0]]]), delta_star=1.0,
        rho=lambda d: 0.0,
        family=lambda d: (lambda x: LinearMap([[2.0]]),
                          lambda x: np.array([0.0])))


GRID = [1e-1, 1e-2, 1e-3]
A = c.absvalue_qdq()
TIGHT = lambda d: 0.1 / (d * d)

# name -> (F, certificate, delta grid, membership or None); built on use
CASES = {
    "absvalue": lambda: (abs_map, A, GRID, None),
    "absvalue-shrunk": lambda: (abs_map, replace(A, lam=OperatorSet.from_matrices(
        [[[-0.5]], [[1.0]]], convex_closure=True)), GRID, None),
    "absvalue-tight-budget": lambda: (
        abs_map, replace(A, lipschitz_budget=TIGHT), GRID, None),
    "curve-abs": lambda: (abs_map, curve_cert("abs"), GRID, None),
    "curve-corner": lambda: (lambda x: np.array([x[0], abs(x[0])]),
                             curve_cert("corner"), [1e-1, 1e-2], None),
    "linear": lambda: (abs_map, c.combine_certificates(
        "linear", A, A, alpha=2.0, beta=-1.0), [1e-1, 1e-2], None),
    "set-product": lambda: (lambda x: np.array([abs(x[0]), abs(x[0])]),
                            c.combine_certificates("set_product", A, A),
                            [1e-1, 1e-2], None),
    # a wrong second component, a small modulus and a tight budget on
    # 2 x 1 maps: a point of the ramp fails two checks
    "set-product-wrong": lambda: (
        lambda x: np.array([abs(x[0]), 2.0 * abs(x[0])]),
        replace(c.combine_certificates("set_product", A, c.combine_certificates(
            "linear", A, A, alpha=0.7, beta=0.1)),
            rho=lambda d: 0.01 * d, lipschitz_budget=TIGHT), GRID, None),
    "scalar-product": lambda: (lambda x: np.array([x[0] * x[0]]),
                               c.combine_certificates("scalar_product", A, A),
                               [1e-1, 1e-2], None),
    "compose": lambda: (lambda x: np.array([2.0 * abs(x[0])]),
                        c.compose_certificates(A, doubler()), [1e-2, 1e-3],
                        None),
    "abundant": lambda: (abs_map, c.abundant_transfer(abs_map, A, theta,
                                                      seed=7), GRID, "member"),
    "identity-box": lambda: (lambda x: np.asarray(x, dtype=float),
                             linear_cert(np.eye(2)), [1e-1], None),
    "shear-box-wrong-F": lambda: (lambda x: 1.5 * SHEAR @ x,
                                  linear_cert(SHEAR), [1e-1, 1e-2], None),
}


class TestVerifierMatchesLoop:
    @pytest.mark.parametrize("name", sorted(CASES))
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), points=st.integers(1, 40))
    def test_report_bit_identical(self, name, seed, points):
        F, cert, grid, member = CASES[name]()
        if member:
            member = c.abundant_membership(F, cert, theta, delta_grid=grid)
        got = c.verify_certificate(F, cert, grid, points, seed=seed,
                                   membership=member)
        want = verify_loop(F, cert, grid, points, seed=seed,
                           membership=member)
        report = dict(vars(got), worst_violations=got.worst_violations,
                      checks_run=got.checks_run)
        assert bits(report) == bits(want)

    def test_every_case_reaches_its_checks(self):
        # the wrong cases report every kind of violation of a map with
        # more than one entry, and two at some point
        kinds = set()
        for name in ("set-product-wrong", "shear-box-wrong-F"):
            F, cert, grid, _ = CASES[name]()
            rep = c.verify_certificate(F, cert, grid, 40, seed=0)
            assert not rep.accepted
            kinds |= {v["check"] for v in rep.violations}
            points = [(v["delta"], v["x"]) for v in rep.violations]
            assert name != "set-product-wrong" or \
                len(points) > len({(d, tuple(x)) for d, x in points})
        assert kinds == {"remainder_size", "continuity_budget",
                         "approximation_identity"}
        rep = c.verify_certificate(*CASES["absvalue-shrunk"]()[:3], 40, seed=0)
        assert {v["check"] for v in rep.violations} == {"operator_distance"}


class TestCurveModulusMatchesLoop:
    def test_modulus_and_budgets_bit_identical(self):
        for name in ("abs", "corner", "sin", "space", "0", "0.5", "-3"):
            samples, budgets = curve_modulus_loop(curve(name))
            cert = curve_cert(name)
            # the grid, and below, between and above its points
            grid = [d for d, _ in samples]
            probes = grid + [grid[0] / 3.0, 0.3, 0.49, 0.5] + [
                0.5 * (a + b) for a, b in zip(grid, grid[1:])]
            assert bits([cert.rho(d) for d in probes]) == \
                bits([modulus_loop(samples, d) for d in probes])
            assert bits([cert.lipschitz_budget(d) for d in budgets]) == \
                bits([2.0 * b for b in budgets.values()])

    def test_unresolved_inner_window_raises(self):
        # at t_bar = 1e9 one ulp is 1.2e-7, wider than the inner window
        # [-d^2, d^2] at d = 2^-12, so every window offset rounds onto
        # t_bar and the modulus would be measured without the window
        with pytest.raises(c.WindowResolutionError, match="inner-window"):
            c.curve_qdq(curve("1e9"))


class TestStackedPrimitives:
    @EXAMPLES
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 6),
           shape=st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)]),
           hull=st.booleans(), scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_distances_match_one_map_at_a_time(self, seed, k, shape, hull,
                                               scale):
        rng = np.random.default_rng(seed)
        lam = OperatorSet(scale * rng.normal(size=(k,) + shape), hull)
        maps = np.concatenate([scale * rng.normal(size=(5,) + shape),
                               lam.generators[:1]])
        got = distances_to_operator_set(maps, lam)
        assert bits(got.tolist()) == \
            bits([dist_loop(LinearMap(m), lam) for m in maps])

    @EXAMPLES
    @given(seed=st.integers(0, 2**16), width=st.integers(1, 9))
    def test_row_norms_match_norm_of_each_row(self, seed, width):
        rows = np.random.default_rng(seed).normal(size=(50, width))
        assert bits(row_norms(rows).tolist()) == \
            bits([float(np.linalg.norm(r)) for r in rows])
