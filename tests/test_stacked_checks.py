"""The stacked certificate checks against the per-point loops they replaced.

``verify_loop`` is the verifier as it was, one point at a time, with its
continuity budget widened from the first 16 points of each delta to every
point, and the report fields it stored; ``curve_modulus_loop`` is the
per-delta grid of ``curve_qdq`` as it was, and ``modulus_loop`` the
modulus object it built.  The ``*_loop`` families are the certificate
families as they were, defined one point at a time, and
``membership_loop`` the pointwise membership oracle; ``verify_loop`` and
``curve_modulus_loop`` call them, not the row-defined families under
test.  They are kept here as oracles only.  The stacked code evaluates
each sample once and must give the same report, field for field and bit
for bit, the same modulus and budgets, and the same errors.

``tests/golden/verifier_reports.json`` pins the reports of every case at
fixed seeds and point counts, as the pointwise families gave them; run
this file with ``--write-golden`` to rewrite it.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import certificates as c
from quasidiff.core import (
    VERDICT_TOL,
    GammaSet,
    LinearMap,
    NonFiniteValueError,
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


def absvalue_loop(delta):
    """Oracle: the family of |x| at 0, one point at a time."""
    d2 = delta * delta

    def L_fn(x):
        t = float(np.atleast_1d(x)[0])
        if abs(t) <= d2:
            slope = t / d2
        else:
            slope = 1.0 if t > 0 else -1.0
        return np.array([[slope]])

    def h_fn(x):
        t = float(np.atleast_1d(x)[0])
        if abs(t) <= d2:
            return np.array([abs(t) - t * t / d2])
        return np.array([0.0])

    return L_fn, h_fn


def curve_loop(data, delta):
    """Oracle: the family of a curve, one point at a time."""
    d2 = delta * delta
    t_bar = data.t_bar
    f0 = np.atleast_1d(np.asarray(data.f(t_bar), dtype=float))

    def phi(s):
        return np.atleast_1d(np.asarray(data.f(t_bar + s), dtype=float)) - f0

    def L_fn(x):
        s = float(np.atleast_1d(x)[0]) - t_bar
        if abs(s) <= d2 / 2.0:
            return data.arc_points(2.0 * s / d2).reshape(-1, 1)
        if abs(s) < d2:
            side = 1.0 if s > 0 else -1.0
            w = (side * s - d2 / 2.0) / (d2 / 2.0)
            end = phi(side * d2) / (side * d2)
            start = data.arc_points(side)
            return ((1.0 - w) * start + w * end).reshape(-1, 1)
        return (phi(s) / s).reshape(-1, 1)

    def h_fn(x):
        s = float(np.atleast_1d(x)[0]) - t_bar
        return phi(s) - L_fn(x) @ np.array([s])

    return L_fn, h_fn


def family_at_loop(family, d):
    """Oracle: a family's map read as a 2-D float array and its remainder
    as a 1-D array, at one point."""
    L_fn, h_fn = family(d)
    return (lambda x: np.atleast_2d(np.asarray(L_fn(x), dtype=float)),
            lambda x: np.atleast_1d(h_fn(x)))


def combine_loop(kind, famF, certF, famG, certG, alpha=1.0, beta=1.0):
    """Oracle: the family of ``combine_certificates`` of the families
    famF and famG of certF and certG, one point at a time."""
    yF, yG = float(certF.y_bar[0]), float(certG.y_bar[0])

    def family(d):
        LF, hF = family_at_loop(famF, d)
        LG, hG = family_at_loop(famG, d)
        if kind == "linear":
            return (lambda x: alpha * LF(x) + beta * LG(x),
                    lambda x: alpha * hF(x) + beta * hG(x))
        if kind == "set_product":
            return (lambda x: np.vstack([LF(x), LG(x)]),
                    lambda x: np.concatenate([hF(x), hG(x)]))

        def h(x):
            dx = np.atleast_1d(x) - certF.x_bar
            aF = LF(x) @ dx + hF(x)
            aG = LG(x) @ dx + hG(x)
            return yF * hG(x) + yG * hF(x) + aF * aG
        return (lambda x: yF * LG(x) + yG * LF(x)), h
    return family


def compose_loop(famF, certF, famG, certG):
    """Oracle: the family of ``compose_certificates``, one point at a
    time."""
    M = max(1.0, *(float(np.max(np.linalg.norm(s.generators, 2, axis=(1, 2))))
                   for s in (certF.lam, certG.lam)))

    def family(d):
        LF, hF = family_at_loop(famF, d)
        LG, hG = family_at_loop(famG, 3.0 * M * d)

        def xi(x):
            return certF.y_bar \
                + LF(x) @ (np.atleast_1d(x) - certF.x_bar) + hF(x)

        def h(x):
            y = xi(x)
            return LG(y) @ hF(x) + hG(y)
        return (lambda x: LG(xi(x)) @ LF(x)), h
    return family


def abundant_loop(F, fam, cert, theta_family):
    """Oracle: the family of ``abundant_transfer``, one point at a time."""
    def family(d):
        L_fn, h_fn = family_at_loop(fam, d)
        eta = d * float(cert.rho(d))

        def h(x):
            y = np.atleast_1d(np.asarray(F(x), dtype=float))
            if eta > 0:
                shift = np.atleast_1d(
                    np.asarray(theta_family(eta)(y), dtype=float)) - y
            else:
                shift = np.zeros_like(y)
            return shift + h_fn(x)
        return L_fn, h
    return family


def membership_loop(F, cert, theta_family, delta_grid):
    """Oracle: the membership of ``abundant_membership`` for the transfer
    of cert, one point at a time."""
    etas = sorted({d * float(cert.rho(d)) for d in delta_grid} - {0.0})

    def member(x, y):
        base = evaluate_rows(F, [x], "F")[0]
        y = np.atleast_1d(np.asarray(y, dtype=float))
        for eta in etas:
            img = evaluate_rows(theta_family(eta), [base], "the retraction")[0]
            if np.linalg.norm(y - img) <= VERDICT_TOL:
                return True
        return False
    return member


def maps_loop(L_fn, xs):
    """Oracle: the maps at the rows of xs, refused at the first row whose
    map has a NaN or an infinity."""
    maps = [np.atleast_2d(np.asarray(L_fn(x), dtype=float)) for x in xs]
    for x, L in zip(xs, maps):
        if not np.isfinite(L).all():
            raise NonFiniteValueError(f"non-finite L_fn at {x.tolist()}",
                                      point=x)
    return maps


def verify_loop(F, cert, family, delta_grid, points_per_delta, seed=0,
                membership=None):
    """Oracle: the verifier one point and one inequality at a time, with
    the pointwise ``family`` of cert, as the dict of every field its report
    stored."""
    deltas = sorted(float(d) for d in delta_grid)
    rho_vals = [cert.rho(d) for d in deltas]
    rho_monotone = all(b >= a - 1e-12 for a, b in zip(rho_vals, rho_vals[1:])) \
        and all(v >= -1e-12 for v in rho_vals)
    violations = []
    checks_per_delta = []
    rng = np.random.default_rng(seed)
    for d, rho_d in zip(deltas, rho_vals):
        L_fn, h_fn = family(d)
        xs = cert.gamma.sample(rng, cert.x_bar, d, points_per_delta)
        xs = xs[:points_per_delta + 2]
        checks_per_delta.append((d, len(xs)))
        if not len(xs):
            continue
        hs = evaluate_rows(h_fn, xs, "h_fn")
        Ls = maps_loop(L_fn, xs)
        if membership is None:
            fxs = evaluate_rows(F, xs, "F")
        for i, (x, h, L) in enumerate(zip(xs, hs, Ls)):
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
            moved = [(x, L, x + d * 1e-6 * (cert.x_bar - x))
                     for x, L in zip(xs, Ls)]
            moved = [(x, L, x2) for x, L, x2 in moved
                     if not np.array_equal(x, x2)]
            L2s = maps_loop(L_fn, np.array([x2 for _, _, x2 in moved]))
            for (x, L, x2), L2 in zip(moved, L2s):
                dx = float(np.linalg.norm(x2 - x))
                dev = float(np.linalg.norm(L - L2))
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
        L_fn, h_fn = curve_loop(data, d)
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
DOUBLER = doubler()


def linear_wrong():
    return c.combine_certificates("linear", A, A, alpha=0.7, beta=0.1)


# name -> (F, certificate, delta grid, membership or None, the oracle's
# pointwise family of the certificate); built on use
CASES = {
    "absvalue": lambda: (abs_map, A, GRID, None, absvalue_loop),
    "absvalue-shrunk": lambda: (abs_map, replace(A, lam=OperatorSet.from_matrices(
        [[[-0.5]], [[1.0]]], convex_closure=True)), GRID, None, absvalue_loop),
    "absvalue-tight-budget": lambda: (
        abs_map, replace(A, lipschitz_budget=TIGHT), GRID, None,
        absvalue_loop),
    "curve-abs": lambda: (abs_map, curve_cert("abs"), GRID, None,
                          lambda d: curve_loop(curve("abs"), d)),
    "curve-corner": lambda: (lambda x: np.array([x[0], abs(x[0])]),
                             curve_cert("corner"), [1e-1, 1e-2], None,
                             lambda d: curve_loop(curve("corner"), d)),
    "linear": lambda: (abs_map, c.combine_certificates(
        "linear", A, A, alpha=2.0, beta=-1.0), [1e-1, 1e-2], None,
        combine_loop("linear", absvalue_loop, A, absvalue_loop, A, 2.0,
                     -1.0)),
    # a row family plus a pointwise one
    "linear-mixed": lambda: (lambda x: np.array([abs(x[0]) + 2.0 * x[0]]),
                             c.combine_certificates("linear", A, DOUBLER),
                             GRID, None,
                             combine_loop("linear", absvalue_loop, A,
                                          DOUBLER.family, DOUBLER)),
    "set-product": lambda: (lambda x: np.array([abs(x[0]), abs(x[0])]),
                            c.combine_certificates("set_product", A, A),
                            [1e-1, 1e-2], None,
                            combine_loop("set_product", absvalue_loop, A,
                                         absvalue_loop, A)),
    # a wrong second component, a small modulus and a tight budget on
    # 2 x 1 maps: a point of the ramp fails two checks
    "set-product-wrong": lambda: (
        lambda x: np.array([abs(x[0]), 2.0 * abs(x[0])]),
        replace(c.combine_certificates("set_product", A, linear_wrong()),
                rho=lambda d: 0.01 * d, lipschitz_budget=TIGHT), GRID, None,
        combine_loop("set_product", absvalue_loop, A, combine_loop(
            "linear", absvalue_loop, A, absvalue_loop, A, 0.7, 0.1),
            linear_wrong())),
    "scalar-product": lambda: (lambda x: np.array([x[0] * x[0]]),
                               c.combine_certificates("scalar_product", A, A),
                               [1e-1, 1e-2], None,
                               combine_loop("scalar_product", absvalue_loop,
                                            A, absvalue_loop, A)),
    "compose": lambda: (lambda x: np.array([2.0 * abs(x[0])]),
                        c.compose_certificates(A, DOUBLER), [1e-2, 1e-3],
                        None, compose_loop(absvalue_loop, A, DOUBLER.family,
                                           DOUBLER)),
    "abundant": lambda: (abs_map, c.abundant_transfer(abs_map, A, theta,
                                                      seed=7), GRID, "member",
                         abundant_loop(abs_map, absvalue_loop, A, theta)),
    "identity-box": lambda: (lambda x: np.asarray(x, dtype=float),
                             linear_cert(np.eye(2)), [1e-1], None,
                             linear_cert(np.eye(2)).family),
    "shear-box-wrong-F": lambda: (lambda x: 1.5 * SHEAR @ x,
                                  linear_cert(SHEAR), [1e-1, 1e-2], None,
                                  linear_cert(SHEAR).family),
}


# the reports of every case, pinned at these (seed, points per delta) runs
GOLDEN = Path(__file__).parent / "golden" / "verifier_reports.json"
GOLDEN_RUNS = [(seed, points) for seed in (0, 5) for points in (3, 40)]


def report_bits(name, seed, points):
    """Every field of the verifier's report on a case, floats as hex."""
    F, cert, grid, member, _ = CASES[name]()
    if member:
        member = c.abundant_membership(F, cert, theta, delta_grid=grid)
    rep = c.verify_certificate(F, cert, grid, points, seed=seed,
                               membership=member)
    return bits(dict(vars(rep), worst_violations=rep.worst_violations,
                     checks_run=rep.checks_run))


def golden_reports():
    return {name: {f"{seed}:{points}": report_bits(name, seed, points)
                   for seed, points in GOLDEN_RUNS} for name in sorted(CASES)}


class TestVerifierMatchesLoop:
    @pytest.mark.parametrize("name", sorted(CASES))
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), points=st.integers(1, 40))
    def test_report_bit_identical(self, name, seed, points):
        F, cert, grid, member, family = CASES[name]()
        oracle = None
        if member:
            member = c.abundant_membership(F, cert, theta, delta_grid=grid)
            oracle = membership_loop(F, A, theta, grid)
        got = c.verify_certificate(F, cert, grid, points, seed=seed,
                                   membership=member)
        want = verify_loop(F, cert, family, grid, points, seed=seed,
                           membership=oracle)
        report = dict(vars(got), worst_violations=got.worst_violations,
                      checks_run=got.checks_run)
        assert bits(report) == bits(want)

    def test_every_case_reaches_its_checks(self):
        # the wrong cases report every kind of violation of a map with
        # more than one entry, and two at some point
        kinds = set()
        for name in ("set-product-wrong", "shear-box-wrong-F"):
            F, cert, grid, _, _ = CASES[name]()
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

    def test_reports_match_golden(self):
        want = json.loads(GOLDEN.read_text())
        assert json.loads(json.dumps(golden_reports())) == want


def family_case(name):
    _, cert, _, _, oracle = CASES[name]()
    return cert.family, oracle, float(cert.x_bar[0])


# name -> (row-defined family, its pointwise oracle, x_bar); built on use
FAMILY_CASES = {
    **{name: lambda name=name: family_case(name) for name in (
        "absvalue", "curve-abs", "curve-corner", "linear", "linear-mixed",
        "set-product", "set-product-wrong", "scalar-product", "compose",
        "abundant")},
    "curve-sin": lambda: (lambda d: c.curve_certificate(curve("sin"), d),
                          lambda d: curve_loop(curve("sin"), d), 0.3),
    # one ulp of t_bar is 1.2e-7, so offsets of d^2 round
    "curve-1e9": lambda: (lambda d: c.curve_certificate(curve("1e9"), d),
                          lambda d: curve_loop(curve("1e9"), d), 1e9),
}


class TestRowFamiliesMatchLoop:
    @pytest.mark.parametrize("name", sorted(FAMILY_CASES))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(delta=st.sampled_from([1e-1, 1e-2, 1e-3, 2.0 ** -7]),
           fracs=st.lists(st.floats(-2.0, 2.0), max_size=8))
    def test_rows_and_point_calls_match_loop(self, name, delta, fracs):
        # the window edges +-d^2 and +-d^2 / 2, both zeros, and points
        # out to twice delta, as rows and one point at a time
        family, oracle, x_bar = FAMILY_CASES[name]()
        d2 = delta * delta
        offs = np.array([d2, -d2, d2 / 2.0, -d2 / 2.0, 0.0, -0.0]
                        + [f * delta for f in fracs])
        X = (offs if x_bar == 0.0 else x_bar + offs)[:, None]
        L_fn, h_fn = family(delta)
        L_loop, h_loop = family_at_loop(oracle, delta)
        want_L = np.array([L_loop(x) for x in X])
        want_h = np.array([h_loop(x) for x in X], dtype=float)
        for got, want in ((L_fn.rows(X), want_L), (h_fn.rows(X), want_h)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for x, L, h in zip(X, want_L, want_h):
            assert np.asarray(L_fn(x)).tobytes() == L.tobytes()
            assert np.asarray(h_fn(x), dtype=float).tobytes() == h.tobytes()


def nan_map_right(family):
    """family with a NaN map on the right half-line."""
    def at(d):
        L_fn, h_fn = family(d)
        return (lambda x: [[np.nan]] if x[0] > 0 else L_fn(x)), h_fn
    return at


def nan_remainder_left(family):
    """family with a NaN remainder on the left half-line."""
    def at(d):
        L_fn, h_fn = family(d)
        return L_fn, (lambda x: np.array([np.nan]) if x[0] < 0 else h_fn(x))
    return at


def nan_between(lo, hi, F=abs_map):
    """F, NaN on (lo, hi)."""
    return lambda x: np.array([np.nan]) if lo < x[0] < hi else F(x)


def theta_nan_below(eta):
    """The retraction, NaN at the widths below 1e-5, which the transfer's
    audit (1e-1 ... 1e-4) does not call."""
    return (lambda y: y * np.nan) if eta < 1e-5 else theta(eta)


def theta_split(eta):
    """The retraction, NaN at width 1e-6 below 0.03 and at width 1e-4 above
    0.07: a point-by-point loop and an eta-by-eta pass meet the two at
    different rows."""
    if eta == 1e-6:
        return lambda y: y * np.nan if y[0] < 0.03 else theta(eta)(y)
    if eta == 1e-4:
        return lambda y: y * np.nan if y[0] > 0.07 else theta(eta)(y)
    return theta(eta)


def with_family(family):
    return replace(A, family=family)


def abundant_case(F_transfer, theta_transfer, grid, F_member=abs_map,
                  theta_member=theta):
    t = c.abundant_transfer(F_transfer, A, theta_transfer, seed=7)
    return (abs_map, t, abundant_loop(F_transfer, absvalue_loop, A,
                                      theta_transfer), grid,
            c.abundant_membership(F_member, t, theta_member, GRID),
            membership_loop(F_member, A, theta_member, GRID))


# name -> (F, certificate, the oracle's family, delta grid, membership,
# the oracle's membership), each raising NonFiniteValueError
NAN_CASES = {
    "linear-map": lambda: (
        lambda x: 2.0 * abs_map(x), c.combine_certificates(
            "linear", with_family(nan_map_right(c.absvalue_certificate)), A),
        combine_loop("linear", nan_map_right(absvalue_loop), A,
                     absvalue_loop, A), [1e-1], None, None),
    "scalar-product-remainder": lambda: (
        lambda x: np.array([x[0] * x[0]]), c.combine_certificates(
            "scalar_product", A,
            with_family(nan_remainder_left(c.absvalue_certificate))),
        combine_loop("scalar_product", absvalue_loop, A,
                     nan_remainder_left(absvalue_loop), A), [1e-1], None,
        None),
    "compose-inner-map": lambda: (
        lambda x: 2.0 * abs_map(x), c.compose_certificates(
            with_family(nan_map_right(c.absvalue_certificate)), DOUBLER),
        compose_loop(nan_map_right(absvalue_loop), A, DOUBLER.family,
                     DOUBLER), [1e-2], None, None),
    "set-product-F": lambda: (
        lambda x: np.concatenate([nan_between(0.05, 1.0)(x), abs_map(x)]),
        c.combine_certificates("set_product", A, A),
        combine_loop("set_product", absvalue_loop, A, absvalue_loop, A),
        [1e-1], None, None),
    "abundant-F": lambda: abundant_case(nan_between(0.0, 2e-3), theta,
                                        [1e-3]),
    "abundant-retraction": lambda: abundant_case(abs_map, theta_nan_below,
                                                 [1e-1, 1e-3]),
    "membership-F": lambda: abundant_case(abs_map, theta, [1e-1],
                                          F_member=nan_between(0.0, 1.0)),
    "membership-retraction": lambda: abundant_case(
        abs_map, theta, [1e-1], theta_member=theta_split),
}


def raised(run):
    """The type, message and point of the NonFiniteValueError run raises."""
    with pytest.raises(NonFiniteValueError) as err:
        run()
    return (type(err.value), str(err.value),
            np.asarray(err.value.point).tobytes())


class TestErrorsMatchLoop:
    @pytest.mark.parametrize("name", sorted(NAN_CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_nonfinite_value_raises_as_the_loop(self, name, seed):
        F, cert, family, grid, member, oracle = NAN_CASES[name]()
        got = raised(lambda: c.verify_certificate(F, cert, grid, 20, seed,
                                                  membership=member))
        assert got == raised(lambda: verify_loop(F, cert, family, grid, 20,
                                                 seed, membership=oracle))

    def test_split_retraction_raises_at_the_first_row(self):
        # the width 1e-6 refuses the second row, but the loop reaches the
        # first row's width 1e-4 before it
        _, _, _, _, member, oracle = NAN_CASES["membership-retraction"]()
        X, Y = np.array([[0.08], [0.01]]), np.zeros((2, 1))

        def loop():
            for x, y in zip(X, Y):
                oracle(x, y)
        want = raised(loop)
        assert want[2] == np.array([0.08]).tobytes()
        assert raised(lambda: member.rows(X, Y)) == want
        assert raised(lambda: member(X[0], Y[0])) == want


class TestMembershipMatchesLoop:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 12))
    def test_mask_and_retraction_calls_match_loop(self, seed, k):
        # each row is an image at one of the widths, or no image; the
        # retraction must see the (point, width) pairs the loop sees
        rng = np.random.default_rng(seed)
        X = rng.uniform(-0.2, 0.2, size=(k, 1))
        etas = [d * d for d in GRID]
        pick = rng.integers(len(etas) + 1, size=k)
        Y = np.array([theta(etas[p])(abs_map(x)) if p < len(etas)
                      else abs_map(x) + 1.0 for x, p in zip(X, pick)])
        t = c.abundant_transfer(abs_map, A, theta, seed=7)
        calls = {"rows": [], "loop": []}

        def recording(key):
            def family(eta):
                def at(y):
                    calls[key].append((eta, np.asarray(y).tobytes()))
                    return theta(eta)(y)
                return at
            return family

        member = c.abundant_membership(abs_map, t, recording("rows"), GRID)
        oracle = membership_loop(abs_map, A, recording("loop"), GRID)
        got = member.rows(X, Y)
        want = [oracle(x, y) for x, y in zip(X, Y)]
        assert got.tolist() == want
        assert sorted(calls["rows"]) == sorted(calls["loop"])
        assert [bool(member(x, y)) for x, y in zip(X, Y)] == want


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


if __name__ == "__main__":
    # python tests/test_stacked_checks.py --write-golden rewrites the pinned
    # reports from the code as it stands
    if sys.argv[1:] == ["--write-golden"]:
        GOLDEN.write_text(json.dumps(golden_reports(), indent=1) + "\n")
