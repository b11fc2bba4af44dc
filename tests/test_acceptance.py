"""Acceptance suite: eleven numbered criteria covering cone duality, the
trichotomy, the estimators, the certificate calculus, the probes, and
determinism.  Each test prints a single CRITERION line with its verdict
and stated tolerance so the run log doubles as a checklist."""
from __future__ import annotations

import json

import numpy as np
import pytest

from quasidiff import certificates as c
from quasidiff.core import GammaSet, LinearMap, OperatorSet, \
    hausdorff_distance, hull_membership_residual
from quasidiff.fields import abs_shear_field, linear_field, make_map, \
    unit_x_field
from quasidiff.fixtures import builtin_fixtures
from quasidiff.nonsmooth import bracket_flow_direction, \
    clarke_jacobian_estimate, set_lie_bracket_estimate
from quasidiff.scenarios import run_cone_duality, run_scenarios
from quasidiff.separation import (
    NOT_LOCALLY_SEPARATED,
    SurjectivityError,
    local_separation_probe,
    open_mapping_probe,
    separation_verdict,
)
from quasidiff.cli import reference_config_path

CORPUS_SEED = 20240817


@pytest.fixture(scope="module")
def cone_corpus_report():
    return run_cone_duality(pairs=1000, dims=(2, 3, 4, 5), seed=CORPUS_SEED)


def _line(num, name, ok, detail):
    print(f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_cone_duality(cone_corpus_report):
    """1000 random cone pairs in dims 2-5: transversal XOR separable in at
    least 999 cases (witness tolerance WITNESS_TOL = 1e-7)."""
    rep = cone_corpus_report
    ok = rep["xor_holds"] >= 999
    _line(1, "cone duality", ok,
          f"xor held in {rep['xor_holds']}/1000 pairs (need >= 999); "
          f"failures logged: {rep['xor_failures']}")
    assert ok


def test_criterion_02_trichotomy(cone_corpus_report):
    """Same corpus: classification consistent with transversality in 100%
    of cases; complementary-subspace pairs verify trivial intersection and
    full joint rank."""
    rep = cone_corpus_report
    ok = rep["trichotomy_consistent"]
    _line(2, "trichotomy", ok,
          f"verdicts {rep['verdict_counts']}, "
          f"{rep['complementary_checked']} complementary pairs re-verified, "
          f"failures: {rep['trichotomy_failures']}")
    assert ok


def test_criterion_03_clarke_estimate():
    """Generalized-Jacobian estimate of |x| at 0 (radius 1e-3, 10^4
    samples) within Hausdorff 1e-2 of [-1, 1]."""
    est = clarke_jacobian_estimate(lambda x: np.array([abs(x[0])]),
                                   [0.0], 1e-3, 10000, seed=CORPUS_SEED)
    expected = OperatorSet.from_matrices([[[-1.0]], [[1.0]]],
                                         convex_closure=True)
    d = hausdorff_distance(est, expected)
    ok = d <= 1e-2
    _line(3, "clarke estimate", ok, f"hausdorff {d:.2e} (tol 1e-2)")
    assert ok


def test_criterion_04_smooth_commutator():
    """Commutator flow of linear fields: the scaled displacement converges
    to (BA-AB)q with Richardson ratio in [1.6, 2.4] across
    t in {1e-1, 5e-2, 2.5e-2}."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    f, g = linear_field(A), linear_field(B)
    q = np.array([1.0, 1.0])
    target = (B @ A - A @ B) @ q
    errs = [float(np.linalg.norm(bracket_flow_direction(f, g, q, t * t)
                                 - target))
            for t in (1e-1, 5e-2, 2.5e-2)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    _line(4, "smooth commutator expansion", ok,
          f"errors {['%.3e' % e for e in errs]}, ratios "
          f"{['%.3f' % r for r in ratios]} (need within [1.6, 2.4])")
    assert ok


def test_criterion_05_nonsmooth_bracket():
    """f = (1,0), g = (0,|x1|) at q = 0: flow direction within 5e-2 of the
    sampled bracket hull, equal to (0,1) within 1e-3, and the hull within
    Hausdorff 1e-2 of {0} x [-1, 1]."""
    f, g = unit_x_field(), abs_shear_field()
    q = np.zeros(2)
    est = set_lie_bracket_estimate(f, g, q, 1e-3, 2000, seed=CORPUS_SEED)
    direction = bracket_flow_direction(f, g, q, 1e-4)
    d_set = hull_membership_residual(direction, est.flat_generators())
    d_dir = float(np.linalg.norm(direction - np.array([0.0, 1.0])))
    expected = OperatorSet.from_vectors([[0.0, -1.0], [0.0, 1.0]],
                                        convex_closure=True)
    d_haus = hausdorff_distance(est, expected)
    ok = d_set <= 5e-2 and d_dir <= 1e-3 and d_haus <= 1e-2
    _line(5, "nonsmooth bracket", ok,
          f"dist-to-estimate {d_set:.2e} (tol 5e-2), direction error "
          f"{d_dir:.2e} (tol 1e-3), hausdorff {d_haus:.2e} (tol 1e-2)")
    assert ok


def test_criterion_06_certificate_suite():
    """The absolute-value certificate passes verification with the interval
    set and rho(delta) = delta on {1e-1, 1e-2, 1e-3} x 200 points; the
    shrunk set [-0.5, 1] is rejected with a violation at x = -delta."""
    F = make_map("abs1d")
    good = c.absvalue_qdq()
    assert good.rho(0.25) == 0.25  # rho(delta) = delta as stated
    rep_good = c.verify_certificate(F, good, [1e-1, 1e-2, 1e-3], 200, seed=1)
    bad = c.absvalue_qdq()
    bad.lam = OperatorSet.from_matrices([[[-0.5]], [[1.0]]],
                                        convex_closure=True)
    rep_bad = c.verify_certificate(F, bad, [1e-1, 1e-2, 1e-3], 200, seed=1)
    endpoint_hit = any(
        v["check"] == "operator_distance" and v["delta"] <= 1e-2
        and np.isclose(v["x"][0], -v["delta"]) for v in rep_bad.violations)
    ok = rep_good.accepted and not rep_bad.accepted and endpoint_hit
    _line(6, "certificate suite", ok,
          f"interval set accepted={rep_good.accepted} "
          f"({rep_good.checks_run} checks), shrunk set "
          f"rejected={not rep_bad.accepted} with x=-delta witness="
          f"{endpoint_hit}")
    assert ok


def test_criterion_07_curve_falsifier():
    """Disconnected {-1} u {+1} yields a disconnection witness for |x|;
    the interval yields none; the minimal certificate set is exactly
    [-1, 1]."""
    data = c.CurveData.from_function(lambda t: abs(t), 0.0)
    w_disc = c.falsify_curve_qdq(
        data, OperatorSet.from_matrices([[[-1.0]], [[1.0]]]))
    w_hull = c.falsify_curve_qdq(
        data, OperatorSet.from_matrices([[[-1.0]], [[1.0]]],
                                        convex_closure=True))
    minimal = c.minimal_curve_qdq(lambda t: abs(t), 0.0)
    ends = np.sort(minimal.flat_generators().ravel())
    exact = np.allclose(ends, [-1.0, 1.0], atol=1e-10) \
        and minimal.convex_closure
    ok = (w_disc is not None and w_disc["kind"] == "disconnected"
          and w_hull is None and exact)
    _line(7, "curve falsifier", ok,
          f"disconnection witness={w_disc}, interval witness={w_hull}, "
          f"minimal set endpoints={ends.tolist()} (tol 1e-10)")
    assert ok


def test_criterion_08_calculus_soundness():
    """Combinators, composition, and the abundance transfer on the catalog
    fixtures all emit verifiable certificates; composing y -> 2y with |x|
    yields the set [-2, 2] within vertex tolerance 1e-10."""
    F = make_map("abs1d")
    a1, a2 = c.absvalue_qdq(), c.absvalue_qdq()
    checks = {}

    lin = c.combine_certificates("linear", a1, a2, alpha=2.0, beta=-1.0)
    checks["linear"] = c.verify_certificate(
        F, lin, [1e-1, 1e-2], 100, seed=2).accepted
    sp = c.combine_certificates("set_product", a1, a2)
    checks["set_product"] = c.verify_certificate(
        lambda x: np.array([abs(x[0]), abs(x[0])]), sp,
        [1e-1, 1e-2], 100, seed=3).accepted
    pr = c.combine_certificates("scalar_product", a1, a2)
    checks["scalar_product"] = c.verify_certificate(
        lambda x: np.array([x[0] * x[0]]), pr,
        [1e-1, 1e-2], 100, seed=4).accepted

    doubler = c.QdqCertificate(
        x_bar=[0.0], y_bar=[0.0], gamma=GammaSet.full_space(1),
        lam=OperatorSet.from_matrices([[[2.0]]]), delta_star=1.0,
        rho=lambda d: 0.0,
        family=lambda d: (lambda x: LinearMap([[2.0]]),
                          lambda x: np.array([0.0])))
    comp = c.compose_certificates(a1, doubler)
    verts = np.sort(comp.lam.flat_generators().ravel())
    checks["compose_vertices"] = bool(
        np.allclose(verts, [-2.0, 2.0], atol=1e-10))
    checks["compose"] = c.verify_certificate(
        lambda x: np.array([2.0 * abs(x[0])]), comp,
        [1e-2, 1e-3], 100, seed=5).accepted

    theta = lambda eta: (lambda y: y + 0.5 * eta * np.cos(y))
    transferred = c.abundant_transfer(F, a1, theta, seed=6)
    member = c.abundant_membership(F, transferred, theta,
                                   delta_grid=[1e-1, 1e-2, 1e-3])
    checks["abundant"] = c.verify_certificate(
        F, transferred, [1e-1, 1e-2, 1e-3], 100, seed=7,
        membership=member).accepted

    ok = all(checks.values())
    _line(8, "calculus soundness", ok,
          f"{checks}, compose vertices {verts.tolist()} (tol 1e-10)")
    assert ok


def test_criterion_09_open_mapping():
    """The fold map F(x1,x2) = x1 + |x2| passes the covering probe at
    (a, beta) = (0.1, 2) with full coverage including the center target;
    adding the zero map triggers the surjectivity precondition error."""
    F = make_map("fold_sum")
    gamma = GammaSet.full_space(2)
    lam = OperatorSet.from_matrices([[[1.0, -1.0]], [[1.0, 1.0]]],
                                    convex_closure=True)
    rep = open_mapping_probe(F, [0.0, 0.0], [0.0], gamma, lam, 0.1, 2.0,
                             10, 20000, seed=CORPUS_SEED)
    with_zero = OperatorSet.from_matrices(
        [[[1.0, -1.0]], [[1.0, 1.0]], [[0.0, 0.0]]], convex_closure=True)
    try:
        open_mapping_probe(F, [0.0, 0.0], [0.0], gamma, with_zero, 0.1, 2.0,
                           10, 100, seed=CORPUS_SEED)
        precondition_fired = False
    except SurjectivityError:
        precondition_fired = True
    ok = rep.covered_fraction == 1.0 and precondition_fired
    _line(9, "open mapping probe", ok,
          f"covered_fraction={rep.covered_fraction} (need 1.0, center "
          f"included), zero-map precondition error={precondition_fired}")
    assert ok


def test_criterion_10_separation_verdicts():
    """All 10 curated set-pair fixtures: every fired verdict is
    corroborated by a sampled common point distinct from the base point."""
    rows = []
    ok = True
    for f in builtin_fixtures():
        verdict = separation_verdict(f.k1, f.k2)
        probe = local_separation_probe(f.sampler1, f.sampler2, f.z,
                                       f.radius, 2000, seed=CORPUS_SEED)
        fired = verdict == NOT_LOCALLY_SEPARATED
        corroborated = (not fired) or probe["common_point"] is not None
        ok = ok and corroborated
        rows.append(f"{f.name}:{'fired' if fired else 'none'}/"
                    f"{'common' if probe['common_point'] is not None else 'sep'}")
    _line(10, "separation verdicts", ok,
          f"{len(builtin_fixtures())} fixtures [" + ", ".join(rows) + "]")
    assert ok


def test_criterion_11_determinism(tmp_path):
    """Re-running the bundled reference config with fixed seeds reproduces
    byte-identical CSV summaries."""
    cfg = reference_config_path()
    status1 = run_scenarios(cfg, tmp_path / "a")
    status2 = run_scenarios(cfg, tmp_path / "b", parallel=True)
    s1 = (tmp_path / "a" / "summary.csv").read_bytes()
    s2 = (tmp_path / "b" / "summary.csv").read_bytes()
    all_pass = status1 == 0 and status2 == 0
    identical = s1 == s2
    reports_match = all(
        (tmp_path / "a" / p.name).read_bytes() == p.read_bytes()
        for p in sorted((tmp_path / "b").glob("*.json")))
    ok = all_pass and identical and reports_match
    _line(11, "determinism", ok,
          f"suite exit codes ({status1}, {status2}), summaries identical="
          f"{identical}, reports identical={reports_match}")
    assert ok
