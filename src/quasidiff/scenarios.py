"""Declarative experiment scenarios: six runner kinds, JSON reports, and a
deterministic CSV summary (timings go to a separate metadata file so
summaries are byte-reproducible).

A runner's signature is its kind's schema: a kind accepts exactly the
keyword parameters of its runner, with the runner's defaults, and a
parameter without a default is a required key.  ``BracketConvergence``
has two runners, picked by its ``mode`` param (``smooth``, the default,
or ``nonsmooth``).  ``load_config`` binds every scenario's params to its
runner before it returns, so an unknown or missing key, an unknown kind
and an unknown mode are ``ConfigError``s before any scenario runs.
"""
from __future__ import annotations

import csv
import inspect
import json
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import certificates as cert_mod
from . import cones as cone_mod
from .core import GammaSet, OperatorSet, hausdorff_distance, \
    hull_membership_residual
from .fields import make_field, make_map
from .fixtures import fixture_by_name
from .nonsmooth import bracket_flow_direction, clarke_jacobian_estimate, \
    set_lie_bracket_estimate
from .separation import (
    NOT_LOCALLY_SEPARATED,
    SurjectivityError,
    audit_z_ignoring,
    local_separation_probe,
    open_mapping_probe,
    separation_verdict,
)

PASS = "PASS"
FAIL = "FAIL"
FAILED = "FAILED"  # runtime error inside the scenario


class ConfigError(ValueError):
    """The scenario config is malformed or names an unknown catalog key."""


_ENTRY_KEYS = {"name", "kind", "params", "seed"}


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    @staticmethod
    def from_jsonable(obj: dict) -> "Scenario":
        unknown = sorted(set(obj) - _ENTRY_KEYS)
        if unknown:
            raise ConfigError(f"scenario entry has unknown keys {unknown}")
        try:
            return Scenario(obj["name"], obj["kind"],
                            dict(obj.get("params", {})),
                            int(obj.get("seed", 0)))
        except KeyError as exc:
            raise ConfigError(f"scenario entry missing key {exc}") from exc


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    kind: str
    verdict: str
    metric_name: str
    metric_value: float
    report: dict
    runtime_ms: float

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


# ---------------------------------------------------------------------------
# runners

def _positively_spans(k1, k2) -> bool:
    """K1 - K2 is the whole space iff it holds every +-e_i; they are
    checked by NNLS in one ``contains_rows`` call, independently of the LP
    behind the verdicts."""
    diff = cone_mod.conic_hull(np.vstack([k1.generators, -k2.generators]))
    axes = np.eye(k1.dimension)
    signed = np.stack([axes, -axes], axis=1).reshape(-1, k1.dimension)
    return bool(diff.contains_rows(signed, cone_mod.WITNESS_TOL).all())


def _xor_failures(index, k1, k2, pair) -> list:
    """Transversal XOR separable, with each side backed by its own check:
    a transversal verdict by the NNLS span oracle, a separable one by a
    certificate that validates."""
    transversal, cert = pair.transversal, pair.certificate
    if transversal == (cert is not None):
        return [{"index": index, "k1": k1.to_jsonable(),
                 "k2": k2.to_jsonable(), "transversal": transversal}]
    if transversal and not _positively_spans(k1, k2):
        return [{"index": index, "k1": k1.to_jsonable(),
                 "k2": k2.to_jsonable(), "span_oracle_disagrees": True}]
    if cert is not None and not cert.validate(k1, k2):
        return [{"index": index, "k1": k1.to_jsonable(),
                 "k2": k2.to_jsonable(), "invalid_certificate": True}]
    return []


def run_cone_duality(pairs: int = 1000, dims=(2, 3, 4, 5),
                     seed: int = 0) -> dict:
    """Random-cone corpus: duality (transversal XOR separable) and the
    trichotomy's internal consistency."""
    rng = np.random.default_rng(seed)

    def random_cone(n):
        k = int(rng.integers(1, n + 3))
        gens = rng.normal(size=(k, n))
        if rng.uniform() < 0.25:
            # force a subspace so the complementary branch is exercised
            r = int(rng.integers(1, n))
            basis = rng.normal(size=(r, n))
            gens = np.vstack([basis, -basis])
        if rng.uniform() < 0.15:
            gens = np.vstack([gens, -gens])  # positively spanning-ish
        return cone_mod.conic_hull(gens)

    # drawing never depends on a verdict, so all pairs are drawn first and
    # the RNG stream is the one a pair-by-pair loop would read
    drawn = [(random_cone(n), random_cone(n))
             for n in (int(dims[i % len(dims)]) for i in range(pairs))]

    xor_failures = []
    trichotomy_failures = []
    complementary_checked = 0
    counts = {}
    for i, ((k1, k2), pair) in enumerate(
            zip(drawn, cone_mod.analyze_pairs(drawn))):
        n = k1.dimension
        xor_failures += _xor_failures(i, k1, k2, pair)
        verdict = pair.verdict
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == cone_mod.COMPLEMENTARY_SUBSPACES:
            # two subspaces meet only at 0 and span the space iff their
            # dimensions add up to the joint rank, and that rank is n
            complementary_checked += 1
            ranks = [int(np.linalg.matrix_rank(g, tol=1e-8)) for g in
                     (k1.generators, k2.generators,
                      np.vstack([k1.generators, k2.generators]))]
            if ranks[2] != n or ranks[0] + ranks[1] != n:
                trichotomy_failures.append(
                    {"index": i, "verdict": verdict, "ranks": ranks})
    return {
        "pairs": pairs,
        "xor_holds": pairs - len(xor_failures),
        "xor_failures": xor_failures[:10],
        "trichotomy_failures": trichotomy_failures[:10],
        "trichotomy_consistent": len(trichotomy_failures) == 0,
        "complementary_checked": complementary_checked,
        "verdict_counts": counts,
    }


def _run_cone_duality_scenario(seed, *, pairs=1000, dims=(2, 3, 4, 5),
                               max_xor_failures=1) -> tuple:
    pairs = int(pairs)
    if pairs <= 0:
        raise ConfigError(f"pairs must be positive, got {pairs}")
    report = run_cone_duality(pairs, tuple(dims), seed)
    ok = (report["pairs"] - report["xor_holds"]) <= int(max_xor_failures) \
        and report["trichotomy_consistent"]
    return ok, "xor_holds_fraction", report["xor_holds"] / report["pairs"], report


def _run_certificate_verify(seed, *, certificate="absvalue",
                            lambda_generators=None,
                            delta_grid=cert_mod.DEFAULT_DELTA_GRID,
                            points_per_delta=200) -> tuple:
    if certificate != "absvalue":
        raise ConfigError(f"unknown certificate catalog key {certificate!r}")
    cert = cert_mod.absvalue_qdq()
    if lambda_generators is not None:
        cert = replace(cert, lam=OperatorSet.from_matrices(
            lambda_generators, convex_closure=True))
    report = cert_mod.verify_certificate(make_map("abs1d"), cert, delta_grid,
                                         int(points_per_delta), seed=seed)
    out = report.to_jsonable()
    out["lambda"] = cert.lam.to_jsonable()
    return report.accepted, "violations", float(len(report.violations)), out


def _run_clarke_estimate(seed, *, expected_generators, map="abs1d",
                         x_bar=(0.0,), radius=1e-3, samples=10000,
                         tol=1e-2) -> tuple:
    est = clarke_jacobian_estimate(make_map(map), x_bar, float(radius),
                                   int(samples), seed)
    expected = OperatorSet.from_matrices(expected_generators,
                                         convex_closure=True)
    dist = hausdorff_distance(est, expected)
    tol = float(tol)
    report = {"estimate": est.to_jsonable(), "expected": expected.to_jsonable(),
              "hausdorff": dist, "tol": tol}
    return dist <= tol, "hausdorff", dist, report


def _run_smooth_bracket(seed, *, A, B, q, t_values=(1e-1, 5e-2, 2.5e-2),
                        ratio_range=(1.6, 2.4)) -> tuple:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    q = np.asarray(q, dtype=float)
    f = make_field("linear", {"matrix": A})
    g = make_field("linear", {"matrix": B})
    target = (B @ A - A @ B) @ q
    directions = bracket_flow_direction(f, g, q, [t * t for t in t_values])
    errors = [float(np.linalg.norm(d - target)) for d in directions]
    ratios = [a / b for a, b in zip(errors, errors[1:]) if b > 0]
    lo, hi = ratio_range
    ok = bool(ratios) and all(lo <= r <= hi for r in ratios)
    report = {"errors": errors, "ratios": ratios, "target": target.tolist()}
    metric = min(ratios) if ratios else float("nan")
    return ok, "richardson_ratio", float(metric), report


def _run_nonsmooth_bracket(seed, *, f, g, f_params=None, g_params=None,
                           q=None, eps=1e-4, radius=1e-3, samples=2000,
                           tol=5e-2, expected_direction=None,
                           direction_tol=1e-3, expected_generators=None,
                           set_tol=1e-2) -> tuple:
    f, g = make_field(f, f_params), make_field(g, g_params)
    q = np.zeros(f.dimension) if q is None else np.asarray(q, dtype=float)
    est = set_lie_bracket_estimate(f, g, q, float(radius), int(samples), seed)
    direction = bracket_flow_direction(f, g, q, float(eps))
    dist = hull_membership_residual(direction, est.flat_generators())
    report = {"direction": direction.tolist(),
              "estimate": est.to_jsonable(), "dist_to_estimate": dist}
    ok = dist <= float(tol)
    if expected_direction is not None:
        exp = np.asarray(expected_direction, dtype=float)
        dir_err = float(np.linalg.norm(direction - exp))
        report["direction_error"] = dir_err
        ok = ok and dir_err <= float(direction_tol)
    if expected_generators is not None:
        expected = OperatorSet.from_vectors(expected_generators,
                                            convex_closure=True)
        hd = hausdorff_distance(est, expected)
        report["hausdorff_to_expected"] = hd
        ok = ok and hd <= float(set_tol)
    return ok, "dist_to_estimate", dist, report


def _run_open_mapping(seed, *, lambda_generators, a, beta, map="fold_sum",
                      map_params=None, x_bar=(0.0, 0.0), y_bar=(0.0,),
                      domain_dimension=2, target_grid=10,
                      domain_samples=20000, expect="pass") -> tuple:
    if expect not in ("pass", "precondition_error"):
        raise ConfigError(f"expect must be 'pass' or 'precondition_error', "
                          f"got {expect!r}")
    lam = OperatorSet.from_matrices(lambda_generators, convex_closure=True)
    gamma = GammaSet.full_space(int(domain_dimension))
    try:
        report = open_mapping_probe(
            make_map(map, map_params), x_bar, y_bar, gamma, lam, float(a),
            float(beta), int(target_grid), int(domain_samples), seed)
    except SurjectivityError as exc:
        return expect == "precondition_error", "covered_fraction", 0.0, {
            "precondition_error": str(exc)}
    ok = report.passed and expect == "pass"
    return ok, "covered_fraction", report.covered_fraction, \
        report.to_jsonable()


def _run_separation_fixture(seed, *, fixture, samples=2000) -> tuple:
    fixture = fixture_by_name(fixture)
    verdict = separation_verdict(fixture.k1, fixture.k2)
    probe = local_separation_probe(
        fixture.sampler1, fixture.sampler2, fixture.z, fixture.radius,
        int(samples), seed)
    corroborated = True
    if verdict == NOT_LOCALLY_SEPARATED:
        corroborated = probe["common_point"] is not None
    audit_ok = True
    if fixture.k1.z_ignoring and fixture.z_ignoring_family is not None:
        audit_ok = audit_z_ignoring(
            fixture.z_ignoring_family, GammaSet.full_space(1), fixture.z,
            seed=seed)
    report = {
        "fixture": fixture.name, "verdict": verdict,
        "separated_at_resolution": probe["separated_at_resolution"],
        "common_point": None if probe["common_point"] is None
        else probe["common_point"].tolist(),
        "z_ignoring_audit": audit_ok, "note": fixture.note,
    }
    ok = corroborated and audit_ok
    return ok, "verdict_fired", 1.0 if verdict == NOT_LOCALLY_SEPARATED else 0.0, \
        report


# a kind maps to its runner, or to its runners by the "mode" param
_RUNNERS = {
    "ConeDuality": _run_cone_duality_scenario,
    "CertificateVerify": _run_certificate_verify,
    "ClarkeEstimate": _run_clarke_estimate,
    "BracketConvergence": {"smooth": _run_smooth_bracket,
                           "nonsmooth": _run_nonsmooth_bracket},
    "OpenMappingProbe": _run_open_mapping,
    "SeparationFixture": _run_separation_fixture,
}


def _bind(sc: Scenario) -> tuple:
    """The scenario's runner and its arguments: the seed and the params,
    bound to the runner's signature, so that an unknown or missing key is a
    ``ConfigError`` naming the scenario and the key."""
    if sc.kind not in _RUNNERS:
        raise ConfigError(f"scenario {sc.name!r}: unknown scenario kind "
                          f"{sc.kind!r}")
    runner, params = _RUNNERS[sc.kind], dict(sc.params)
    if isinstance(runner, dict):
        mode = params.pop("mode", "smooth")
        if mode not in runner:
            raise ConfigError(f"scenario {sc.name!r}: unknown {sc.kind} mode "
                              f"{mode!r}")
        runner = runner[mode]
    try:
        return runner, inspect.signature(runner).bind(sc.seed, **params)
    except TypeError as exc:
        raise ConfigError(f"scenario {sc.name!r}: {exc}") from exc


def run_scenario(sc: Scenario) -> ScenarioResult:
    runner, args = _bind(sc)
    start = time.perf_counter()
    try:
        ok, metric_name, metric_value, report = runner(*args.args,
                                                       **args.kwargs)
        verdict = PASS if ok else FAIL
    except (ConfigError, KeyError) as exc:
        # a value a runner refuses as config, or a catalog miss in
        # make_map, make_field or fixture_by_name
        raise ConfigError(f"scenario {sc.name!r}: {exc}") from exc
    except Exception as exc:  # captured: the run continues
        verdict = FAILED
        metric_name, metric_value = "error", float("nan")
        report = {"error": str(exc), "traceback": traceback.format_exc()}
    runtime_ms = (time.perf_counter() - start) * 1e3
    return ScenarioResult(sc.name, sc.kind, verdict, metric_name,
                          metric_value, report, runtime_ms)


# ---------------------------------------------------------------------------
# orchestration

def load_config(config_path) -> list:
    try:
        obj = json.loads(Path(config_path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    scenarios = [Scenario.from_jsonable(s) for s in obj.get("scenarios", [])]
    names = [s.name for s in scenarios]
    if len(names) != len(set(names)):
        raise ConfigError("scenario names must be unique")
    for s in scenarios:
        _bind(s)
    return scenarios


def _fmt(x: float) -> str:
    return "%.12g" % x


def run_scenarios(config_path, out_dir, parallel: bool = False,
                  seed_override: int | None = None,
                  name_filter: str | None = None) -> int:
    scenarios = load_config(config_path)
    if name_filter is not None:
        scenarios = [s for s in scenarios if name_filter in s.name]
        if not scenarios:
            raise ConfigError(f"filter {name_filter!r} selects no scenario")
    if seed_override is not None:
        scenarios = [replace(s, seed=seed_override) for s in scenarios]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if parallel:
        with ThreadPoolExecutor() as pool:
            results = list(pool.map(run_scenario, scenarios))
    else:
        results = [run_scenario(s) for s in scenarios]
    results.sort(key=lambda r: r.name)

    for r in results:
        payload = {"name": r.name, "kind": r.kind, "verdict": r.verdict,
                   "metric_name": r.metric_name,
                   "metric_value": r.metric_value, "report": r.report}
        (out / f"{r.name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    with (out / "summary.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "kind", "verdict", "metric_name",
                    "metric_value"])
        for r in results:
            w.writerow([r.name, r.kind, r.verdict, r.metric_name,
                        _fmt(r.metric_value)])
    with (out / "meta.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "runtime_ms", "timestamp"])
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        for r in results:
            w.writerow([r.name, _fmt(r.runtime_ms), stamp])

    return 0 if all(r.passed for r in results) else 1
