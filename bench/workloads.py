"""The benchmark's four workloads.

A workload is built from a seed (input generation, timed as set-up) and
then yields rounds of ops.  An op is one timed call into the program plus a
check of its output, which gives a correctness verdict and a fingerprint
of the output (compared between the untraced and the traced run).  The
program only ever receives the inputs generated here from the seed.

Functions are always looked up on their module at call time, so the traced
run's wrappers see every call.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from quasidiff import certificates as qcert
from quasidiff import cli as qcli
from quasidiff import core as qcore
from quasidiff import fields as qfields
from quasidiff import fixtures as qfix
from quasidiff import nonsmooth as qns
from quasidiff import scenarios as qscen
from quasidiff import separation as qsep

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())


@dataclass
class Call:
    """One op: a timed entry into the program.  ``check(output)`` returns
    an error message or None, and a fingerprint of the output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# cone-corpus

class ConeCorpus:
    """Random cone pairs, four to a ``run_cone_duality(pairs=4, dims=(2, 3,
    4, 5))`` call, which analyses one pair in each dimension; op = one call.

    One pair per op would put the median between the fast pairs (4-6 LPs)
    and the slow ones (13 LPs or more), about half of each, where a small
    change in their proportion moves it by half.  Four pairs to an op make
    the op times unimodal.
    """

    TRACE_ROUNDS = 25
    DIMS = (2, 3, 4, 5)

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self):
        qscen.run_cone_duality(pairs=len(self.DIMS), dims=self.DIMS, seed=0)

    def round(self, i: int) -> list:
        s = int(_rng(self.seed, 0, i).integers(2**63))
        return [Call("corpus", lambda: qscen.run_cone_duality(
            pairs=len(self.DIMS), dims=self.DIMS, seed=s), self._check)]

    @staticmethod
    def _check(report):
        fingerprint = json.dumps(report["verdict_counts"], sort_keys=True)
        if report["xor_holds"] != report["pairs"]:
            return "transversal XOR separable failed", fingerprint
        if not report["trichotomy_consistent"]:
            return "trichotomy inconsistent", fingerprint
        return None, fingerprint


# ---------------------------------------------------------------------------
# sampling

def smooth_2d_map(x):
    """F(x1, x2) = (x1^2 - x2^2, x1 x2): smooth, with a Jacobian that varies
    in two directions, so every sampled Jacobian is distinct."""
    return np.array([x[0] * x[0] - x[1] * x[1], x[0] * x[1]])


def _hull(gens, vectors=False) -> qcore.OperatorSet:
    make = qcore.OperatorSet.from_vectors if vectors \
        else qcore.OperatorSet.from_matrices
    return make(gens, convex_closure=True)


class Sampling:
    """Estimators and flows; no cone LP runs.

    A round is a fixed mix of 13 ops in a seeded order.  Nine are kink ops
    (two distinct Jacobians, so the per-sample finite-difference loop does
    the work) and set the median; four are smooth estimates (every kept
    Jacobian distinct, so dedupe and the hull do the work) and take most
    of the time.
    """

    TRACE_ROUNDS = 1
    RADIUS = 1e-3
    HAUSDORFF_TOL = 1e-2
    DIRECTION_TOL = 1e-3
    KINK_SAMPLES = 2000
    BRACKET_SAMPLES = 500
    SMOOTH_SAMPLES = 600
    MOLLIFIER_POINTS = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.abs1d = qfields.make_map("abs1d")
        self.fold_sum = qfields.make_map("fold_sum")
        self.square1d = qfields.make_map("square1d")
        self.smooth2d = smooth_2d_map
        self.unit_x = qfields.unit_x_field()
        self.abs_shear = qfields.abs_shear_field()
        self.a = np.array([[0.0, 1.0], [0.0, 0.0]])
        self.b = np.array([[0.0, 0.0], [1.0, 0.0]])
        self.lin_a = qfields.linear_field(self.a)
        self.lin_b = qfields.linear_field(self.b)

    def warm_up(self):
        qns.clarke_jacobian_estimate(self.abs1d, [0.0], self.RADIUS, 50, 0)
        qns.clarke_jacobian_estimate(self.smooth2d, [0.5, 0.5], self.RADIUS,
                                     50, 0)
        qns.set_lie_bracket_estimate(self.unit_x, self.abs_shear, [0.0, 0.0],
                                     self.RADIUS, 50, 0)
        qns.bracket_flow_direction(self.unit_x, self.abs_shear, [0.0, 0.0],
                                   1e-4)

    def round(self, i: int) -> list:
        rng = _rng(self.seed, 1, i)
        kinds = ["clarke-abs1d", "clarke-abs1d", "clarke-fold", "clarke-fold",
                 "bracket-set", "bracket-dir", "bracket-dir", "richardson",
                 "mollified-flow", "clarke-square1d", "clarke-square1d",
                 "clarke-smooth2d", "clarke-smooth2d"]
        order = rng.permutation(len(kinds))
        return [getattr(self, "_" + kinds[k].replace("-", "_"))(rng)
                for k in order]

    # kink ops ---------------------------------------------------------------

    def _estimate(self, kind, f, x_bar, samples, rng, expected):
        s = int(rng.integers(2**31))
        return Call(kind, lambda: qns.clarke_jacobian_estimate(
            f, x_bar, self.RADIUS, samples, s),
            lambda est: self._near(est, expected))

    def _near(self, est, expected):
        d = qcore.hausdorff_distance(est, expected)
        fingerprint = _digest(est.flat_generators())
        if not d <= self.HAUSDORFF_TOL:
            return f"hausdorff {d:.3e} above {self.HAUSDORFF_TOL}", fingerprint
        return None, fingerprint

    def _clarke_abs1d(self, rng):
        return self._estimate("clarke-abs1d", self.abs1d, [0.0],
                              self.KINK_SAMPLES, rng,
                              _hull([[[-1.0]], [[1.0]]]))

    def _clarke_fold(self, rng):
        # the kink of x1 + |x2| is the line x2 = 0
        x_bar = [float(rng.uniform(-1.0, 1.0)), 0.0]
        return self._estimate("clarke-fold", self.fold_sum, x_bar,
                              self.KINK_SAMPLES, rng,
                              _hull([[[1.0, -1.0]], [[1.0, 1.0]]]))

    def _kink_point(self, rng):
        # the bracket of (1, 0) and (0, |x1|) is (0, sgn x1): kink on x1 = 0
        return np.array([0.0, float(rng.uniform(-1.0, 1.0))])

    def _bracket_set(self, rng):
        q = self._kink_point(rng)
        s = int(rng.integers(2**31))
        expected = _hull([[0.0, -1.0], [0.0, 1.0]], vectors=True)
        return Call("bracket-set", lambda: qns.set_lie_bracket_estimate(
            self.unit_x, self.abs_shear, q, self.RADIUS,
            self.BRACKET_SAMPLES, s), lambda est: self._near(est, expected))

    def _direction(self, direction):
        err = float(np.linalg.norm(direction - np.array([0.0, 1.0])))
        error = None if err <= self.DIRECTION_TOL else \
            f"direction off (0, 1) by {err:.3e}"
        return error, _digest(direction)

    def _bracket_dir(self, rng):
        q = self._kink_point(rng)
        return Call("bracket-dir", lambda: qns.bracket_flow_direction(
            self.unit_x, self.abs_shear, q, 1e-4), self._direction)

    def _mollified_flow(self, rng):
        q = self._kink_point(rng)
        eps = 1e-2
        s = int(rng.integers(2**31))
        return Call("mollified-flow", lambda: qns.mollified_commutator_flow(
            self.unit_x, self.abs_shear, q, eps,
            quadrature_points=self.MOLLIFIER_POINTS, seed=s),
            lambda y: self._direction((y - q) / eps))

    def _richardson(self, rng):
        q = np.array([1.0, 1.0])
        target = (self.b @ self.a - self.a @ self.b) @ q

        def run():
            return [qns.bracket_flow_direction(self.lin_a, self.lin_b, q, t * t)
                    for t in (1e-1, 5e-2, 2.5e-2)]

        def check(directions):
            errs = [float(np.linalg.norm(d - target)) for d in directions]
            ratios = [a / b for a, b in zip(errs, errs[1:])]
            error = None if all(1.6 <= r <= 2.4 for r in ratios) else \
                f"Richardson ratios {ratios} outside [1.6, 2.4]"
            return error, _digest(*directions)

        return Call("richardson", run, check)

    # smooth ops -------------------------------------------------------------

    def _clarke_square1d(self, rng):
        x = float(rng.uniform(-1.0, 1.0))
        return self._estimate("clarke-square1d", self.square1d, [x],
                              self.SMOOTH_SAMPLES, rng, _hull([[[2.0 * x]]]))

    def _clarke_smooth2d(self, rng):
        x1, x2 = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        jac = [[2.0 * x1, -2.0 * x2], [x2, x1]]
        return self._estimate("clarke-smooth2d", self.smooth2d, [x1, x2],
                              self.SMOOTH_SAMPLES, rng, _hull([jac]))


# ---------------------------------------------------------------------------
# certify

def _abs(x):
    return np.array([abs(x[0])])


class Certify:
    """Verifier, calculus and probe calls with known answers.

    A verifier op fails unless it gives the expected accept or reject and
    ran at least the requested number of checks, so a vacuous acceptance
    (no sampled point) is a failure.
    """

    TRACE_ROUNDS = 4
    DELTAS = (1e-1, 1e-2, 1e-3)

    def __init__(self, seed: int):
        self.seed = seed
        self.absvalue = qcert.absvalue_qdq()
        self.shrunk = qcert.absvalue_qdq(
            lam=qcore.OperatorSet.from_matrices([[[-0.5]], [[1.0]]],
                                                convex_closure=True))
        self.doubler = qcert.QdqCertificate(
            x_bar=[0.0], y_bar=[0.0], gamma=qcore.GammaSet.full_space(1),
            lam=qcore.OperatorSet.from_matrices([[[2.0]]]), delta_star=1.0,
            rho=lambda d: 0.0,
            family=lambda d: (lambda x: qcore.LinearMap([[2.0]]),
                              lambda x: np.array([0.0])))
        self.curve = qcert.CurveData.from_function(abs, 0.0)
        self.disconnected = qcore.OperatorSet.from_matrices([[[-1.0]], [[1.0]]])
        self.interval = qcore.OperatorSet.from_matrices([[[-1.0]], [[1.0]]],
                                                        convex_closure=True)
        self.fixture_names = list(EXPECTED["fixture_verdicts"])

    @staticmethod
    def theta(eta):
        return lambda y: y + 0.5 * eta * np.cos(y)

    def warm_up(self):
        qcert.verify_certificate(_abs, self.absvalue, [1e-1], 10, seed=0)
        f = qfix.fixture_by_name(self.fixture_names[1])
        qsep.separation_verdict(f.k1, f.k2)
        qsep.local_separation_probe(f.sampler1, f.sampler2, f.z, f.radius,
                                    50, 0)

    def _verify(self, kind, F, make_cert, deltas, points, seed, accept,
                membership=None):
        requested = points * len(deltas)

        def run():
            cert = make_cert()
            member = membership(cert) if membership else None
            return qcert.verify_certificate(F, cert, list(deltas), points,
                                            seed=seed, membership=member)

        def check(report):
            fingerprint = f"{report.accepted}:{report.checks_run}:" \
                f"{len(report.violations)}"
            if report.checks_run < requested:
                return (f"{report.checks_run} checks, below the requested "
                        f"{requested}"), fingerprint
            if report.accepted != accept:
                return f"accepted={report.accepted}, expected {accept}", \
                    fingerprint
            return None, fingerprint

        return Call(kind, run, check)

    def round(self, i: int) -> list:
        rng = _rng(self.seed, 2, i)
        seeds = [int(s) for s in rng.integers(2**31, size=10)]
        a = self.absvalue
        combine = qcert.combine_certificates
        calls = [
            self._verify("verify-absvalue", _abs, lambda: a, self.DELTAS,
                         200, seeds[0], True),
            self._verify("verify-shrunk", _abs, lambda: self.shrunk,
                         self.DELTAS, 200, seeds[1], False),
            self._verify("verify-set-product",
                         lambda x: np.array([abs(x[0]), abs(x[0])]),
                         lambda: combine("set_product", a, a),
                         (1e-1, 1e-2), 100, seeds[2], True),
            self._verify("verify-linear", _abs,
                         lambda: combine("linear", a, a, alpha=2.0, beta=-1.0),
                         (1e-1, 1e-2), 100, seeds[3], True),
            self._verify("verify-scalar-product",
                         lambda x: np.array([x[0] * x[0]]),
                         lambda: combine("scalar_product", a, a),
                         (1e-1, 1e-2), 100, seeds[4], True),
            Call("compose", lambda: qcert.compose_certificates(a, self.doubler),
                 self._check_compose),
            self._verify("verify-compose",
                         lambda x: np.array([2.0 * abs(x[0])]),
                         lambda: qcert.compose_certificates(a, self.doubler),
                         (1e-2, 1e-3), 100, seeds[5], True),
            Call("abundant-transfer",
                 lambda: qcert.abundant_transfer(_abs, a, self.theta,
                                                 seed=seeds[6]),
                 lambda cert: (None, repr(cert.delta_star))),
            self._verify(
                "verify-abundant", _abs,
                lambda: qcert.abundant_transfer(_abs, a, self.theta,
                                                seed=seeds[7]),
                self.DELTAS, 100, seeds[8], True,
                membership=lambda cert: qcert.abundant_membership(
                    _abs, cert, self.theta, delta_grid=list(self.DELTAS))),
            Call("falsify-disconnected",
                 lambda: qcert.falsify_curve_qdq(self.curve, self.disconnected),
                 self._check_disconnected),
            Call("falsify-interval",
                 lambda: qcert.falsify_curve_qdq(self.curve, self.interval),
                 lambda w: (None if w is None else f"witness {w}", repr(w))),
            Call("minimal-curve-set",
                 lambda: qcert.minimal_curve_qdq(abs, 0.0),
                 self._check_minimal),
            Call("open-mapping", lambda: self._open_mapping(seeds[9]),
                 self._check_coverage),
        ]
        # each fixture op builds its fixture, as the SeparationFixture
        # runner does
        probe_seeds = rng.integers(2**31, size=len(self.fixture_names))
        for name, s in zip(self.fixture_names, probe_seeds):
            calls.append(Call(
                f"verdict-{name}", lambda name=name: self._verdict(name),
                lambda v, name=name: self._check_verdict(name, v)))
            calls.append(Call(f"probe-{name}",
                              lambda name=name, s=int(s): self._probe(name, s),
                              lambda p, name=name: self._check_probe(name, p)))
        order = rng.permutation(len(calls))
        return [calls[k] for k in order]

    @staticmethod
    def _endpoints(lam):
        return np.sort(lam.flat_generators().ravel())

    def _check_compose(self, cert):
        ends = self._endpoints(cert.lam)
        ok = np.allclose(ends, [-2.0, 2.0], atol=1e-10)
        return (None if ok else f"composed set {ends.tolist()}"), _digest(ends)

    def _check_minimal(self, lam):
        ends = self._endpoints(lam)
        ok = np.allclose(ends, [-1.0, 1.0], atol=1e-10) and lam.convex_closure
        return (None if ok else f"minimal set {ends.tolist()}"), _digest(ends)

    @staticmethod
    def _check_disconnected(witness):
        ok = witness is not None and witness["kind"] == "disconnected"
        return (None if ok else f"not rejected: {witness}"), repr(witness)

    def _open_mapping(self, seed):
        return qsep.open_mapping_probe(
            qfields.make_map("fold_sum"), [0.0, 0.0], [0.0],
            qcore.GammaSet.full_space(2),
            qcore.OperatorSet.from_matrices([[[1.0, -1.0]], [[1.0, 1.0]]],
                                            convex_closure=True),
            0.1, 2.0, 10, 20000, seed)

    @staticmethod
    def _check_coverage(report):
        ok = report.covered_fraction == 1.0
        return (None if ok else f"coverage {report.covered_fraction}"), \
            repr(report.covered_fraction)

    @staticmethod
    def _verdict(name):
        f = qfix.fixture_by_name(name)
        return qsep.separation_verdict(f.k1, f.k2)

    @staticmethod
    def _probe(name, seed):
        f = qfix.fixture_by_name(name)
        return qsep.local_separation_probe(f.sampler1, f.sampler2, f.z,
                                           f.radius, 2000, seed)

    @staticmethod
    def _check_verdict(name, verdict):
        want = EXPECTED["fixture_verdicts"][name]
        return (None if verdict == want else f"verdict {verdict}, recorded "
                f"{want}"), verdict

    @staticmethod
    def _check_probe(name, probe):
        point = probe["common_point"]
        fired = EXPECTED["fixture_verdicts"][name] == \
            qsep.NOT_LOCALLY_SEPARATED
        fingerprint = "none" if point is None else _digest(point)
        if fired and point is None:
            return "fired verdict not corroborated by a common point", \
                fingerprint
        return None, fingerprint


# ---------------------------------------------------------------------------
# reference-suite

class ReferenceSuite:
    """``quasidiff run reference`` in-process, serial; op = one run of the
    suite, the command a user waits for.

    Seed 0 runs the suite as shipped, whose summary.csv must match the one
    recorded in expected.json byte for byte; any other seed is passed as
    ``--seed-override``, and its summary.csv must repeat exactly on every
    pass.  Every scenario must pass.  Per-scenario times (the ``runtime_ms``
    column of meta.csv) go to the details.
    """

    TRACE_ROUNDS = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir / f"reference-{seed}"
        self.argv = ["run", "reference", "--out", str(self.out)]
        if seed != 0:
            self.argv += ["--seed-override", str(seed)]
        self.scenarios = qscen.load_config(qcli.reference_config_path())
        self.summary_sha = EXPECTED["reference_summary_sha256"] if seed == 0 \
            else None
        self.scenario_ms = {}

    def warm_up(self):
        pass

    def round(self, i: int) -> list:
        for stale in ("summary.csv", "meta.csv"):
            (self.out / stale).unlink(missing_ok=True)
        return [Call("suite", lambda: qcli.main(self.argv), self._check)]

    def _check(self, status):
        summary = (self.out / "summary.csv").read_bytes()
        sha = hashlib.sha256(summary).hexdigest()
        if self.summary_sha is None:
            self.summary_sha = sha  # the first pass fixes it for the run
        with (self.out / "meta.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                self.scenario_ms.setdefault(row["scenario"], []).append(
                    float(row["runtime_ms"]))
        with (self.out / "summary.csv").open(newline="") as fh:
            verdicts = {r["scenario"]: r["verdict"] for r in csv.DictReader(fh)}
        if status != 0:
            return f"exit status {status}", sha
        if sha != self.summary_sha:
            return "summary.csv differs from the recorded one", sha
        if sorted(verdicts) != sorted(s.name for s in self.scenarios):
            return "scenarios missing from summary.csv", sha
        failing = sorted(n for n, v in verdicts.items() if v != qscen.PASS)
        if failing:
            return f"scenarios not passing: {failing}", sha
        return None, sha

    def details(self) -> dict:
        return {"scenario_ms": self.scenario_ms}


WORKLOADS = {
    "cone-corpus": ConeCorpus,
    "sampling": Sampling,
    "certify": Certify,
    "reference-suite": ReferenceSuite,
}


def build(name: str, seed: int, out_dir: Path):
    cls = WORKLOADS[name]
    return cls(seed, out_dir) if cls is ReferenceSuite else cls(seed)
