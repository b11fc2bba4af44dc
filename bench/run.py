"""Benchmark for quasidiff: four workloads, end-to-end metrics untraced, and
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload sampling --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``
there and nowhere else.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the environment and the details behind the
metrics.  The full result also goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10  # ops beyond the tail percentile


def import_program():
    """Import quasidiff from this checkout's ``src/``, or exit with an error."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import quasidiff
    except ImportError as exc:
        sys.exit(f"bench: cannot import quasidiff from {ROOT / 'src'}: {exc}")
    if Path(quasidiff.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"bench: quasidiff came from {quasidiff.__file__}, "
                 f"not from {ROOT / 'src'}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be nonnegative")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cone-corpus", "sampling", "certify",
                            "reference-suite"))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, when the checkout itself is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running calls

@dataclass
class OpResult:
    kind: str
    seconds: float
    error: str | None
    fingerprint: str


def execute(call, tracer=None, op=0) -> OpResult:
    """Time one call into the program and check its output."""
    if tracer is not None:
        tracer.op = op
    start = time.perf_counter()
    try:
        output = call.run()
    except Exception as exc:  # a failed op is counted, the run goes on
        return OpResult(call.kind, time.perf_counter() - start,
                        f"{type(exc).__name__}: {exc}", "")
    seconds = time.perf_counter() - start
    try:
        error, fingerprint = call.check(output)
    except Exception as exc:
        error, fingerprint = f"check raised {type(exc).__name__}: {exc}", ""
    return OpResult(call.kind, seconds, error, fingerprint)


def setup_probe_times(args) -> list:
    """Wall time of fresh interpreters from start through imports and input
    generation; each child reports once it is ready and then exits."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            try:
                child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
            status = child.returncode
        if line.strip() != "ready" or status != 0:
            sys.exit(f"bench: set-up probe failed with status {status}")
        times.append(ready - start)
    return times


def tail(seconds: list):
    """Time at the highest percentile with at least TAIL_BEYOND ops beyond
    it, that percentile, and the ops beyond it; with too few ops, the
    maximum."""
    ordered = sorted(seconds)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def timed_run(workload, seconds: float):
    """Whole rounds of calls until ``seconds`` have passed."""
    results = []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        results += [execute(call) for call in workload.round(rounds)]
        rounds += 1
    return results, rounds


def fixed_run(workload, rounds: int, tracer=None):
    results = []
    for i in range(rounds):
        results += [execute(call, tracer, len(results) + k)
                    for k, call in enumerate(workload.round(i))]
    return results, sum(r.seconds for r in results)


def failures(results) -> list:
    return [{"kind": r.kind, "error": r.error} for r in results if r.error]


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(args, workload, setup_times):
    results, rounds = timed_run(workload, args.seconds)
    times = [r.seconds for r in results]
    busy = sum(times)
    failed = sum(1 for r in results if r.error)
    tail_s, tail_level, tail_beyond = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (len(results) / busy, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": ((len(results) - failed) / len(results), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {
        "rounds": rounds, "ops": len(results), "busy_s": busy,
        "failed_frac": failed / len(results),
        "op_tail_percentile": tail_level,
        "op_tail_ops_beyond": tail_beyond,
        "setup_s_samples": setup_times,
        "ops_by_kind": _by_kind(results),
        "failures": failures(results)[:20],
    }
    if hasattr(workload, "details"):
        details.update(workload.details())
    return len(results), failed, metrics, details


def _by_kind(results) -> dict:
    kinds = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r.seconds)
    return {k: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3}
            for k, v in sorted(kinds.items())}


def traced(args, workload):
    """The fixed trace rounds once untraced and twice traced.  Outputs must
    match across the three passes, and work counts across the two traced
    ones."""
    import tracer as tracing
    import workloads
    rounds = workload.TRACE_ROUNDS
    plain, plain_busy = fixed_run(workload, rounds)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # built after install, so the catalog's maps and fields count evals
        again = workloads.build(args.workload, args.seed, OUT_DIR)
        for attr, value in list(vars(again).items()):
            if callable(value):
                setattr(again, attr, tracer.count_evals(value))
        passes = []
        for _ in range(2):
            tracer.reset()
            results, busy = fixed_run(again, rounds, tracer)
            passes.append((results, busy, tracer.summary()))
        write_spans(tracer, args)
    finally:
        tracer.uninstall()

    all_results = plain + [r for p in passes for r in p[0]]
    reference = [r.fingerprint for r in plain]
    mismatched = sum(1 for results, _, _ in passes
                     for r, want in zip(results, reference)
                     if r.fingerprint != want)
    # an op fails when it fails its check or its output differs untraced
    failed = sum(1 for r in plain if r.error) + sum(
        1 for results, _, _ in passes for r, want in zip(results, reference)
        if r.error or r.fingerprint != want)
    overhead = statistics.mean(p[1] for p in passes) - plain_busy
    metrics = tracing.layer_metrics(passes[1][2], overhead)
    first_counts = tracing.work_counts(tracing.layer_metrics(passes[0][2], 0.0))
    counts = tracing.work_counts(metrics)
    counts_repeat = first_counts == counts
    details = {
        "rounds": rounds, "ops_per_pass": len(plain),
        "untraced_busy_s": plain_busy,
        "traced_busy_s": [p[1] for p in passes],
        "outputs_match": mismatched == 0,
        "work_counts_repeat": counts_repeat,
        "work_counts": counts,
        "failures": failures(all_results)[:20],
    }
    return len(all_results), failed, metrics, details, counts_repeat


def write_spans(tracer, args):
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
    with path.open("w") as fh:
        fh.write("name,op,parent,start,end\n")
        for name, op, parent, start, end in tracer.spans:
            fh.write(f"{name},{op},{parent},{start!r},{end!r}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, OUT_DIR)
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else setup_probe_times(args)
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    workload.warm_up()
    env = environment(args.seed)
    if args.trace:
        attempted, failed, metrics, details, counts_ok = traced(args, workload)
    else:
        attempted, failed, metrics, details = end_to_end(args, workload,
                                                         setup_times)
        counts_ok = True
    result = {
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "details": details, "result": result}
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
