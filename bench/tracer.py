"""Spans and counters for the benchmark's traced run, recorded from outside
the program.

``Tracer.install()`` replaces functions of the ``quasidiff`` modules with
timing wrappers, in every module that holds a reference to them (so names
brought in with ``from ... import`` are traced too), and ``uninstall()``
puts the originals back.  Nothing under ``src/`` is edited: the wrappers
live only in this process.

Each call becomes a span ``[name, op, parent, start, end]`` kept in memory.
A layer's self time is its span's duration minus the time its child spans
cover.  Counters are recorded at the same boundaries.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("core", "cones", "flows", "fields", "nonsmooth", "certificates",
           "separation", "fixtures", "scenarios", "cli")

# Private functions traced besides the public ones: the LP witness, the
# simplex-projection NNLS, and the estimators' dedupe/hull reduction.
PRIVATE_HOT_SPOTS = {
    "core": ("_simplex_least_squares",),
    "cones": ("_nonzero_point_in_polyhedral_cone",),
    "nonsmooth": ("_vertex_reduce",),
}

# Foreign functions imported into a quasidiff module, traced under that
# module's name.
FOREIGN = {"cones": ("linprog", "nnls")}

# Aggregate layers: metric prefix -> span names whose self times add up.
LAYERS = {
    "cones.linprog": ("cones.linprog",),
    "cones.lp_witness": ("cones._nonzero_point_in_polyhedral_cone",),
    "cones.is_transversal": ("cones.is_transversal",),
    "cones.separating_functional": ("cones.separating_functional",),
    "cones.classify_pair": ("cones.classify_pair",),
    "cones.nnls": ("cones.nnls",),
    "core.simplex_nnls": ("core._simplex_least_squares",),
    "core.convex_hull_points": ("core.convex_hull_points",),
    "core.hausdorff_distance": ("core.hausdorff_distance",),
    "nonsmooth.vertex_reduce": ("nonsmooth._vertex_reduce",),
    "nonsmooth.fd_jacobian": ("nonsmooth.fd_jacobian",),
    "nonsmooth.differentiability_score": ("nonsmooth.differentiability_score",),
    "nonsmooth.mollified_eval": ("nonsmooth.mollified_eval",),
    "flows.flow": ("flows.flow",),
    "flows.multiflow_commutator": ("flows.multiflow_commutator",),
    "certificates.verify_certificate": ("certificates.verify_certificate",),
    "certificates.calculus": ("certificates.combine_certificates",
                              "certificates.compose_certificates",
                              "certificates.abundant_transfer",
                              "certificates.abundant_membership",
                              "certificates.gamma_intersection"),
    "separation.separation_verdict": ("separation.separation_verdict",),
    "separation.probes": ("separation.local_separation_probe",
                          "separation.open_mapping_probe"),
    "fixtures.build": ("fixtures.builtin_fixtures", "fixtures.fixture_by_name"),
    "scenarios.run_scenario": ("scenarios.run_scenario",),
    "scenarios.load_config": ("scenarios.load_config",),
    # run_scenarios' own time, once the scenarios and the config load are
    # taken out, is writing the reports, summary.csv and meta.csv
    "scenarios.write": ("scenarios.run_scenarios",),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """A wrapper recording one span per call.  ``after(args, kwargs,
        result)`` may record counters and returns the result to hand back."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            return result if after is None else after(args, kwargs, result)

        return traced

    def counting(self, key, fn):
        """A call counter, for the maps and fields passed to the program."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__bench_counted__ = True
        return counted

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.op = -1

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"quasidiff.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in PRIVATE_HOT_SPOTS.get(short, ()))):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj,
                                                  self._hooks(name, obj))
        # patch every module (the package namespace too) holding a reference
        for mod in (importlib.import_module("quasidiff"), *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        # foreign functions only where named: core's own nnls calls stay
        # inside the simplex-NNLS self time
        for short, attrs in FOREIGN.items():
            for attr in attrs:
                obj = getattr(mods[short], attr)
                name = f"{short}.{attr}"
                self._patch(mods[short], attr,
                            self.wrap(name, obj, self._hooks(name, obj)))

    def _patch(self, mod, attr, wrapper):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _hooks(self, name, fn):
        counts = self.counts
        sig = inspect.signature(fn)

        def arg(args, kwargs, key):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments[key]

        if name == "cones.linprog":
            def after(args, kwargs, res):
                counts["cones.linprog.nonoptimal"] += int(res.status != 0)
                return res
        elif name == "cones.separating_functional":
            def after(args, kwargs, cert):
                if cert is not None:
                    k1, k2 = arg(args, kwargs, "k1"), arg(args, kwargs, "k2")
                    counts["cones.witnesses"] += 1
                    counts["cones.witnesses_valid"] += cert.validate(k1, k2)
                return cert
        elif name == "scenarios.run_cone_duality":
            def after(args, kwargs, report):
                counts["cones.pairs"] += int(arg(args, kwargs, "pairs"))
                return report
        elif name == "core.convex_hull_points":
            def after(args, kwargs, verts):
                pts = np.atleast_2d(np.asarray(arg(args, kwargs, "points")))
                counts["core.convex_hull_points.points_in"] += pts.shape[0]
                counts["core.convex_hull_points.vertices_out"] += len(verts)
                return verts
        elif name in ("nonsmooth.clarke_jacobian_estimate",
                      "nonsmooth.set_lie_bracket_estimate"):
            def after(args, kwargs, est):
                counts["nonsmooth.scored"] += int(arg(args, kwargs, "samples"))
                return est
        elif name == "flows.flow":
            def after(args, kwargs, y):
                t = float(arg(args, kwargs, "t"))
                step = arg(args, kwargs, "cfg").step
                if t != 0.0:
                    counts["flows.steps"] += max(1, math.ceil(abs(t) / step))
                return y
        elif name == "certificates.verify_certificate":
            def after(args, kwargs, report):
                counts["certificates.checks"] += report.checks_run
                return report
        elif name == "nonsmooth.mollify":
            def after(args, kwargs, field):
                span = self.wrap("nonsmooth.mollified_eval", field.evaluator)
                return dataclasses.replace(field, evaluator=span)
        elif name.startswith("fields."):
            def after(args, kwargs, made):
                return self.count_evals(made)
        else:
            after = None
        return after

    def count_evals(self, made):
        """Count calls of a map or field built by the catalog."""
        evaluator = getattr(made, "evaluator", None)
        if evaluator is not None:
            if getattr(evaluator, "__bench_counted__", False):
                return made
            return dataclasses.replace(
                made, evaluator=self.counting("fields.evals", evaluator))
        if callable(made) and not getattr(made, "__bench_counted__", False):
            return self.counting("fields.evals", made)
        return made

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls and self time, plus the derived counters."""
        n = len(self.spans)
        child_time = [0.0] * n
        in_corpus = [False] * n
        calls = Counter()
        self_s = defaultdict(float)
        kept = corpus_lp = 0
        for i, (name, _, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                pname = self.spans[parent][0]
                in_corpus[i] = in_corpus[parent] or \
                    pname == "scenarios.run_cone_duality"
                if (name == "nonsmooth.fd_jacobian"
                        and pname == "nonsmooth.clarke_jacobian_estimate") or \
                        (name == "nonsmooth.lie_bracket_pointwise"
                         and pname == "nonsmooth.set_lie_bracket_estimate"):
                    kept += 1  # one per sample that passed the score
            corpus_lp += name == "cones.linprog" and in_corpus[i]
        for i, (name, _, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts), "kept": kept,
                "corpus_linprog": corpus_lp}


def layer_metrics(summary: dict, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a trace summary."""
    calls, self_s = summary["calls"], summary["self_s"]
    counts = summary["counts"]
    out = {}
    for layer, names in LAYERS.items():
        out[f"{layer}.calls"] = (sum(calls.get(n, 0) for n in names), "count")
        out[f"{layer}.self_s"] = (sum(self_s.get(n, 0.0) for n in names), "s")
    pairs = counts.get("cones.pairs", 0)
    witnesses = counts.get("cones.witnesses", 0)
    scored = counts.get("nonsmooth.scored", 0)
    out.update({
        "cones.linprog.nonoptimal": (counts.get("cones.linprog.nonoptimal", 0),
                                     "count"),
        "cones.lp_per_pair": (summary["corpus_linprog"] / pairs if pairs
                              else 0.0, "lp/pair"),
        # no witness produced means none was invalid
        "cones.witness_valid_ratio": (
            counts.get("cones.witnesses_valid", 0) / witnesses if witnesses
            else 1.0, "ratio"),
        "core.convex_hull_points.points_in": (
            counts.get("core.convex_hull_points.points_in", 0), "count"),
        "core.convex_hull_points.vertices_out": (
            counts.get("core.convex_hull_points.vertices_out", 0), "count"),
        "nonsmooth.score_pass_ratio": (summary["kept"] / scored if scored
                                       else 1.0, "ratio"),
        "fields.evals": (counts.get("fields.evals", 0), "count"),
        "flows.steps": (counts.get("flows.steps", 0), "count"),
        "certificates.checks": (counts.get("certificates.checks", 0), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out


def work_counts(metrics: dict) -> dict:
    """The deterministic subset of the layer metrics: every count."""
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}
