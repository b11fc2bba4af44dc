"""The names the benchmark reads from the program.

``bench/workloads.py`` builds its inputs from the program's public names,
and ``bench/tracer.py`` patches functions by name (``cones.nnls`` among
them) and rebuilds catalog fields through their ``evaluator`` field.  The
benchmark is not edited alongside the program, so a rename on this side
would only show in a traced bench run; here it fails Tier-1.  Both files
are loaded by path, and nothing is run beyond building each workload.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, monkeypatch):
    """``bench/<name>.py`` as a module, registered only for this test (its
    dataclasses look their module up in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["sampling", "certify",
                                      "reference-suite"])
def test_workload_builds_under_the_tracer(workload, tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    tracing = _load("tracer", monkeypatch)
    workloads.build(workload, 0, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # as the traced run does: rebuilt after install, and every callable
        # attribute wrapped to count evaluations
        again = workloads.build(workload, 0, tmp_path)
        for attr, value in list(vars(again).items()):
            if callable(value):
                setattr(again, attr, tracer.count_evals(value))
    finally:
        tracer.uninstall()
