"""The stacked products against the per-row products they stand for, under
every OpenBLAS kernel this CPU runs.

The certificates, the estimators, the fields and the mollifier's
quadrature weights form every stacked matrix-vector product by
``core._apply_maps``, ``np.matmul`` over a
trailing unit axis: one gemv per row, which must give the bits of
``J @ v`` row for row.  That holds relative
to one BLAS kernel, whose summation order and FMA use may differ from
another's, so the checks below run in this process under the kernel
OpenBLAS picked, and ``test_every_kernel`` reruns them in a fresh
interpreter under each kernel that ``OPENBLAS_CORETYPE`` can select here
(Prescott, Sandybridge, Haswell and the CPU's own).  Running this file as a
script runs every check once and exits nonzero at the first mismatch.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasidiff
from quasidiff.cones import conic_hull
from quasidiff.core import _apply_maps, in_conic_hull, row_norms
from quasidiff.fields import abs_shear_field, linear_field, unit_x_field
from quasidiff.nonsmooth import _brackets, _quadrature_rule, \
    bracket_flow_direction, set_lie_bracket_estimate
from test_sampling import bracket_rows_loop

SHAPES = [(m, n) for m in range(1, 5) for n in range(1, 5)]


def scaled(rng, *shape):
    """Normal entries spread over sixteen decades, so that a changed
    summation order shows in the last bits."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def check_stacked_gemv():
    """``_apply_maps(J, V)`` is ``J[i] @ V[i]`` per row for a (k, m, n)
    stack J, and ``A @ V[i]`` for one (m, n) map A."""
    rng = np.random.default_rng(0)
    for m, n in SHAPES:
        for k in (1, 2, 7, 64):
            J, V = scaled(rng, k, m, n), scaled(rng, k, n)
            got = _apply_maps(J, V)
            want = np.array([a @ v for a, v in zip(J, V)])
            assert got.tobytes() == want.tobytes(), (m, n, k)
            got = _apply_maps(J[0], V)
            want = np.array([J[0] @ v for v in V])
            assert got.tobytes() == want.tobytes(), (m, n, k, "one map")


def check_bracket_product():
    """``_brackets`` is ``Dg f - Df g`` per row."""
    rng = np.random.default_rng(1)
    for n in range(1, 5):
        for k in (1, 3, 50):
            jf, jg = scaled(rng, k, n, n), scaled(rng, k, n, n)
            fx, gx = scaled(rng, k, n), scaled(rng, k, n)
            want = np.array([b @ u - a @ v
                             for a, b, u, v in zip(jf, jg, fx, gx)])
            assert _brackets(jf, jg, fx, gx).tobytes() == want.tobytes()


def check_bracket_estimates():
    """``set_lie_bracket_estimate`` is its per-sample loop, on a pair of
    linear fields and on the kinked pair."""
    pairs = [(linear_field([[0.3, -1.2], [0.7, 0.1]]),
              linear_field([[0.0, 0.0], [1.0, -0.5]]), [0.4, -0.2]),
             (unit_x_field(), abs_shear_field(), [0.0, 0.3])]
    for f, g, q in pairs:
        for seed in range(3):
            got = set_lie_bracket_estimate(f, g, q, 1e-3, 200, seed)
            want = bracket_rows_loop(f, g, q, 1e-3, 200, seed)
            assert got.flat_generators().tobytes() == \
                want.flat_generators().tobytes()


def check_linear_rows():
    """A linear field's rows are its evaluator's values, row for row."""
    rng = np.random.default_rng(2)
    for n in range(1, 6):
        f = linear_field(scaled(rng, n, n))
        X = scaled(rng, 40, n)
        want = np.array([f(x) for x in X])
        assert f.rows(X).tobytes() == want.tobytes(), n


def check_cone_residuals():
    """The membership residuals ``coeffs @ generators - x`` and their norms,
    stacked, are the per-row ones, and so is the mask."""
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        gens = scaled(rng, n + 2, n)
        coeffs, pts = np.abs(scaled(rng, 30, n + 2)), scaled(rng, 30, n)
        stacked = np.matmul(coeffs[:, None, :], gens)[:, 0, :] - pts
        rows = np.array([c @ gens - x for c, x in zip(coeffs, pts)])
        assert stacked.tobytes() == rows.tobytes(), n
        assert row_norms(stacked).tobytes() == \
            np.array([np.linalg.norm(r) for r in rows]).tobytes()
        cone = conic_hull(rng.normal(size=(n + 1, n)))
        probe = np.vstack([cone.generators, -cone.generators,
                           rng.normal(size=(20, n))])
        assert in_conic_hull(cone.generators, probe, 1e-9).tolist() == \
            [cone.contains(x) for x in probe]


def check_flow_ladder():
    """An eps-ladder of linear fields, flowed through their rows, is its
    one-eps flows."""
    f = linear_field([[0.0, 1.0], [0.0, 0.0]])
    g = linear_field([[0.0, 0.0], [1.0, -0.5]])
    q = np.array([1.0, 1.0])
    eps = [1e-2, 2.5e-3, 6.25e-4]
    got = bracket_flow_direction(f, g, q, eps)
    want = np.array([bracket_flow_direction(f, g, q, e) for e in eps])
    assert got.tobytes() == want.tobytes()


def check_quadrature_rule():
    """The quadrature weights, whose squared norms are stacked dots, are
    the bump at ``v @ v`` node by node, normalized.  The dot of a node with
    itself is the kernel's, so the weights' last bits are the kernel's
    too; the nodes are numpy's alone."""
    for n in range(1, 5):
        for count, seed in ((16, 0), (64, 3), (256, 1), (2048, 7)):
            pts, weights = _quadrature_rule(n, count, seed)
            bumps = np.array([np.exp(-1.0 / (1.0 - float(v @ v)))
                              for v in pts])
            assert weights.tobytes() == (bumps / bumps.sum()).tobytes(), \
                (n, count, seed)


CHECKS = [check_stacked_gemv, check_bracket_product, check_bracket_estimates,
          check_linear_rows, check_cone_residuals, check_flow_ladder,
          check_quadrature_rule]


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_stacked_matches_rows(check):
    check()


# the CPU flags (as /proc/cpuinfo names them) each kernel needs
KERNELS = {"Prescott": {"pni"}, "Sandybridge": {"avx"},
           "Haswell": {"avx2", "fma"}, "native": set()}


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernels named are x86-64 OpenBLAS kernels")
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_every_kernel(kernel):
    missing = KERNELS[kernel] - cpu_flags()
    if missing:
        pytest.skip(f"the CPU lacks {sorted(missing)} for {kernel}")
    src = Path(quasidiff.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    if kernel != "native":
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    for check in CHECKS:
        check()
