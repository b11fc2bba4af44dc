"""Fixed-step ODE flows of Lipschitz vector fields and the four-leg
commutator multi-flow, whose backward legs are flows over negative time."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import BlowUpError, DimensionMismatchError, \
    DomainEscapeError, box_bounds


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = box_bounds(self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lo).all() and (x <= self.hi).all())

    def contains_rows(self, points) -> np.ndarray:
        """Row-wise ``contains`` of a (k, n) array, as a length-k mask."""
        pts = np.asarray(points, dtype=float)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)


@dataclass(frozen=True)
class VectorField:
    """A Lipschitz vector field: ``evaluator`` at one point of the box
    ``domain``, whose size is the field's dimension, and an optional row form.

    ``rows``, when given, maps a (k, n) array to the (k, n) array of the
    field's values at its rows, with the bits of ``self(x)`` row for row;
    the sampling layer then makes one call per sample instead of one per
    point.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: Box
    rows: Callable[[np.ndarray], np.ndarray] | None = field(default=None,
                                                            kw_only=True)

    @property
    def dimension(self) -> int:
        return self.domain.lo.size

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class FlowSolverConfig:
    step: float = 1e-3
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


def default_config(t: float, legs_per_unit: int = 200) -> FlowSolverConfig:
    """Step sized so one leg of horizon |t| takes ``legs_per_unit`` steps."""
    step = max(abs(t), 1e-12) / legs_per_unit
    return FlowSolverConfig(step=step)


def flow(f: VectorField, q, t: float, cfg: FlowSolverConfig) -> np.ndarray:
    """Approximate the flow of y' = f(y) from q over time t by RK4 steps.

    Once per flow: the step h, h/2 and h/6, the field's evaluator (called
    directly, not through ``VectorField.__call__``) and the step bounds,
    the domain widened by 1e-12 and clipped to the finite floats, as Python
    floats.  The state and the four stage values of a step are lists of
    Python floats, combined entry by entry with numpy's operations in
    numpy's order, so every state has numpy's bits without a ufunc call on
    a small array.  Each stage hands the evaluator a fresh array, so an
    evaluator that writes into its argument leaves the state alone, and
    reads the value as exactly n entries (a 0-d value for n = 1); a value
    of another size raises ``DimensionMismatchError``.  Per step, one pass
    over the new state's entries against the bounds, which a NaN or
    infinite entry also misses; only a miss decides between
    ``BlowUpError`` (a non-finite entry) and ``DomainEscapeError``.  A
    start point whose shape is not the domain's raises
    ``DimensionMismatchError``.
    """
    if not math.isfinite(t):
        raise ValueError(f"flow time t must be finite, got {t}")
    y = np.asarray(q, dtype=float).copy()
    if y.shape != f.domain.lo.shape:
        raise DimensionMismatchError(f"start point of shape {y.shape} for a "
                                     f"field of dimension {f.dimension}")
    if not f.domain.contains(y):
        raise DomainEscapeError("initial point outside domain", point=y, time=0.0)
    if t == 0.0:
        return y
    n_steps = max(1, int(math.ceil(abs(t) / cfg.step)))
    if n_steps > cfg.max_steps:
        raise ValueError(
            f"horizon {t} needs {n_steps} steps, above max_steps={cfg.max_steps}"
        )
    h = t / n_steps
    # 0.5 * h * k parses as (0.5 * h) * k, so a hoisted h/2 gives its bits
    half, sixth = 0.5 * h, h / 6.0
    ev, shape, n = f.evaluator, y.shape, y.size
    big = np.finfo(float).max
    lo = np.maximum(f.domain.lo - 1e-12, -big).tolist()
    hi = np.minimum(f.domain.hi + 1e-12, big).tolist()

    def stage(x: list) -> list:
        v = np.asarray(ev(np.array(x)), dtype=float)
        if v.shape != shape:
            if v.size != n:
                raise DimensionMismatchError(
                    f"field of dimension {n} returned a value of shape "
                    f"{v.shape}")
            v = v.reshape(n)
        return v.tolist()

    y = y.tolist()
    for i in range(n_steps):
        k1 = stage(y)
        k2 = stage([a + half * b for a, b in zip(y, k1)])
        k3 = stage([a + half * b for a, b in zip(y, k2)])
        k4 = stage([a + h * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        for v, a, b in zip(y, lo, hi):
            if not a <= v <= b:
                y = np.array(y)
                if not np.isfinite(y).all():
                    raise BlowUpError(f"non-finite state at step {i + 1}")
                raise DomainEscapeError("trajectory left the domain",
                                        point=y, time=(i + 1) * h)
    return np.array(y)


def multiflow_commutator(f: VectorField, g: VectorField, q, t: float,
                         cfg: FlowSolverConfig) -> np.ndarray:
    """Four-leg commutator flow: forward f, forward g, then f and g over -t."""
    y = flow(f, q, t, cfg)
    y = flow(g, y, t, cfg)
    y = flow(f, y, -t, cfg)
    return flow(g, y, -t, cfg)

