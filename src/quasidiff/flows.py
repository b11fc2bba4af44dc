"""Fixed-step ODE flows of Lipschitz vector fields and the four-leg
commutator multi-flow, whose backward legs are flows over negative time."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import BlowUpError, DomainEscapeError, box_bounds


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = box_bounds(self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all())

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


def default_config(t: float, legs_per_unit: int = 200) -> FlowSolverConfig:
    """Step sized so one leg of horizon |t| takes ``legs_per_unit`` steps."""
    step = max(abs(t), 1e-12) / legs_per_unit
    return FlowSolverConfig(step=step)


def flow(f: VectorField, q, t: float, cfg: FlowSolverConfig) -> np.ndarray:
    """Approximate the flow of y' = f(y) from q over time t by RK4 steps."""
    y = np.asarray(q, dtype=float).copy()
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
    for i in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise BlowUpError(f"non-finite state at step {i + 1}")
        if not f.domain.contains(y, tol=1e-12):
            raise DomainEscapeError("trajectory left the domain",
                                    point=y, time=(i + 1) * h)
    return y


def multiflow_commutator(f: VectorField, g: VectorField, q, t: float,
                         cfg: FlowSolverConfig) -> np.ndarray:
    """Four-leg commutator flow: forward f, forward g, then f and g over -t."""
    y = flow(f, q, t, cfg)
    y = flow(g, y, t, cfg)
    y = flow(f, y, -t, cfg)
    return flow(g, y, -t, cfg)

