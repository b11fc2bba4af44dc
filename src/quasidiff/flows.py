"""Fixed-step ODE flows of Lipschitz vector fields and the four-leg
commutator multi-flow, whose backward legs are flows over negative time."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import add, mul
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
    """Step sized so one leg of horizon |t| (at least 1e-12) takes exactly
    ``legs_per_unit`` steps, so that its RK4 step is t / legs_per_unit.

    The quotient |t| / legs_per_unit can round down far enough that
    ``flow``'s count ceil(|t| / step) reads one more (for about one t in
    sixteen), so the step is raised by ulps until the count is exact.
    """
    span = max(abs(t), 1e-12)
    step = span / legs_per_unit
    while 0.0 < step < math.inf and math.ceil(span / step) > legs_per_unit:
        step = math.nextafter(step, math.inf)
    return FlowSolverConfig(step=step)


def _ladder(t, cfg) -> tuple:
    """``(ts, cfgs, stacked)``: the times of a call as Python floats, one
    per row, one config per row, and whether t was a sequence.  A single t
    is one row, a 1-D sequence one row per entry, and a single config
    serves every row.  A NaN or infinite t raises ``ValueError``."""
    shape = () if isinstance(t, (int, float)) else np.shape(t)
    if len(shape) > 1:
        raise ValueError(f"flow times must be a number or a 1-D sequence, "
                         f"got shape {shape}")
    ts = [float(v) for v in t] if shape else [float(t)]
    for v in ts:
        if not math.isfinite(v):
            raise ValueError(f"flow time t must be finite, got {v}")
    cfgs = [cfg] * len(ts) if isinstance(cfg, FlowSolverConfig) else list(cfg)
    if len(cfgs) != len(ts):
        raise ValueError(f"{len(cfgs)} solver configs for {len(ts)} times")
    return ts, cfgs, bool(shape)


def _starts(f: VectorField, q, k: int) -> np.ndarray:
    """k fresh copies of the start point q as a (k, n) array; a point whose
    shape is not the domain's raises ``DimensionMismatchError``."""
    y = np.asarray(q, dtype=float)
    if y.shape != f.domain.lo.shape:
        raise DimensionMismatchError(f"start point of shape {y.shape} for a "
                                     f"field of dimension {f.dimension}")
    return np.repeat(y[None], k, axis=0)


def _rk4(f: VectorField, starts: np.ndarray, ts: list, cfgs: list
         ) -> np.ndarray:
    """The RK4 loop: row r of the (k, n) array ``starts`` flowed over the
    time ts[r] in the steps of cfgs[r], as a new (k, n) array.

    Once per call: each row's step count ceil(|t| / step) (none for t = 0)
    and step h = t / count, with h/2 and h/6, as one Python float per state
    entry; the step bounds, the domain widened by 1e-12 and clipped to the
    finite floats; and the evaluator.  For k = 1 that is the field's
    pointwise evaluator, whose value must have exactly n entries (a 0-d
    value for n = 1); for k > 1 it is the field's ``rows`` once per stage,
    whose value must be (k, n), or else the pointwise evaluator row by row.
    A value of another size raises ``DimensionMismatchError``.  The stage
    does not read the field by ``core._read_rows``: through that reader a
    3-row stage measured 2.9-3.2 us, not 2.2-2.5 us (2-core Xeon), 2.2 ms
    more per 3-row eps-ladder.  The state and the stage values are flat
    lists of Python floats, combined entry by entry with numpy's operations
    in numpy's order, so every row has the bits of a one-row flow without a
    ufunc call on a small array.  Each stage hands the evaluator a fresh
    array, so an evaluator that writes into its argument leaves the state
    alone.  A row leaves the loop after its own count of steps.  Per step,
    one pass over the state's entries against the bounds, which a NaN or
    infinite entry also misses; at the first step with a miss, the
    lowest-index row that misses decides between ``BlowUpError`` (a
    non-finite entry) and ``DomainEscapeError`` with its state and time, and
    for k > 1 the message names that row.
    """
    k, n = starts.shape
    if n != f.dimension:
        raise DimensionMismatchError(f"start point of shape {(n,)} for a "
                                     f"field of dimension {f.dimension}")

    def named(message: str, r: int) -> str:
        return f"{message} in row {r}" if k > 1 else message

    entries = starts.ravel().tolist()
    lo, hi = f.domain.lo.tolist(), f.domain.hi.tolist()
    for e, (v, a, b) in enumerate(zip(entries, lo * k, hi * k)):
        if not a <= v <= b:
            r = e // n
            raise DomainEscapeError(named("initial point outside domain", r),
                                    point=starts[r], time=0.0)
    counts = []
    for t, cfg in zip(ts, cfgs):
        n_steps = max(1, int(math.ceil(abs(t) / cfg.step))) if t else 0
        if n_steps > cfg.max_steps:
            raise ValueError(f"horizon {t} needs {n_steps} steps, above "
                             f"max_steps={cfg.max_steps}")
        counts.append(n_steps)
    ends = starts.copy()
    live = [r for r in range(k) if counts[r]]
    if not live:
        return ends
    ev, shape = f.evaluator, (n,)

    def point(x: list) -> list:
        v = np.asarray(ev(np.array(x)), dtype=float)
        if v.shape != shape:
            if v.size != n:
                raise DimensionMismatchError(
                    f"field of dimension {n} returned a value of shape "
                    f"{v.shape}")
            v = v.reshape(n)
        return v.tolist()

    if k == 1:
        stage = point
    elif f.rows is not None:
        rows = f.rows

        def stage(x: list) -> list:
            v = np.asarray(rows(np.array(x).reshape(-1, n)), dtype=float)
            if v.shape != (len(x) // n, n):
                raise DimensionMismatchError(
                    f"field of dimension {n} returned rows of shape "
                    f"{v.shape} for {len(x) // n} points")
            return v.ravel().tolist()
    else:
        def stage(x: list) -> list:
            return [v for j in range(0, len(x), n) for v in point(x[j:j + n])]

    hs = [t / c if c else 0.0 for t, c in zip(ts, counts)]
    big = sys.float_info.max
    lo = [max(v - 1e-12, -big) for v in lo]
    hi = [min(v + 1e-12, big) for v in hi]
    y = entries if len(live) == k else \
        [v for r in live for v in entries[r * n:(r + 1) * n]]
    i = 0
    while live:
        stop = min(counts[r] for r in live)
        # 0.5 * h * k parses as (0.5 * h) * k, so a hoisted h/2 gives its bits
        full = [hs[r] for r in live for _ in range(n)]
        half = [0.5 * h for h in full]
        sixth = [h / 6.0 for h in full]
        low, high = lo * len(live), hi * len(live)
        for i in range(i, stop):
            # y + c * k entry by entry; two maps of the operators are
            # cheaper than a comprehension over three lists
            k1 = stage(y)
            k2 = stage(list(map(add, y, map(mul, half, k1))))
            k3 = stage(list(map(add, y, map(mul, half, k2))))
            k4 = stage(list(map(add, y, map(mul, full, k3))))
            y = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, c, b1, b2, b3, b4 in zip(y, sixth, k1, k2, k3, k4)]
            for v, a, b in zip(y, low, high):
                if not a <= v <= b:
                    e = next(e for e, (v, a, b) in enumerate(zip(y, low, high))
                             if not a <= v <= b)
                    j = e // n
                    r, state = live[j], np.array(y[j * n:(j + 1) * n])
                    if not np.isfinite(state).all():
                        raise BlowUpError(named(
                            f"non-finite state at step {i + 1}", r))
                    raise DomainEscapeError(
                        named("trajectory left the domain", r), point=state,
                        time=(i + 1) * hs[r])
        i = stop
        going, rest = [], []
        for j, r in enumerate(live):
            if counts[r] == stop:
                ends[r] = y[j * n:(j + 1) * n]
            else:
                going.append(r)
                rest += y[j * n:(j + 1) * n]
        live, y = going, rest
    return ends


def flow(f: VectorField, q, t, cfg) -> np.ndarray:
    """Approximate the flow of y' = f(y) from q over time t by RK4 steps.

    ``t`` is one time, which gives the end state as an (n,) array, or a
    1-D sequence of times, which flows q over each in one stacked loop and
    gives a (k, n) array, row r the end state at t[r]; ``cfg`` is one
    ``FlowSolverConfig`` or one per time.  Every row has the bits of a
    one-time call.  A NaN or infinite t raises ``ValueError``, a start
    point whose shape is not the domain's ``DimensionMismatchError``; the
    loop and its errors are ``_rk4``'s.
    """
    ts, cfgs, stacked = _ladder(t, cfg)
    ends = _rk4(f, _starts(f, q, len(ts)), ts, cfgs)
    return ends if stacked else ends[0]


def multiflow_commutator(f: VectorField, g: VectorField, q, t,
                         cfg) -> np.ndarray:
    """Four-leg commutator flow: forward f, forward g, then f and g over -t.

    ``t`` and ``cfg`` are read as ``flow`` reads them: several times give
    a (k, n) array, row r the commutator over t[r], from four stacked legs.
    An escape on a backward leg reports a negative time.
    """
    ts, cfgs, stacked = _ladder(t, cfg)
    back = [-v for v in ts]
    y = _rk4(f, _starts(f, q, len(ts)), ts, cfgs)
    y = _rk4(g, y, ts, cfgs)
    y = _rk4(f, y, back, cfgs)
    y = _rk4(g, y, back, cfgs)
    return y if stacked else y[0]
