"""Unit tests for ODE flows and the commutator multi-flow, against
closed-form solutions.

Three oracles are kept here.  The negated field that backward legs once
flowed forward: a backward leg, the flow over -t, must match it byte for
byte.  The RK4 loop that recomputed every per-step invariant
(``flow_loop``) and the mollified evaluator that box-tested every stencil
row (``mollified_rows``): ``flow`` and ``mollify`` must match them in every
state, every error message, point and time.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff.core import BlowUpError, DimensionMismatchError, \
    DomainEscapeError, EstimatorFailedError, NonFiniteValueError, \
    evaluate_rows
from quasidiff.fields import abs_1d_field, abs_shear_field, constant_field, \
    linear_field, unit_x_field
from quasidiff.flows import Box, FlowSolverConfig, VectorField, \
    default_config, flow, multiflow_commutator
from quasidiff.nonsmooth import MollifierConfig, _quadrature_rule, \
    bracket_flow_direction, mollified_commutator_flow, mollify


def flow_loop(f, q, t, cfg):
    """Oracle: RK4 through ``VectorField.__call__``, with h / 2 and h / 6
    and the widened box recomputed at every step."""
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
        if not ((y >= f.domain.lo - 1e-12).all()
                and (y <= f.domain.hi + 1e-12).all()):
            raise DomainEscapeError("trajectory left the domain",
                                    point=y, time=(i + 1) * h)
    return y


def multiflow_loop(f, g, q, t, cfg):
    """Oracle: the four legs through ``flow_loop``."""
    y = flow_loop(f, q, t, cfg)
    y = flow_loop(g, y, t, cfg)
    y = flow_loop(f, y, -t, cfg)
    return flow_loop(g, y, -t, cfg)


def mollified_rows(f, cfg):
    """Oracle: the mollified field that box-tests every stencil row and
    rebuilds the stencil, the weight column and the zero row per call."""
    pts, weights = _quadrature_rule(f.dimension, cfg.quadrature_points,
                                    cfg.seed)

    def evaluator(x):
        ys = x + cfg.eta * pts
        inside = f.domain.contains_rows(ys)
        if not inside.all():
            raise DomainEscapeError("mollification stencil leaves domain",
                                    point=ys[np.argmin(inside)])
        values = evaluate_rows(f, ys, "f")
        terms = np.vstack([np.zeros((1, f.dimension)),
                           weights[:, None] * values])
        return np.add.accumulate(terms, axis=0)[-1]

    return VectorField(evaluator, f.domain)


def outcome(run):
    """What a call gives: its bytes, or its error's type, message, point
    and time."""
    try:
        return ("value", run().tobytes())
    except (BlowUpError, DomainEscapeError) as err:
        point = getattr(err, "point", None)
        return (type(err).__name__, str(err),
                None if point is None else np.asarray(point).tobytes(),
                getattr(err, "time", None))


def negated(f):
    """Oracle: the field -f."""
    return VectorField(lambda x: -f(x), f.domain)


def commutator_loop(f, g, q, t, cfg):
    """Oracle: the four legs, each backward one a forward flow of the
    negated field."""
    y = flow(f, q, t, cfg)
    y = flow(g, y, t, cfg)
    y = flow(negated(f), y, t, cfg)
    return flow(negated(g), y, t, cfg)


def mollified_commutator_loop(f, g, q, eps, quadrature_points, seed):
    """Oracle: ``mollified_commutator_flow`` through ``commutator_loop``."""
    f_s = mollify(f, MollifierConfig(eps * eps, quadrature_points, seed))
    g_s = mollify(g, MollifierConfig(eps * eps, quadrature_points, seed + 1))
    t = float(np.sqrt(eps))
    return commutator_loop(f_s, g_s, np.atleast_1d(q), t,
                           default_config(t, legs_per_unit=50))


# field pairs by label: (f, g, dimension)
PAIRS = {
    "unit_x/abs_shear": (unit_x_field, abs_shear_field, 2),
    "abs1d/abs1d": (abs_1d_field, abs_1d_field, 1),
    "constant/linear": (lambda: constant_field([0.5, -1.0]),
                        lambda: linear_field([[0.2, 1.0], [-1.0, 0.3]]), 2),
    "linear/linear": (lambda: linear_field([[0.0, 1.0], [0.0, 0.0]]),
                      lambda: linear_field([[0.0, 0.0], [1.0, -0.5]]), 2),
}


class TestFlow:
    def test_constant_field_exact(self):
        f = constant_field([1.0, -2.0])
        y = flow(f, [0.0, 0.0], 0.5, FlowSolverConfig(step=1e-2))
        assert np.allclose(y, [0.5, -1.0])

    def test_linear_field_matches_exponential(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation generator
        f = linear_field(a)
        t = 1.3
        y = flow(f, [1.0, 0.0], t, FlowSolverConfig(step=1e-3))
        assert np.allclose(y, [np.cos(t), -np.sin(t)], atol=1e-9)

    def test_backward_flow_inverts(self):
        f = linear_field([[0.2, 1.0], [0.0, -0.3]])
        cfg = FlowSolverConfig(step=1e-3)
        q = np.array([0.4, -0.7])
        y = flow(f, q, 0.8, cfg)
        back = flow(f, y, -0.8, cfg)
        assert np.allclose(back, q, atol=1e-9)

    def test_domain_escape_reports_point_and_time(self):
        f = constant_field([1.0])
        small = VectorField(f.evaluator, Box([-1.0], [1.0]))
        with pytest.raises(DomainEscapeError) as err:
            flow(small, [0.9], 1.0, FlowSolverConfig(step=1e-2))
        assert err.value.point is not None
        assert err.value.time > 0.0

    def test_backward_leg_escape_reports_negative_time(self):
        # q -> q + t -> q, then the backward f leg runs from q down past -1
        box = Box([-1.0], [1.0])
        f = VectorField(constant_field([1.0]).evaluator, box)
        g = VectorField(constant_field([-1.0]).evaluator, box)
        with pytest.raises(DomainEscapeError) as err:
            multiflow_commutator(f, g, [-0.95], 0.1,
                                 FlowSolverConfig(step=1e-2))
        assert err.value.point[0] < -1.0
        assert err.value.time == pytest.approx(-0.06)

    def test_blow_up_detected(self):
        f = VectorField(lambda x: np.array([x[0] ** 3 * 1e6]),
                        Box([-np.inf], [np.inf]))
        with pytest.raises((BlowUpError, OverflowError)):
            flow(f, [10.0], 10.0, FlowSolverConfig(step=0.5))

    def test_step_cap(self):
        f = constant_field([1.0])
        with pytest.raises(ValueError):
            flow(f, [0.0], 1.0, FlowSolverConfig(step=1e-9, max_steps=100))


class TestCommutatorFlow:
    def test_commuting_fields_return_to_start(self):
        f = constant_field([1.0, 0.0])
        g = constant_field([0.0, 1.0])
        q = np.array([0.2, 0.3])
        y = multiflow_commutator(f, g, q, 0.5, FlowSolverConfig(step=1e-2))
        assert np.allclose(y, q, atol=1e-12)

    def test_linear_fields_second_order_term(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        f = linear_field(a)
        g = linear_field(b)
        q = np.array([1.0, 1.0])
        t = 1e-2
        y = multiflow_commutator(f, g, q, t, default_config(t))
        lead = (b @ a - a @ b) @ q
        assert np.allclose((y - q) / t ** 2, lead, atol=5e-2)

    def test_nonsmooth_pair_closed_form(self):
        # f = (1,0), g = (0,|x1|): the four legs move q = 0 to (0, t^2)
        f = unit_x_field()
        g = abs_shear_field()
        t = 0.05
        y = multiflow_commutator(f, g, np.zeros(2), t, default_config(t))
        assert np.allclose(y, [0.0, t * t], atol=1e-12)


class TestBackwardLegs:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pair=st.sampled_from(sorted(PAIRS)), seed=st.integers(0, 2**16),
           t=st.floats(1e-3, 0.3), steps=st.integers(1, 300))
    def test_commutator_matches_negated_fields(self, pair, seed, t, steps):
        make_f, make_g, n = PAIRS[pair]
        f, g = make_f(), make_g()
        q = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        cfg = FlowSolverConfig(step=t / steps)
        got = multiflow_commutator(f, g, q, t, cfg)
        assert got.tobytes() == commutator_loop(f, g, q, t, cfg).tobytes()

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(pair=st.sampled_from(["unit_x/abs_shear", "abs1d/abs1d",
                                 "constant/linear"]),
           seed=st.integers(0, 2**16), eps=st.floats(1e-4, 1e-2))
    def test_mollified_flow_matches_negated_fields(self, pair, seed, eps):
        make_f, make_g, n = PAIRS[pair]
        f, g = make_f(), make_g()
        q = np.random.default_rng(seed).uniform(-0.5, 0.5, n)
        got = mollified_commutator_flow(f, g, q, eps, 32, seed)
        want = mollified_commutator_loop(f, g, q, eps, 32, seed)
        assert got.tobytes() == want.tobytes()

    def test_lipschitz_estimate_is_no_argument(self):
        # rows is keyword-only, so a stale positional estimate is refused
        with pytest.raises(TypeError):
            VectorField(lambda x: x, Box([-1.0], [1.0]), 1.0)


def mollified_pair(f, seed):
    """``mollify(f)`` and its oracle, at width 1e-2 on 32 nodes."""
    cfg = MollifierConfig(1e-2, 32, seed)
    return mollify(f, cfg), mollified_rows(f, cfg)


# fields by label: a maker of (field, oracle field) from a seed, and the
# dimension; only a mollified field has an oracle of its own
FIELDS = {
    "unit_x": (lambda s: (unit_x_field(),) * 2, 2),
    "abs_shear": (lambda s: (abs_shear_field(),) * 2, 2),
    "abs1d": (lambda s: (abs_1d_field(),) * 2, 1),
    "constant": (lambda s: (constant_field([0.5, -1.0]),) * 2, 2),
    "linear": (lambda s: (linear_field([[0.2, 1.0], [-1.0, 0.3]]),) * 2, 2),
    "mollified abs_shear": (lambda s: mollified_pair(abs_shear_field(), s), 2),
    "mollified abs1d": (lambda s: mollified_pair(abs_1d_field(), s), 1),
    "mollified linear": (lambda s: mollified_pair(
        linear_field([[0.0, 1.0], [-2.0, 0.5]]), s), 2),
}


def sweep(x, k):
    """The 2k + 1 floats nearest x, in order."""
    down, up = [x], [x]
    for _ in range(k):
        down.append(np.nextafter(down[-1], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    return down[:0:-1] + up


def _writing(x):
    value = np.array([0.5 - abs(x[0])])
    x[0] = 7.0  # the stage point handed in, which must not be the state
    return value


# y' = 0.5 - |y| in value forms that a 1-D evaluator may return, and the
# array form, which leaves its argument alone, for the loop
VALUE_FORMS = {
    "scalar": lambda x: 0.5 - abs(x[0]),
    "list": lambda x: [0.5 - abs(float(x[0]))],
    "writes into its argument": _writing,
}


def array_form(x):
    return np.array([0.5 - abs(x[0])])


class TestFlowMatchesLoop:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**16),
           t=st.floats(-0.3, 0.3), steps=st.integers(1, 200))
    def test_flow_bytes(self, name, seed, t, steps):
        make, n = FIELDS[name]
        f, f_old = make(seed)
        q = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        cfg = FlowSolverConfig(step=max(abs(t), 1e-12) / steps)
        got = flow(f, q, t, cfg)
        assert got.tobytes() == flow_loop(f_old, q, t, cfg).tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pair=st.sampled_from(sorted(PAIRS) + ["mollified"]),
           seed=st.integers(0, 2**16), t=st.floats(-0.3, 0.3),
           steps=st.integers(1, 100))
    def test_multiflow_bytes(self, pair, seed, t, steps):
        if pair == "mollified":
            (f, f_old), (g, g_old), n = mollified_pair(unit_x_field(), seed), \
                mollified_pair(abs_shear_field(), seed + 1), 2
        else:
            make_f, make_g, n = PAIRS[pair]
            f = f_old = make_f()
            g = g_old = make_g()
        q = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        cfg = FlowSolverConfig(step=max(abs(t), 1e-12) / steps)
        got = multiflow_commutator(f, g, q, t, cfg)
        want = multiflow_loop(f_old, g_old, q, t, cfg)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(form=st.sampled_from(sorted(VALUE_FORMS)), q=st.floats(-0.9, 0.9),
           t=st.floats(-0.6, 0.6), steps=st.integers(1, 100))
    def test_value_forms_and_argument_writes(self, form, q, t, steps):
        box = Box([-1.0], [1.0])
        cfg = FlowSolverConfig(step=max(abs(t), 1e-12) / steps)
        got = outcome(lambda: flow(VectorField(VALUE_FORMS[form], box), [q],
                                   t, cfg))
        assert got == outcome(lambda: flow_loop(VectorField(array_form, box),
                                                [q], t, cfg))


class TestFlowErrorsMatchLoop:
    def assert_same(self, f, q, t, cfg):
        got = outcome(lambda: flow(f, q, t, cfg))
        assert got == outcome(lambda: flow_loop(f, q, t, cfg))
        return got[0]

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-np.inf, 1.0),
                                        (-1.0, np.inf)])
    def test_states_near_the_widened_wall(self, lo, hi):
        # one step of +-0.5 lands each start within a few ulps of the wall
        # widened by 1e-12: inside it is kept, beyond it escapes, and a
        # backward step (t < 0) reports a negative time
        f = VectorField(lambda x: np.array([1.0]), Box([lo], [hi]))
        cfg = FlowSolverConfig(step=1.0)
        kinds = set()
        for wall, t in ((hi, 0.5), (lo, -0.5)):
            if not np.isfinite(wall):
                continue
            start = (wall + np.sign(t) * 1e-12) - t
            for q in sweep(start, 12):
                kinds.add((t, self.assert_same(f, [q], t, cfg)))
        for t in (0.5, -0.5):
            if np.isfinite(hi if t > 0 else lo):
                assert (t, "value") in kinds
                assert (t, "DomainEscapeError") in kinds

    def test_escape_after_many_steps(self):
        f = VectorField(lambda x: np.array([1.0, -0.3]), Box(-np.ones(2),
                                                             np.ones(2)))
        assert self.assert_same(f, [0.2, 0.1], 1.0,
                                FlowSolverConfig(step=1e-2)) \
            == "DomainEscapeError"

    def test_blow_up(self):
        big = np.finfo(float).max
        with np.errstate(over="ignore", invalid="ignore"):
            # to infinity in an unbounded box, and to NaN in a bounded one
            f = VectorField(lambda x: x * 1e300, Box([-np.inf], [np.inf]))
            assert self.assert_same(f, [1e10], 1.0,
                                    FlowSolverConfig(step=0.5)) \
                == "BlowUpError"
            g = VectorField(lambda x: x * np.nan, Box([-1.0], [1.0]))
            assert self.assert_same(g, [0.5], 1.0,
                                    FlowSolverConfig(step=0.5)) \
                == "BlowUpError"
            # the greatest finite float stays inside an unbounded box
            h = VectorField(lambda x: np.zeros(2), Box([-np.inf, -np.inf],
                                                        [np.inf, np.inf]))
            assert self.assert_same(h, [big, -big], 1.0,
                                    FlowSolverConfig(step=0.5)) == "value"
            for side in (1.0, -1.0):
                k = VectorField(lambda x: np.array([side * big]),
                                Box([min(0.0, side * np.inf)],
                                    [max(0.0, side * np.inf)]))
                assert self.assert_same(k, [side * big], 1.0,
                                        FlowSolverConfig(step=0.5)) \
                    == "BlowUpError"

    @pytest.mark.parametrize("form", sorted(VALUE_FORMS))
    def test_value_forms_escape_alike(self, form):
        # from -0.9 the state runs down through the wall at -1
        box = Box([-1.0], [1.0])
        cfg = FlowSolverConfig(step=1e-2)
        got = outcome(lambda: flow(VectorField(VALUE_FORMS[form], box),
                                   [-0.9], 1.0, cfg))
        assert got == outcome(lambda: flow_loop(VectorField(array_form, box),
                                                [-0.9], 1.0, cfg))
        assert got[0] == "DomainEscapeError"

    def test_backward_leg_escape(self):
        box = Box([-1.0], [1.0])
        f = VectorField(constant_field([1.0]).evaluator, box)
        g = VectorField(constant_field([-1.0]).evaluator, box)
        cfg = FlowSolverConfig(step=1e-2)
        got = outcome(lambda: multiflow_commutator(f, g, [-0.95], 0.1, cfg))
        assert got == outcome(lambda: multiflow_loop(f, g, [-0.95], 0.1, cfg))
        assert got[0] == "DomainEscapeError" and got[3] < 0.0


class TestMollifiedMatchesRows:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(name=st.sampled_from([k for k in FIELDS if "mollified" in k]),
           seed=st.integers(0, 2**16))
    def test_value_bytes(self, name, seed):
        make, n = FIELDS[name]
        f, f_old = make(seed)
        x = np.random.default_rng(seed).uniform(-9.0, 9.0, n)
        assert f(x).tobytes() == f_old(x).tobytes()

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_first_failing_row_near_the_wall(self, side):
        shear = abs_shear_field()
        base = VectorField(shear.evaluator, Box(-np.ones(2), np.ones(2)),
                           rows=shear.rows)
        cfg = MollifierConfig(0.1, 64, 3)
        f, f_old = mollify(base, cfg), mollified_rows(base, cfg)
        offsets = cfg.eta * _quadrature_rule(2, 64, 3)[0]
        reach = offsets.max(axis=0) if side > 0 else offsets.min(axis=0)
        kinds = set()
        for x0 in sweep(side - reach[0], 8):
            x = np.array([x0, 0.5 * side - reach[1]])
            got = outcome(lambda: f.evaluator(x))
            assert got == outcome(lambda: f_old.evaluator(x))
            kinds.add(got[0])
        assert kinds == {"value", "DomainEscapeError"}

    def test_point_of_another_size_refused(self):
        f, _ = mollified_pair(abs_shear_field(), 0)
        with pytest.raises(ValueError):
            f.evaluator(np.array([0.5]))

    def test_nan_point_fails_at_the_first_row(self):
        f, f_old = mollified_pair(abs_shear_field(), 0)
        x = np.array([np.nan, 0.0])
        got = outcome(lambda: f.evaluator(x))
        assert got[0] == "DomainEscapeError"
        assert got == outcome(lambda: f_old.evaluator(x))


class TestPreconditions:
    @pytest.mark.parametrize("n", [5, 20])
    def test_shrunk_quadrature_refused(self, n):
        # at n = 5 the rule kept 158 of the 256 nodes asked for; at n = 20
        # it fell back to the centre alone, and the mollified field gave
        # f's own value
        with pytest.raises(EstimatorFailedError, match="quadrature"):
            _quadrature_rule(n, 256, 0)
        f = VectorField(np.abs, Box(-np.ones(n), np.ones(n)))
        with pytest.raises(EstimatorFailedError, match="quadrature"):
            mollify(f, MollifierConfig(0.1))

    @pytest.mark.parametrize("kwargs", [
        {"step": -1e-3}, {"step": 0.0}, {"step": np.nan}, {"step": np.inf},
        {"max_steps": 0}])
    def test_bad_solver_config_refused(self, kwargs):
        with pytest.raises(ValueError):
            FlowSolverConfig(**kwargs)

    @pytest.mark.parametrize("q", [[0.5], [0.5, 0.0, 0.0], [[0.5, 0.0]]])
    def test_start_point_of_another_shape_refused(self, q):
        # a one-entry start was broadcast by the first stage: (0.6, 0.5)
        with pytest.raises(DimensionMismatchError):
            flow(unit_x_field(), q, 0.1, FlowSolverConfig(step=0.05))

    @pytest.mark.parametrize("value", [np.array([1.0]), np.array(1.0),
                                       np.zeros(3), np.zeros((2, 2))])
    def test_field_value_of_another_size_refused(self, value):
        # a one-entry value was broadcast: (0, 0) flowed to (0.5, 0.5)
        f = VectorField(lambda x: value, Box(-np.ones(2), np.ones(2)))
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"dimension 2 returned a value of "
                                           f"shape {value.shape}")):
            flow(f, [0.0, 0.0], 0.5, FlowSolverConfig(step=0.05))

    @pytest.mark.parametrize("width", [1, 3])
    def test_mollified_rows_of_another_width_refused(self, width):
        # the weighted sum raised a bare ValueError from vstack
        shear = abs_shear_field()
        f = VectorField(shear.evaluator, shear.domain,
                        rows=lambda X: np.abs(X[:, :1]).repeat(width, axis=1))
        g = mollify(f, MollifierConfig(1e-2, 32, 0))
        with pytest.raises(DimensionMismatchError,
                           match=f"dimension 2 returned rows of width {width}"):
            g.evaluator(np.array([0.5, 0.0]))
        with pytest.raises(DimensionMismatchError):
            flow(g, [0.5, 0.0], 0.1, FlowSolverConfig(step=0.05))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_refused(self, t):
        f = linear_field([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\bt\b"):
            flow(f, [1.0, 0.0], t, FlowSolverConfig())

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-4])
    def test_bad_bracket_eps_refused(self, eps):
        with pytest.raises(ValueError, match="eps"):
            bracket_flow_direction(unit_x_field(), abs_shear_field(),
                                   [0.0, 0.0], eps)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_refused(self, eta):
        with pytest.raises(ValueError, match="eta"):
            MollifierConfig(eta)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-4])
    def test_bad_mollified_eps_refused(self, eps):
        # a negative eps made the leg time sqrt(eps) NaN
        with pytest.raises(ValueError, match="eps"):
            mollified_commutator_flow(unit_x_field(), abs_shear_field(),
                                      [0.0, 0.0], eps)


class TestBox:
    def test_contains_rows_matches_contains(self):
        # the boundary is inside; a point one ulp beyond it is not
        box = Box([-1.0, 0.0], [1.0, 2.0])
        pts = np.array([[-1.0, 0.0], [1.0, 2.0], [0.5, 1.0],
                        [np.nextafter(1.0, 2.0), 1.0],
                        [0.0, np.nextafter(0.0, -1.0)], [3.0, -3.0]])
        mask = box.contains_rows(pts)
        assert mask.tolist() == [box.contains(p) for p in pts]
        assert mask.tolist() == [True, True, True, False, False, False]

    def test_nan_bound_refused_infinite_kept(self):
        with pytest.raises(NonFiniteValueError):
            Box([np.nan], [1.0])
        with pytest.raises(NonFiniteValueError):
            Box([0.0, 0.0], [1.0, np.nan])
        box = Box([-np.inf], [np.inf])
        assert box.contains([1e300])

    def test_caller_bounds_left_writable(self):
        # the box froze the caller's own arrays
        a = np.ones(2)
        box = Box(-a, a)
        a[0] = 5.0
        assert box.hi.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError):
            box.hi[0] = 0.0

    def test_bad_bounds_refused(self):
        with pytest.raises(DimensionMismatchError):
            Box([0.0, 0.0], [1.0])
        with pytest.raises(ValueError, match="inverted"):
            Box([0.0, 1.0], [1.0, 0.0])
