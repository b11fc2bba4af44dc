"""Unit tests for ODE flows and the commutator multi-flow, against
closed-form solutions.

The negated field that backward legs once flowed forward is kept here as
an oracle: a backward leg, the flow over -t, must match it byte for byte.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff.core import BlowUpError, DomainEscapeError, \
    NonFiniteValueError
from quasidiff.fields import abs_1d_field, abs_shear_field, constant_field, \
    linear_field, unit_x_field
from quasidiff.flows import Box, FlowSolverConfig, VectorField, \
    default_config, flow, multiflow_commutator
from quasidiff.nonsmooth import MollifierConfig, mollified_commutator_flow, \
    mollify


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
