"""Unit tests for the mollification and sampling estimators, including a
1D quadrature oracle for the mollifier."""
from __future__ import annotations

import numpy as np
import pytest

from quasidiff.core import DomainEscapeError, EstimatorFailedError, \
    OperatorSet, hausdorff_distance
from quasidiff.fields import abs_1d_field, abs_shear_field, linear_field, \
    unit_x_field
from quasidiff.nonsmooth import (
    MollifierConfig,
    bracket_flow_direction,
    clarke_jacobian_estimate,
    differentiability_score,
    fd_jacobian,
    lie_bracket_pointwise,
    mollified_commutator_flow,
    mollify,
    set_lie_bracket_estimate,
)


def mollified_abs_oracle(x, eta, grid=20001):
    """Oracle: midpoint-rule convolution of |.| with the bump kernel."""
    ts = np.linspace(-1.0, 1.0, grid)[1:-1]
    w = np.exp(-1.0 / (1.0 - ts ** 2))
    w /= w.sum()
    return float(np.sum(w * np.abs(x + eta * ts)))


class TestFdJacobian:
    def test_linear_map_recovered(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = lambda x: a @ x
        j = fd_jacobian(f, np.array([0.3, -0.2]), 1e-5)
        assert np.allclose(j.entries, a, atol=1e-9)

    def test_stencil_leaving_domain_raises(self):
        f = abs_1d_field()  # on [-10, 10]
        with pytest.raises(DomainEscapeError):
            fd_jacobian(f, np.array([10.0]), 1e-5)
        with pytest.raises(DomainEscapeError):
            differentiability_score(f, np.array([-10.0 + 1e-6]), 1e-5)

    def test_score_flags_kink(self):
        f = abs_1d_field()
        assert differentiability_score(f, np.array([0.5]), 1e-5) < 1e-8
        # a point just off the kink sees different slopes at the two scales
        assert differentiability_score(f, np.array([3.3e-6]), 1e-5) > 0.1


class TestMollify:
    def test_constant_reproduced_exactly(self):
        f = unit_x_field()
        smooth = mollify(f, MollifierConfig(eta=0.01))
        assert np.allclose(smooth(np.array([0.3, 0.4])), [1.0, 0.0],
                           atol=1e-14)

    def test_abs_matches_quadrature_oracle(self):
        f = abs_1d_field()
        eta = 0.05
        smooth = mollify(f, MollifierConfig(eta=eta, quadrature_points=2048))
        for x in (0.0, 0.01, -0.03, 0.2):
            got = float(smooth(np.array([x]))[0])
            want = mollified_abs_oracle(x, eta)
            assert got == pytest.approx(want, abs=2e-3)

    def test_smoothing_dominates_kink(self):
        # mollified |x| at 0 is strictly positive, of order eta
        f = abs_1d_field()
        eta = 0.01
        smooth = mollify(f, MollifierConfig(eta=eta))
        v = float(smooth(np.array([0.0]))[0])
        assert 0.0 < v < eta


class TestBrackets:
    def test_pointwise_bracket_linear_fields(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        x = np.array([0.7, -0.4])
        got = lie_bracket_pointwise(linear_field(a), linear_field(b), x, 1e-5)
        assert np.allclose(got, (b @ a - a @ b) @ x, atol=1e-8)

    def test_set_bracket_of_shear_pair(self):
        est = set_lie_bracket_estimate(unit_x_field(), abs_shear_field(),
                                       np.zeros(2), 1e-3, 2000, seed=0)
        expected = OperatorSet.from_vectors([[0.0, -1.0], [0.0, 1.0]],
                                            convex_closure=True)
        assert hausdorff_distance(est, expected) <= 1e-2

    def test_direction_quotient_closed_form(self):
        d = bracket_flow_direction(unit_x_field(), abs_shear_field(),
                                   np.zeros(2), 1e-4)
        assert np.allclose(d, [0.0, 1.0], atol=1e-10)

    def test_mollified_commutator_flow_tracks_direction(self):
        eps = 1e-2
        y = mollified_commutator_flow(unit_x_field(), abs_shear_field(),
                                      np.zeros(2), eps,
                                      quadrature_points=128)
        assert np.linalg.norm(y / eps - np.array([0.0, 1.0])) < 0.2


class TestClarkeEstimate:
    def test_absvalue_interval(self):
        est = clarke_jacobian_estimate(
            lambda x: np.array([abs(x[0])]), [0.0], 1e-3, 5000, seed=0)
        expected = OperatorSet.from_matrices([[[-1.0]], [[1.0]]],
                                             convex_closure=True)
        assert hausdorff_distance(est, expected) <= 1e-2

    def test_smooth_map_single_generator(self):
        est = clarke_jacobian_estimate(
            lambda x: np.array([np.sin(x[0])]), [0.0], 1e-4, 500, seed=0)
        flats = est.flat_generators()
        assert np.allclose(flats, 1.0, atol=1e-6)

    def test_all_samples_rejected_raises(self):
        # a noisy map fails the two-scale score everywhere
        rng = np.random.default_rng(0)
        noisy = lambda x: np.array([rng.normal()])
        with pytest.raises(EstimatorFailedError):
            clarke_jacobian_estimate(noisy, [0.0], 1e-3, 50, seed=0)

    def test_deterministic_given_seed(self):
        args = (lambda x: np.array([abs(x[0])]), [0.0], 1e-3, 1000)
        a = clarke_jacobian_estimate(*args, seed=5)
        b = clarke_jacobian_estimate(*args, seed=5)
        assert np.array_equal(a.flat_generators(), b.flat_generators())
