"""Unit tests for the certificate data model, the explicit absolute-value
and curve families, the calculus combinators, and the abundance transfer."""
from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasidiff import certificates as c
from quasidiff import core
from quasidiff.core import GammaSet, LinearMap, OperatorSet


def abs_map(x):
    return np.array([abs(np.atleast_1d(x)[0])])


class TestDimensions:
    def two_row_cert(self, **parts):
        """A certificate of 2 x 1 maps at x_bar = 0, y_bar = 0 in R^2, with
        rho = 0.6 and a constant map and remainder."""
        lam = OperatorSet.from_matrices([[[1.0], [0.0]]])
        return c.QdqCertificate(**{
            "x_bar": [0.0], "y_bar": [0.0, 0.0],
            "gamma": GammaSet.full_space(1), "lam": lam, "delta_star": 1.0,
            "rho": lambda d: 0.6,
            "family": lambda d: (lambda x: [[1.0], [0.0]],
                                 lambda x: [0.5, 0.5]), **parts})

    def test_full_width_remainder_measured(self):
        rep = c.verify_certificate(lambda x: np.array([x[0] + 0.5, 0.5]),
                                   self.two_row_cert(), [0.9], 20, seed=0)
        assert not rep.accepted
        assert {(v["check"], v["value"]) for v in rep.violations} == {
            ("remainder_size", float(np.hypot(0.5, 0.5)))}

    @pytest.mark.parametrize("parts", [
        # y_bar was broadcast over the two rows, and the certificate held
        {"y_bar": [0.0]},
        {"x_bar": [0.0, 0.0]},
        {"gamma": GammaSet.full_space(2)},
    ], ids=["y_bar", "x_bar", "gamma"])
    def test_parts_that_disagree_refused(self, parts):
        with pytest.raises(core.DimensionMismatchError):
            self.two_row_cert(**parts)

    def test_remainder_narrower_than_the_codomain_refused(self):
        # h = 0.5 was broadcast: |h| = 0.5 <= 0.9 * 0.6 = 0.54 passed, but
        # the remainder the identity adds is (0.5, 0.5), of norm 0.707
        cert = self.two_row_cert(family=lambda d: (lambda x: [[1.0], [0.0]],
                                                   lambda x: [0.5]))
        with pytest.raises(core.DimensionMismatchError, match="h_fn"):
            c.verify_certificate(lambda x: np.array([x[0] + 0.5, 0.5]), cert,
                                 [0.9], 20, seed=0)


class TestAbsvalueFamily:
    def test_identity_holds_exactly(self):
        # y_bar + L(x) x + h(x) must equal |x| pointwise
        for delta in (0.3, 0.1, 0.01):
            L_fn, h_fn = c.absvalue_certificate(delta)
            for x in np.linspace(-delta, delta, 41):
                lhs = (np.asarray(L_fn([x])) @ [x])[0] + h_fn([x])[0]
                assert lhs == pytest.approx(abs(x), abs=1e-15)

    def test_remainder_bound(self):
        for delta in (0.3, 0.1, 0.01):
            _, h_fn = c.absvalue_certificate(delta)
            xs = np.linspace(-delta, delta, 201)
            hs = [abs(h_fn([x])[0]) for x in xs]
            assert max(hs) <= delta * delta / 4.0 + 1e-15
            assert max(hs) <= delta * delta  # well inside delta * rho(delta)

    def test_slope_stays_in_interval(self):
        L_fn, _ = c.absvalue_certificate(0.1)
        for x in np.linspace(-0.1, 0.1, 101):
            s = np.asarray(L_fn([x]))[0, 0]
            assert -1.0 <= s <= 1.0

    def test_certificate_is_frozen(self):
        cert = c.absvalue_qdq()
        with pytest.raises(FrozenInstanceError):
            cert.lam = cert.lam

    def test_report_is_frozen(self):
        rep = c.verify_certificate(abs_map, c.absvalue_qdq(), [1e-1], 20)
        with pytest.raises(FrozenInstanceError):
            rep.accepted = not rep.accepted

    def test_full_certificate_accepted(self):
        cert = c.absvalue_qdq()
        rep = c.verify_certificate(abs_map, cert, [1e-1, 1e-2, 1e-3], 200,
                                   seed=0)
        assert rep.accepted
        assert rep.rho_monotone

    def test_tiny_scaled_certificate_accepted(self):
        # 3e-8 |x| has Lambda = hull{-3e-8, 3e-8}: every slope lies inside
        # it, so the operator distance is 0 however small the set is
        cert = c.combine_certificates("linear", c.absvalue_qdq(),
                                      c.absvalue_qdq(), alpha=3e-8, beta=0.0)
        rep = c.verify_certificate(lambda x: 3e-8 * abs_map(x), cert,
                                   [1e-1, 1e-2, 1e-3], 200, seed=0)
        assert rep.accepted
        assert rep.violations == []

    def test_shrunk_lambda_rejected_at_minus_delta(self):
        cert = replace(c.absvalue_qdq(),
                       lam=OperatorSet.from_matrices([[[-0.5]], [[1.0]]],
                                                     convex_closure=True))
        rep = c.verify_certificate(abs_map, cert, [1e-2, 1e-3], 200, seed=0)
        assert not rep.accepted
        # the endpoint x = -delta is sampled and must be among the violations
        assert any(v["check"] == "operator_distance"
                   and np.isclose(v["x"][0], -v["delta"])
                   for v in rep.violations)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
    def test_hull_missing_a_slope_refused(self, a, b):
        # the endpoints -delta and +delta are always sampled, where L is
        # -1 and +1; a hull that misses either by more than 2 min delta is
        # farther from it than rho(delta) = delta
        a, b = min(a, b), max(a, b)
        grid = [1e-1, 1e-2, 1e-3]
        assume(a > -1.0 + 2 * min(grid) or b < 1.0 - 2 * min(grid))
        cert = c.absvalue_qdq(OperatorSet.from_matrices(
            [[[a]], [[b]]], convex_closure=True))
        rep = c.verify_certificate(abs_map, cert, grid, 20, seed=0)
        assert not rep.accepted
        assert any(v["check"] == "operator_distance" for v in rep.violations)

    def test_delta_outside_range_rejected(self):
        cert = c.absvalue_qdq()
        with pytest.raises(ValueError):
            c.verify_certificate(abs_map, cert, [2.0], 10)

    def test_box_missing_base_point_is_not_accepted(self):
        # Gamma = [5, 6] misses every ball around x_bar = 0: no point is
        # sampled, so there is nothing to accept
        cert = replace(c.absvalue_qdq(), gamma=GammaSet.box([5.0], [6.0]))
        rep = c.verify_certificate(abs_map, cert, [1e-1, 1e-2], 50, seed=0)
        assert rep.checks_run == 0
        assert rep.checks_per_delta == ((1e-2, 0), (1e-1, 0))
        assert not rep.violations
        assert not rep.accepted

    def test_short_sample_on_one_delta_blocks_acceptance(self):
        # the box [0.006, 0.01] lies inside B_0.1 but misses B_0.005: the
        # larger delta is fully checked, the smaller one gets no point
        cert = replace(c.absvalue_qdq(), gamma=GammaSet.box([0.006], [0.01]))
        rep = c.verify_certificate(abs_map, cert, [1e-1, 5e-3], 50, seed=0)
        assert dict(rep.checks_per_delta) == {1e-1: 50, 5e-3: 0}
        assert not rep.violations
        assert not rep.accepted

    def test_partial_sample_on_one_delta_blocks_acceptance(self, monkeypatch):
        # the quarter-plane box [0, 1]^2 keeps about pi/4 of the draws from
        # the cube around B_0.1; with a single draw round the sample comes
        # back short but not empty, and the exact identity certificate is
        # still refused
        cert = c.QdqCertificate(
            x_bar=[0.0, 0.0], y_bar=[0.0, 0.0],
            gamma=GammaSet.box([0.0, 0.0], [1.0, 1.0]),
            lam=OperatorSet.from_matrices([np.eye(2)]), delta_star=1.0,
            rho=lambda d: 0.0,
            family=lambda d: (lambda x: LinearMap(np.eye(2)),
                              lambda x: np.zeros(2)))
        identity = lambda x: np.asarray(x, dtype=float)
        full = c.verify_certificate(identity, cert, [1e-1], 50, seed=0)
        assert dict(full.checks_per_delta) == {1e-1: 50}
        assert full.accepted
        monkeypatch.setattr(core, "BOX_SAMPLE_ROUNDS", 1)
        rep = c.verify_certificate(identity, cert, [1e-1], 50, seed=0)
        assert 0 < rep.checks_run < 50
        assert not rep.violations
        assert not rep.accepted

    def test_box_wider_than_delta_fully_sampled(self):
        # only half of the box [-0.01, 0.01] lies inside B_0.005; the
        # sample is drawn from the box clipped to that ball, so both deltas
        # get every point
        cert = replace(c.absvalue_qdq(), gamma=GammaSet.box([-0.01], [0.01]))
        rep = c.verify_certificate(abs_map, cert, [1e-1, 5e-3], 50, seed=0)
        assert dict(rep.checks_per_delta) == {1e-1: 50, 5e-3: 50}
        assert not rep.violations
        assert rep.accepted

    def test_checks_per_delta_reported(self):
        rep = c.verify_certificate(abs_map, c.absvalue_qdq(),
                                   [1e-1, 1e-2, 1e-3], 200, seed=0)
        assert [d for d, _ in rep.checks_per_delta] == [1e-3, 1e-2, 1e-1]
        assert all(n >= 200 for _, n in rep.checks_per_delta)
        assert rep.checks_run == sum(n for _, n in rep.checks_per_delta)
        assert rep.to_jsonable()["checks_per_delta"] == \
            [list(dc) for dc in rep.checks_per_delta]


class TestContinuityBudget:
    @pytest.mark.parametrize("budget, accepted", [(1.0, False), (1e3, True)])
    def test_budget_against_the_slope(self, budget, accepted):
        # F(x) = 1e3 x^2 at 0 with L(x) = [1e3 x] and h = 0: every
        # inequality but the continuity budget holds, and L moves at slope
        # 1e3
        cert = c.QdqCertificate(
            x_bar=[0.0], y_bar=[0.0], gamma=GammaSet.full_space(1),
            lam=OperatorSet.from_matrices([[[-1e3]], [[1e3]]],
                                          convex_closure=True),
            delta_star=1.0, rho=lambda d: d,
            family=lambda d: (lambda x: LinearMap([[1e3 * x[0]]]),
                              lambda x: np.zeros(1)),
            lipschitz_budget=lambda d: budget)
        rep = c.verify_certificate(lambda x: np.array([1e3 * x[0] * x[0]]),
                                   cert, [1e-2, 1e-3], 50, seed=0)
        assert rep.accepted == accepted
        assert {v["check"] for v in rep.violations} <= {"continuity_budget"}
        assert bool(rep.violations) != accepted

    def test_tight_absvalue_budget_refused(self):
        # the ramp of the absvalue family has slope 1/delta^2
        cert = replace(c.absvalue_qdq(),
                       lipschitz_budget=lambda d: 0.1 / (d * d))
        rep = c.verify_certificate(abs_map, cert, [1e-1, 1e-2, 1e-3], 200,
                                   seed=0)
        assert not rep.accepted
        assert {v["check"] for v in rep.violations} == {"continuity_budget"}

    def test_budget_wrong_below_the_top_delta_refused(self):
        # the budget is right at 1e-1 and ten times below the ramp's slope
        # at 1e-2 and 1e-3, where a point of the ramp |t| <= delta^2 turns
        # up with probability delta; none of the first 16 points of seed 0
        # is on it
        cert = replace(c.absvalue_qdq(), lipschitz_budget=lambda d: (
            0.1 / (d * d) if d <= 1e-2 else 1.1 / (d * d) + 2.0))
        rep = c.verify_certificate(abs_map, cert, [1e-1, 1e-2, 1e-3], 200,
                                   seed=0)
        assert not rep.accepted
        assert {v["check"] for v in rep.violations} == {"continuity_budget"}
        assert {v["delta"] for v in rep.violations} <= {1e-2, 1e-3}

    def test_every_point_checked(self):
        # one L call per check, and one more at the moved point of each
        # check (none of them is x_bar)
        calls = []

        def family(d):
            L_fn, h_fn = c.absvalue_certificate(d)
            return (lambda x: calls.append(1) or L_fn(x)), h_fn

        cert = replace(c.absvalue_qdq(), family=family)
        rep = c.verify_certificate(abs_map, cert, [1e-1, 1e-2, 1e-3], 200,
                                   seed=0)
        assert rep.accepted
        assert rep.checks_run == 606
        assert len(calls) == 2 * 606


class TestOneCallPerDelta:
    """A row-defined family is read once per delta-sample: its maps once,
    and once more at the moved points under a continuity budget, its
    remainders once, and a row membership oracle once."""

    @staticmethod
    def counted(calls, key, fn):
        return core.RowMap(lambda *a: calls.append(key) or fn.rows(*a))

    def test_family_and_membership_calls(self):
        grid = [1e-1, 1e-2, 1e-3]
        theta = lambda eta: (lambda y: y + 0.5 * eta * np.cos(y))
        t = c.abundant_transfer(abs_map, c.absvalue_qdq(), theta, seed=7)
        calls = []

        def family(d):
            L_fn, h_fn = t.family(d)
            return (self.counted(calls, "L", L_fn),
                    self.counted(calls, "h", h_fn))

        member = self.counted(calls, "member", c.abundant_membership(
            abs_map, t, theta, grid))
        rep = c.verify_certificate(abs_map, replace(t, family=family), grid,
                                   200, seed=0, membership=member)
        assert rep.accepted and rep.checks_run == 606
        assert calls == ["h", "L", "member", "L"] * 3

    def test_no_budget_no_second_read(self):
        doubler = c.QdqCertificate(
            x_bar=[0.0], y_bar=[0.0], gamma=GammaSet.full_space(1),
            lam=OperatorSet.from_matrices([[[2.0]]]), delta_star=1.0,
            rho=lambda d: 0.0,
            family=lambda d: (lambda x: LinearMap([[2.0]]),
                              lambda x: np.array([0.0])))
        comp = c.compose_certificates(c.absvalue_qdq(), doubler)
        calls = []

        def family(d):
            L_fn, h_fn = comp.family(d)
            return (self.counted(calls, "L", L_fn),
                    self.counted(calls, "h", h_fn))

        rep = c.verify_certificate(lambda x: 2.0 * abs_map(x),
                                   replace(comp, family=family),
                                   [1e-2, 1e-3], 100, seed=0)
        assert rep.accepted
        assert calls == ["h", "L"] * 2

    def test_builtin_families_are_row_maps(self):
        a = c.absvalue_qdq()
        curve = c.CurveData.from_function(lambda t: abs(t), 0.0)
        theta = lambda eta: (lambda y: y + 0.5 * eta * np.cos(y))
        families = [c.absvalue_certificate(0.1),
                    c.curve_certificate(curve, 0.1),
                    c.compose_certificates(a, a).family(0.1),
                    c.abundant_transfer(abs_map, a, theta).family(0.1)]
        families += [c.combine_certificates(kind, a, a).family(0.1)
                     for kind in ("linear", "set_product", "scalar_product")]
        for L_fn, h_fn in families:
            assert isinstance(L_fn, core.RowMap)
            assert isinstance(h_fn, core.RowMap)


class TestModulusMonotone:
    def test_decreasing_rho_refused(self):
        # every inequality holds under the generous rho, but a modulus must
        # not decrease in delta
        cert = replace(c.absvalue_qdq(), rho=lambda d: 2.0 - d)
        rep = c.verify_certificate(abs_map, cert, [1e-1, 1e-2, 1e-3], 50,
                                   seed=0)
        assert not rep.rho_monotone
        assert rep.violations == []
        assert not rep.accepted


class TestMapShapes:
    def test_maps_of_several_shapes_refused(self):
        # a map of the wrong shape at some points only
        cert = replace(c.absvalue_qdq(), family=lambda d: (
            lambda x: [[1.0]] if x[0] > 0 else [[1.0, 0.0]],
            c.absvalue_certificate(d)[1]))
        with pytest.raises(core.DimensionMismatchError):
            c.verify_certificate(abs_map, cert, [1e-1], 20, seed=0)

    @pytest.mark.parametrize("matrix", [[[2.0]], [[1.0, -2.0]]])
    def test_map_forms_give_equal_reports(self, matrix):
        # a scalar or a row, a nested list, an array and a LinearMap are
        # one map, in a plain family and through the calculus
        a = np.array(matrix)
        forms = [a.ravel().tolist(), matrix, a, LinearMap(matrix)]
        if a.size == 1:
            forms.append(2.0)
        n = a.shape[1]
        outer = lambda form: c.QdqCertificate(
            x_bar=np.zeros(n), y_bar=[0.0], gamma=GammaSet.full_space(n),
            lam=OperatorSet.from_matrices([matrix]), delta_star=1.0,
            rho=lambda d: 0.0,
            family=lambda d: (lambda x: form, lambda x: np.zeros(1)))
        F = lambda x: a @ np.atleast_1d(x)

        def reports(form):
            cert = outer(form)
            out = [c.verify_certificate(F, cert, [1e-1, 1e-2], 30, seed=3),
                   c.verify_certificate(
                       lambda x: 2.0 * F(x),
                       c.combine_certificates("linear", cert, cert), [1e-1],
                       30, seed=4)]
            if n == 1:
                out.append(c.verify_certificate(
                    lambda x: F(abs_map(x)),
                    c.compose_certificates(c.absvalue_qdq(), cert),
                    [1e-1, 1e-2], 30, seed=5))
            return [(r.to_jsonable(), r.violations) for r in out]

        want = reports(forms[0])
        assert all(rep[0]["accepted"] for rep in want)
        for form in forms[1:]:
            assert reports(form) == want


class TestEmptyDeltaGrid:
    def test_empty_grid_refused(self):
        # with no delta there is no check, and even a wrong set would pass
        cert = replace(c.absvalue_qdq(),
                       lam=OperatorSet.from_matrices([[[0.5]]]))
        with pytest.raises(ValueError, match="empty"):
            c.verify_certificate(abs_map, cert, [], 20, seed=0)
        assert not c.verify_certificate(abs_map, cert, [1e-1], 20,
                                        seed=0).accepted


class TestNonFiniteValues:
    """A NaN fails every comparison, so before these checks a NaN from F or
    h_fn was accepted as if it met every bound."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_F_raises(self, bad):
        with pytest.raises(core.NonFiniteValueError) as err:
            c.verify_certificate(lambda x: np.array([bad]), c.absvalue_qdq(),
                                 [1e-1], 20, seed=0)
        assert err.value.point is not None

    def test_nonfinite_h_raises(self):
        cert = replace(c.absvalue_qdq(),
                       family=lambda d: (c.absvalue_certificate(d)[0],
                                         lambda x: np.array([np.nan])))
        with pytest.raises(core.NonFiniteValueError):
            c.verify_certificate(abs_map, cert, [1e-1], 20, seed=0)

    def test_nonfinite_L_raises(self):
        cert = replace(c.absvalue_qdq(),
                       family=lambda d: (lambda x: [[np.nan]],
                                         c.absvalue_certificate(d)[1]))
        with pytest.raises(core.NonFiniteValueError):
            c.verify_certificate(abs_map, cert, [1e-1], 20, seed=0)

    @staticmethod
    def _nan_right_cert():
        # the slope family of |x|, NaN on the right half-line only
        def family(d):
            L_fn, h_fn = c.absvalue_certificate(d)
            return (lambda x: [[np.nan]] if x[0] > 0 else L_fn(x)), h_fn
        return replace(c.absvalue_qdq(), family=family)

    @staticmethod
    def _first_right_point(cert, delta, count, seed):
        xs = cert.gamma.sample(np.random.default_rng(seed), cert.x_bar,
                               delta, count)[:count + 2]
        return xs[xs[:, 0] > 0][0]

    def test_nonfinite_L_raises_at_its_point(self):
        cert = self._nan_right_cert()
        with pytest.raises(core.NonFiniteValueError) as err:
            c.verify_certificate(abs_map, cert, [1e-1], 20, seed=0)
        want = self._first_right_point(cert, 1e-1, 20, 0)
        assert np.array_equal(err.value.point, want)

    def test_nonfinite_inner_L_of_compose_raises_at_its_point(self):
        doubler = c.QdqCertificate(
            x_bar=[0.0], y_bar=[0.0], gamma=GammaSet.full_space(1),
            lam=OperatorSet.from_matrices([[[2.0]]]), delta_star=1.0,
            rho=lambda d: 0.0,
            family=lambda d: (lambda x: np.array([[2.0]]),
                              lambda x: np.array([0.0])))
        comp = c.compose_certificates(self._nan_right_cert(), doubler)
        with pytest.raises(core.NonFiniteValueError) as err:
            c.verify_certificate(lambda x: 2.0 * abs_map(x), comp, [1e-1],
                                 20, seed=0)
        want = self._first_right_point(comp, 1e-1, 20, 0)
        assert np.array_equal(err.value.point, want)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_huge_finite_h_is_a_violation(self):
        # |h| overflows to inf although every entry is finite: that is a
        # remainder violation, not a non-finite value
        cert = replace(c.absvalue_qdq(),
                       family=lambda d: (c.absvalue_certificate(d)[0],
                                         lambda x: np.array([1e300])))
        rep = c.verify_certificate(
            lambda x: np.array([1e300]), cert, [1e-1], 5, seed=0,
            membership=lambda x, y: True)
        assert not rep.accepted
        assert any(v["check"] == "remainder_size" for v in rep.violations)

    def test_nonfinite_singleton_map_raises(self):
        # max(0.0, nan) is 0, so an all-NaN map would look differentiable
        with pytest.raises(core.NonFiniteValueError) as err:
            c.singleton_qdq_check(lambda x: np.array([np.nan]), [0.5],
                                  LinearMap([[0.0]]))
        assert err.value.point.tolist() == [0.5]

    def test_nonfinite_retraction_raises(self):
        # a NaN retraction error fails err >= eta, so it would pass the audit
        with pytest.raises(core.NonFiniteValueError) as err:
            c.abundant_transfer(abs_map, c.absvalue_qdq(),
                                lambda eta: (lambda y: y * np.nan), seed=7)
        assert err.value.point is not None

    def test_nonfinite_curve_remainder_raises(self):
        # max(worst, nan) keeps worst, so a NaN remainder left the modulus
        # of a clean |t| unchanged
        f = lambda t: np.array([np.nan if 0.0 < t < 1e-9 else abs(t)])
        data = c.CurveData(f, 0.0, [1.0], [-1.0])
        with pytest.raises(core.NonFiniteValueError) as err:
            c.curve_qdq(data)
        assert 0.0 < err.value.point[0] < 1e-9

    def test_nonfinite_curve_raises(self):
        # NaN quotients fail every comparison, so they would pass the
        # Cauchy test
        nan_right = lambda t: np.nan if t > 0 else abs(t)
        with pytest.raises(core.NonFiniteValueError) as err:
            c.one_sided_derivatives(nan_right, 0.0)
        assert err.value.point == 2.0 ** -4


class TestOneSidedDerivatives:
    def test_absvalue(self):
        left, right = c.one_sided_derivatives(lambda t: abs(t), 0.0)
        assert left[0] == pytest.approx(-1.0, abs=1e-10)
        assert right[0] == pytest.approx(1.0, abs=1e-10)

    def test_smooth_curve(self):
        left, right = c.one_sided_derivatives(np.sin, 0.3)
        assert left[0] == pytest.approx(np.cos(0.3), abs=1e-7)
        assert right[0] == pytest.approx(np.cos(0.3), abs=1e-7)

    def test_oscillation_raises(self):
        osc = lambda t: t * np.sin(np.log(abs(t) + 1e-300)) if t else 0.0
        with pytest.raises(c.NotOneSidedDifferentiableError):
            c.one_sided_derivatives(osc, 0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_overflowing_jump_raises(self):
        # every value is finite, but the right quotients overflow to inf
        # and their extrapolants are NaN; the Cauchy test must refuse them
        jump = lambda t: 1e308 if t > 0 else -1e308
        with pytest.raises(c.NotOneSidedDifferentiableError):
            c.one_sided_derivatives(jump, 0.0)

    def test_minimal_curve_set(self):
        s = c.minimal_curve_qdq(lambda t: abs(t), 0.0)
        assert np.allclose(np.sort(s.flat_generators().ravel()), [-1.0, 1.0],
                           atol=1e-10)
        assert s.convex_closure


class TestCurveCertificates:
    def test_absvalue_curve_accepted(self):
        data = c.CurveData.from_function(lambda t: abs(t), 0.0)
        cert = c.curve_qdq(data)
        rep = c.verify_certificate(abs_map, cert, [1e-1, 1e-2, 1e-3], 100,
                                   seed=1)
        assert rep.accepted

    def test_planar_corner_curve_accepted(self):
        data = c.CurveData.from_function(lambda t: np.array([t, abs(t)]), 0.0)
        cert = c.curve_qdq(data)
        F = lambda x: np.array([x[0], abs(x[0])])
        rep = c.verify_certificate(F, cert, [1e-1, 1e-2], 80, seed=2)
        assert rep.accepted

    def test_curve_data_is_frozen(self):
        data = c.CurveData.from_function(lambda t: abs(t), 0.0)
        assert isinstance(data.right_derivative, np.ndarray)
        with pytest.raises(FrozenInstanceError):
            data.right_derivative = np.array([2.0])

    def test_family_identity(self):
        data = c.CurveData.from_function(lambda t: abs(t), 0.0)
        L_fn, h_fn = c.curve_certificate(data, 0.1)
        for t in np.linspace(-0.1, 0.1, 101):
            v = (np.asarray(L_fn([t])) @ [t])[0] + h_fn([t])[0]
            assert v == pytest.approx(abs(t), abs=1e-14)


class TestCurveModulus:
    """The measured modulus of ``curve_qdq``, on the grid 2^-12 ... 2^-2
    with 1e-3, 1e-2 and 1e-1."""

    def setup_method(self):
        self.rho = c.curve_qdq(c.CurveData.from_function(abs, 0.0)).rho

    def test_linear_below_the_grid(self):
        lo = 2.0 ** -12
        assert self.rho(lo / 4.0) == pytest.approx(self.rho(lo) / 4.0)
        assert self.rho(0.0) == 0.0

    def test_interpolated_inside_the_grid(self):
        a, b = 0.01, 2.0 ** -6  # neighbours on the grid
        assert self.rho(0.5 * (a + b)) == pytest.approx(
            0.5 * (self.rho(a) + self.rho(b)))
        assert self.rho(a) < self.rho(b)
        vals = [self.rho(d) for d in np.geomspace(2.0 ** -12, 0.25, 200)]
        assert vals == sorted(vals) and vals[0] > 0.0

    def test_constant_above_the_grid(self):
        top = self.rho(0.25)
        assert self.rho(0.3) == top and self.rho(0.49) == top


class TestCurveFalsifier:
    def setup_method(self):
        self.data = c.CurveData.from_function(lambda t: abs(t), 0.0)

    def test_disconnected_generator_list(self):
        lam = OperatorSet.from_matrices([[[-1.0]], [[1.0]]])
        w = c.falsify_curve_qdq(self.data, lam)
        assert w is not None and w["kind"] == "disconnected"

    def test_hull_not_falsified(self):
        lam = OperatorSet.from_matrices([[[-1.0]], [[1.0]]],
                                        convex_closure=True)
        assert c.falsify_curve_qdq(self.data, lam) is None

    def test_missing_derivative(self):
        lam = OperatorSet.from_matrices([[[0.0]], [[1.0]]],
                                        convex_closure=True)
        w = c.falsify_curve_qdq(self.data, lam)
        assert w is not None and w["kind"] == "missing_derivative"
        assert w["side"] == "left"

    def test_components_numbered_by_first_generator(self):
        # components {-1, -0.995}, {0.3}, {1, 0.999}: the derivatives -1 and
        # 1 lie in the first and the third
        lam = OperatorSet.from_matrices(
            [[[-1.0]], [[-0.995]], [[0.3]], [[1.0]], [[0.999]]])
        w = c.falsify_curve_qdq(self.data, lam)
        assert w == {"kind": "disconnected", "gap": c.CURVE_GAP,
                     "components": [0, 2]}

    def test_dense_chain_not_flagged(self):
        mats = [[[s]] for s in np.linspace(-1.0, 1.0, 401)]
        lam = OperatorSet.from_matrices(mats)
        assert c.falsify_curve_qdq(self.data, lam) is None


class TestCombinators:
    def setup_method(self):
        self.a = c.absvalue_qdq()
        self.b = c.absvalue_qdq()

    def test_linear(self):
        lin = c.combine_certificates("linear", self.a, self.b,
                                     alpha=2.0, beta=-1.0)
        F = lambda x: np.array([abs(x[0])])
        rep = c.verify_certificate(F, lin, [1e-1, 1e-2], 100, seed=3)
        assert rep.accepted
        flats = np.sort(lin.lam.flat_generators().ravel())
        assert flats[0] == pytest.approx(-3.0)
        assert flats[-1] == pytest.approx(3.0)

    def test_set_product(self):
        sp = c.combine_certificates("set_product", self.a, self.b)
        F = lambda x: np.array([abs(x[0]), abs(x[0])])
        rep = c.verify_certificate(F, sp, [1e-1, 1e-2], 100, seed=4)
        assert rep.accepted
        assert sp.lam.shape == (2, 1)

    def test_scalar_product(self):
        pr = c.combine_certificates("scalar_product", self.a, self.b)
        F = lambda x: np.array([x[0] * x[0]])  # |x| * |x|
        rep = c.verify_certificate(F, pr, [1e-1, 1e-2], 100, seed=5)
        assert rep.accepted

    def test_base_point_mismatch(self):
        other = replace(c.absvalue_qdq(), x_bar=[1.0])
        with pytest.raises(ValueError):
            c.combine_certificates("linear", self.a, other)


def _stub_certificate(x_bar, y_bar, gens, hull):
    """A certificate that only carries an operator set; its family is never
    called by the calculus."""
    return c.QdqCertificate(
        x_bar=x_bar, y_bar=y_bar, gamma=GammaSet.full_space(len(x_bar)),
        lam=OperatorSet(gens, convex_closure=hull), delta_star=1.0,
        rho=lambda d: d, family=None)


class TestGeneratorOrder:
    """Each combinator's Lambda against a loop over the generator pairs, in
    the order the calculus has always used: F-major for the linear
    combination and the set product, G-major for the scalar product and
    the chain rule."""

    @staticmethod
    def pair_loop(op, outer, inner):
        return np.array([op(a, b) for a in outer.lam.generators
                         for b in inner.lam.generators])

    @pytest.mark.parametrize("hulls", [(False, False), (True, False),
                                       (False, True)])
    def test_linear_and_set_product(self, hulls):
        rng = np.random.default_rng(3)
        F = _stub_certificate([0.0, 0.0], [1.0, 2.0],
                              rng.normal(size=(3, 2, 2)), hulls[0])
        G = _stub_certificate([0.0, 0.0], [-1.0, 0.5],
                              rng.normal(size=(4, 2, 2)), hulls[1])
        lin = c.combine_certificates("linear", F, G, alpha=0.3, beta=-1.7)
        np.testing.assert_array_equal(
            lin.lam.generators,
            self.pair_loop(lambda f, g: 0.3 * f - 1.7 * g, F, G))
        sp = c.combine_certificates("set_product", F, G)
        np.testing.assert_array_equal(
            sp.lam.generators,
            self.pair_loop(lambda f, g: np.vstack([f, g]), F, G))
        assert lin.lam.convex_closure == sp.lam.convex_closure == any(hulls)

    def test_set_product_of_different_codomains(self):
        rng = np.random.default_rng(4)
        F = _stub_certificate([0.0, 0.0], [1.0], rng.normal(size=(2, 1, 2)),
                              False)
        G = _stub_certificate([0.0, 0.0], [0.0, 0.0, 0.0],
                              rng.normal(size=(3, 3, 2)), False)
        sp = c.combine_certificates("set_product", F, G)
        assert sp.lam.shape == (4, 2)
        np.testing.assert_array_equal(
            sp.lam.generators,
            self.pair_loop(lambda f, g: np.vstack([f, g]), F, G))

    def test_scalar_product(self):
        rng = np.random.default_rng(5)
        F = _stub_certificate([0.0, 0.0], [1.5], rng.normal(size=(3, 1, 2)),
                              True)
        G = _stub_certificate([0.0, 0.0], [-0.25],
                              rng.normal(size=(2, 1, 2)), True)
        pr = c.combine_certificates("scalar_product", F, G)
        np.testing.assert_array_equal(
            pr.lam.generators,
            self.pair_loop(lambda g, f: 1.5 * g - 0.25 * f, G, F))
        assert pr.lam.convex_closure

    def test_compose(self):
        rng = np.random.default_rng(6)
        F = _stub_certificate([0.0, 0.0], [0.0, 0.0, 0.0],
                              rng.normal(size=(3, 3, 2)), False)
        G = _stub_certificate([0.0, 0.0, 0.0], [0.0],
                              rng.normal(size=(2, 1, 3)), True)
        comp = c.compose_certificates(F, G)
        assert comp.lam.shape == (1, 2)
        np.testing.assert_array_equal(
            comp.lam.generators, self.pair_loop(np.matmul, G, F))
        assert comp.lam.convex_closure


class TestCompose:
    def test_double_map_after_absvalue(self):
        inner = c.absvalue_qdq()
        outer = c.QdqCertificate(
            x_bar=[0.0], y_bar=[0.0], gamma=GammaSet.full_space(1),
            lam=OperatorSet.from_matrices([[[2.0]]]), delta_star=1.0,
            rho=lambda d: 0.0,
            family=lambda d: (lambda x: LinearMap([[2.0]]),
                              lambda x: np.array([0.0])))
        comp = c.compose_certificates(inner, outer)
        flats = np.sort(comp.lam.flat_generators().ravel())
        assert np.allclose(flats, [-2.0, 2.0], atol=1e-10)
        G2 = lambda x: np.array([2.0 * abs(x[0])])
        rep = c.verify_certificate(G2, comp, [1e-2, 1e-3], 150, seed=6)
        assert rep.accepted

    def test_chaining_point_mismatch(self):
        inner = c.absvalue_qdq()
        outer = replace(c.absvalue_qdq(), x_bar=[5.0])
        with pytest.raises(ValueError):
            c.compose_certificates(inner, outer)


class TestSingletonCheck:
    def test_smooth_accepted(self):
        assert c.singleton_qdq_check(lambda x: np.array([x[0] ** 2]), [0.0],
                                     LinearMap([[0.0]]))

    def test_kink_rejected(self):
        assert not c.singleton_qdq_check(abs_map, [0.0], LinearMap([[0.0]]))

    def test_kink_away_from_base_accepted(self):
        assert c.singleton_qdq_check(abs_map, [1.0], LinearMap([[1.0]]))


class TestAbundantTransfer:
    def setup_method(self):
        self.F = abs_map
        self.theta = lambda eta: (lambda y: y + 0.5 * eta * np.cos(y))
        self.cert = c.absvalue_qdq()

    def test_transferred_certificate_accepted(self):
        t = c.abundant_transfer(self.F, self.cert, self.theta, seed=7)
        member = c.abundant_membership(self.F, t, self.theta,
                                       delta_grid=[1e-1, 1e-2, 1e-3])
        rep = c.verify_certificate(self.F, t, [1e-1, 1e-2, 1e-3], 100,
                                   seed=8, membership=member)
        assert rep.accepted

    def test_replaced_transfer_still_accepted(self):
        # the retraction schedule is a field, so a copy keeps it; without
        # it the oracle would take the doubled modulus's widths
        t = c.abundant_transfer(self.F, self.cert, self.theta, seed=7)
        t = replace(t, lam=t.lam)
        assert t.retraction_eta(0.01) == pytest.approx(0.01 * 0.01)
        member = c.abundant_membership(self.F, t, self.theta,
                                       delta_grid=[1e-1, 1e-2, 1e-3])
        rep = c.verify_certificate(self.F, t, [1e-1, 1e-2, 1e-3], 100,
                                   seed=8, membership=member)
        assert rep.accepted

    def test_modulus_doubled(self):
        t = c.abundant_transfer(self.F, self.cert, self.theta, seed=7)
        assert t.rho(0.01) == pytest.approx(2.0 * self.cert.rho(0.01))

    def test_bad_retraction_raises(self):
        bad = lambda eta: (lambda y: y + 2.0 * eta)
        with pytest.raises(c.AbundanceError):
            c.abundant_transfer(self.F, self.cert, bad, seed=7)

    def test_empty_audit_sample_refused(self):
        # with Gamma = [5, 6] no audit point lies within delta_star of 0,
        # so a retraction that misses by 10 would pass unaudited
        bad = lambda eta: (lambda y: y + 10.0)
        with pytest.raises(c.AbundanceError):
            c.abundant_transfer(self.F, self.cert, bad, seed=7)
        far = replace(self.cert, gamma=GammaSet.box([5.0], [6.0]))
        with pytest.raises(ValueError, match="audit sample is empty"):
            c.abundant_transfer(self.F, far, bad, seed=7)

    def test_nan_retraction_in_membership_raises(self):
        # a NaN image compares as no image at all: the oracle read every
        # point as a non-member and the verifier reported violations
        t = c.abundant_transfer(self.F, self.cert, self.theta, seed=7)
        member = c.abundant_membership(
            self.F, t, lambda eta: (lambda y: y * np.nan), delta_grid=[1e-1])
        with pytest.raises(core.NonFiniteValueError, match="retraction"):
            c.verify_certificate(self.F, t, [1e-1], 20, seed=8,
                                 membership=member)

    def test_nan_map_in_membership_raises(self):
        t = c.abundant_transfer(self.F, self.cert, self.theta, seed=7)
        member = c.abundant_membership(
            lambda x: np.array([np.nan]), t, self.theta, delta_grid=[1e-1])
        with pytest.raises(core.NonFiniteValueError, match="F returned"):
            member(np.array([0.05]), np.array([0.05]))

    def test_membership_of_an_untransferred_certificate_refused(self):
        # the oracle guessed the widths d * rho(d) of a certificate that
        # abundant_transfer did not make
        with pytest.raises(ValueError, match="retraction schedule"):
            c.abundant_membership(self.F, self.cert, self.theta)


class TestGammaIntersection:
    def test_full_with_anything(self):
        g = GammaSet.half_line([1.0, 0.0])
        out = c.gamma_intersection(GammaSet.full_space(2), g)
        assert out.kind == GammaSet.HALFLINE

    def test_cone_with_cone(self):
        quad = GammaSet.finite_cone([[1.0, 0.0], [0.0, 1.0]])
        half = GammaSet.finite_cone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        out = c.gamma_intersection(quad, half)
        assert out.kind == GammaSet.CONE
        assert core.in_conic_hull(out.generators, [1.0, 1.0], 1e-9)
        assert not core.in_conic_hull(out.generators, [-1.0, 0.0], 1e-9)

    def test_disjoint_halflines_rejected(self):
        g1 = GammaSet.half_line([1.0, 0.0])
        g2 = GammaSet.half_line([0.0, 1.0])
        with pytest.raises(ValueError):
            c.gamma_intersection(g1, g2)
