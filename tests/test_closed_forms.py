"""Closed-form layer: exact point values, shape laws, internal consistency."""

import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import exp1

from oracles import mean_fpa, mean_tau_a, second_moment_fpa, var_fpa
from quad import integrate_exp_tail

from fparea.closed_forms import (
    RHO_LIMIT_LARGE_DRIFT,
    RHO_LIMIT_ZERO_DRIFT,
    RHO_MAX,
    ModelParams,
    expected_time_average,
    fpa_density_zero_drift,
    fpt_density,
    fpt_laplace,
    rho_exact,
    w_joint,
)
from fparea.moments import joint_moment


class TestModelParams:
    def test_validation(self):
        ModelParams(x=1.0, mu=0.0)  # zero drift admitted
        with pytest.raises(ValueError):
            ModelParams(x=0.0, mu=1.0)
        with pytest.raises(ValueError):
            ModelParams(x=-1.0, mu=1.0)
        with pytest.raises(ValueError):
            ModelParams(x=1.0, mu=-0.1)
        with pytest.raises(ValueError):
            ModelParams(x=math.nan, mu=1.0)

    def test_frozen(self):
        p = ModelParams(x=1.0, mu=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 2.0


P11 = ModelParams(x=1.0, mu=1.0)


@pytest.mark.parametrize(
    "fn, args",
    [
        (fpt_laplace, (P11, math.nan)),
        (fpt_density, (P11, math.nan)),
        (fpt_density, (P11, math.inf)),
        (fpa_density_zero_drift, (math.nan, 1.0)),
        (fpa_density_zero_drift, (1.0, math.nan)),
        (w_joint, (P11, math.nan)),
        (rho_exact, (math.nan,)),
    ],
    ids=["laplace-nan", "density-nan", "density-inf", "fpa0-x-nan", "fpa0-a-nan", "w-nan", "rho-nan"],
)
def test_rejects_nan_argument(fn, args):
    # NaN fails every comparison, so each guard is written to fail on it;
    # fpt_density at t = inf would also come out NaN
    with pytest.raises(ValueError):
        fn(*args)


class TestPassageTimeLaw:
    def test_laplace_point_values(self):
        p = ModelParams(x=1.0, mu=1.0)
        assert fpt_laplace(p, 0.0) == 1.0
        assert fpt_laplace(p, math.inf) == 0.0
        np.testing.assert_allclose(fpt_laplace(p, 1.5), math.exp(-1.0), rtol=1e-15)

    def test_laplace_slope_at_zero_is_mean(self):
        # -d/dlam E[exp(-lam tau)] at 0 equals E[tau] = x/mu
        for x, mu in [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0)]:
            p = ModelParams(x=x, mu=mu)
            h = 1e-7
            slope = (1.0 - fpt_laplace(p, h)) / h
            np.testing.assert_allclose(slope, x / mu, rtol=1e-5)

    def test_laplace_decreasing_and_log_convex(self):
        p = ModelParams(x=1.5, mu=0.7)
        lams = np.linspace(0.0, 8.0, 33)
        vals = np.array([fpt_laplace(p, lam) for lam in lams])
        assert np.all(np.diff(vals) < 0)
        logs = np.log(vals)
        assert np.all(np.diff(logs, 2) > 0)

    def test_laplace_rejects_negative(self):
        with pytest.raises(ValueError):
            fpt_laplace(ModelParams(x=1.0, mu=1.0), -1e-9)

    def test_density_point_value(self):
        p = ModelParams(x=1.0, mu=1.0)
        np.testing.assert_allclose(
            fpt_density(p, 1.0), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-15
        )

    def test_density_positive_and_rejects_bad_t(self):
        p = ModelParams(x=2.0, mu=0.5)
        assert fpt_density(p, 0.01) > 0
        assert fpt_density(p, 100.0) > 0
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
                fpt_density(p, t)


class TestZeroDriftAreaDensity:
    def test_cube_scaling_law(self):
        # A(x) equals x^3 A(1) in law, so f(x, a) = x^-3 f(1, a/x^3)
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = float(rng.uniform(0.3, 3.0))
            a = float(rng.uniform(0.05, 20.0))
            lhs = fpa_density_zero_drift(x, a)
            rhs = fpa_density_zero_drift(1.0, a / x**3) / x**3
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_power_law_tail(self):
        # deep in the tail the exponential factor is flat: f ~ C a^(-4/3)
        ratio = fpa_density_zero_drift(1.0, 4e6) / fpa_density_zero_drift(1.0, 1e6)
        np.testing.assert_allclose(ratio, 4.0 ** (-4.0 / 3.0), rtol=1e-6)

    def test_rejects_nonpositive(self):
        for x, a in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)]:
            with pytest.raises(ValueError):
                fpa_density_zero_drift(x, a)


class TestAreaMoments:
    def test_point_values(self):
        p = ModelParams(x=1.0, mu=1.0)
        assert mean_fpa(p) == 1.0
        np.testing.assert_allclose(second_moment_fpa(p), 1.0 / 4 + 5.0 / 6 + 5.0 / 4 + 5.0 / 4, rtol=1e-15)
        np.testing.assert_allclose(var_fpa(p), 31.0 / 12.0, rtol=1e-15)
        np.testing.assert_allclose(mean_tau_a(p), 2.5, rtol=1e-15)

    def test_variance_consistent_with_moments(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = ModelParams(x=float(rng.uniform(0.5, 3.0)), mu=float(rng.uniform(0.5, 3.0)))
            direct = var_fpa(p)
            assembled = second_moment_fpa(p) - mean_fpa(p) ** 2
            np.testing.assert_allclose(assembled, direct, rtol=1e-10)

    def test_oracles_are_engine_readouts(self):
        # V_{0,1}, V_{0,2}, V_{0,2} - V_{0,1}^2 and V_{1,1}, read out exactly
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, mu = F(float(rng.uniform(0.2, 5.0))), F(float(rng.uniform(0.2, 5.0)))
            p = ModelParams(x=float(x), mu=float(mu))
            v01, v02, v11 = (joint_moment(m, n).evaluate(x, mu) for m, n in ((0, 1), (0, 2), (1, 1)))
            np.testing.assert_allclose(mean_fpa(p), float(v01), rtol=1e-14)
            np.testing.assert_allclose(second_moment_fpa(p), float(v02), rtol=1e-14)
            np.testing.assert_allclose(var_fpa(p), float(v02 - v01 * v01), rtol=1e-14)
            np.testing.assert_allclose(mean_tau_a(p), float(v11), rtol=1e-14)

    def test_require_positive_drift(self):
        p = ModelParams(x=1.0, mu=0.0)
        for fn in (mean_fpa, second_moment_fpa, var_fpa, mean_tau_a):
            with pytest.raises(ValueError):
                fn(p)


class TestCorrelation:
    def test_specific_gamma(self):
        np.testing.assert_allclose(rho_exact(5.0), math.sqrt(147.0 / 175.0), rtol=1e-15)

    def test_limits(self):
        np.testing.assert_allclose(rho_exact(1e-9), RHO_LIMIT_ZERO_DRIFT, atol=1e-9)
        np.testing.assert_allclose(rho_exact(1e9), RHO_LIMIT_LARGE_DRIFT, atol=1e-8)
        # 4 gamma^2 overflows a double from about 6.7e153 on
        for g in (7e153, 1e160, math.inf):
            assert rho_exact(g) == RHO_LIMIT_LARGE_DRIFT

    def test_unimodal_with_peak_at_three_halves(self):
        rising = np.array([rho_exact(g) for g in np.linspace(1e-4, 1.4999, 120)])
        falling = np.array([rho_exact(g) for g in np.logspace(math.log10(1.5001), 4, 120)])
        assert np.all(np.diff(rising) > 0)
        assert np.all(np.diff(falling) < 0)
        np.testing.assert_allclose(rho_exact(1.5), RHO_MAX, rtol=1e-15)

    def test_global_bounds(self):
        vals = np.array([rho_exact(g) for g in np.logspace(-6, 6, 400)])
        assert np.all(vals > RHO_LIMIT_LARGE_DRIFT)
        assert np.all(vals <= RHO_MAX)

    def test_crosses_zero_drift_limit_at_twelve(self):
        # rho^2 - 4/5 changes sign with -gamma*(gamma - 12)
        assert rho_exact(12.0) == RHO_LIMIT_ZERO_DRIFT
        assert rho_exact(11.9) > RHO_LIMIT_ZERO_DRIFT
        assert rho_exact(12.1) < RHO_LIMIT_ZERO_DRIFT

    def test_rejects_nonpositive(self):
        for g in (0.0, -1.0):
            with pytest.raises(ValueError):
                rho_exact(g)


class TestDiscountedArea:
    def test_zero_discount_is_mean_area_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = ModelParams(x=float(rng.uniform(0.1, 5.0)), mu=float(rng.uniform(0.1, 5.0)))
            assert w_joint(p, 0.0) == mean_fpa(p)

    def test_point_value(self):
        got = w_joint(ModelParams(x=1.0, mu=1.0), 1.5)
        assert got == 0.375 * math.exp(-1.0)
        assert w_joint(ModelParams(x=1.0, mu=1.0), math.inf) == 0.0

    def test_decreasing_in_discount(self):
        p = ModelParams(x=2.0, mu=0.8)
        lams = np.linspace(0.0, 5.0, 41)
        vals = [w_joint(p, lam) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            w_joint(ModelParams(x=1.0, mu=1.0), -0.1)
        with pytest.raises(ValueError):
            w_joint(ModelParams(x=1.0, mu=0.0), 1.0)


class TestExpectedTimeAverage:
    def test_large_drift_value(self):
        got = expected_time_average(ModelParams(x=1.0, mu=100.0))
        np.testing.assert_allclose(got, 0.50495, atol=1e-4)

    def test_floor_and_monotonicity(self):
        for x in (0.5, 1.0, 2.0):
            vals = [expected_time_average(ModelParams(x=x, mu=mu)) for mu in (0.5, 1.0, 4.0, 20.0)]
            assert all(v > 0.5 * x for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_approaches_floor(self):
        got = expected_time_average(ModelParams(x=1.0, mu=1e6))
        assert 0.5 < got < 0.5 + 1e-5

    def test_requires_drift(self):
        with pytest.raises(ValueError):
            expected_time_average(ModelParams(x=1.0, mu=0.0))
        with pytest.raises(ValueError):  # mu*x underflows to zero
            expected_time_average(ModelParams(x=1e-200, mu=1e-200))

    def test_matches_scipy_exp1_and_quadrature(self):
        # Both references are independent of the shipped series and
        # continued fraction, which tests/oracles.py shares.  gamma = 1e-10
        # is the tiny-drift edge; scipy is used only while e^gamma is finite.
        cases = [(x, float(g) / x) for g in np.logspace(-8.0, 6.0, 57) for x in (0.5, 2.0)]
        cases.append((1.0, 1e-10))
        for x, mu in cases:
            got = expected_time_average(ModelParams(x=x, mu=mu))
            quad = integrate_exp_tail(x, mu)
            assert abs(got - 0.5 * x * (1.0 + quad.value)) <= 0.5 * x * (quad.abs_error_bound + 1e-13), (x, mu)
            gamma = mu * x
            if gamma < 700.0:
                want = 0.5 * x * (1.0 + math.exp(gamma) * float(exp1(gamma)))
                np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=f"x={x}, mu={mu}")
