"""Quadrature layer versus an independent exponential-integral oracle.

The tail integral behind the expected time average equals e^z E1(z) at
z = mu*x.  The oracle below evaluates that scaled exponential integral by
classical means (power series for z <= 1, modified Lentz continued
fraction beyond), sharing no code path with the quadrature of quad.py.
"""

import math

import numpy as np
import pytest

from oracles import exp1_scaled
from quad import QuadratureError, QuadResult, integrate_density, integrate_exp_tail

from fparea.closed_forms import ModelParams, fpa_density_zero_drift, fpt_density


class TestOracleSelfConsistency:
    def test_reference_values(self):
        # classical table values of E1
        np.testing.assert_allclose(
            exp1_scaled(1.0) / math.e, 0.21938393439552028, rtol=1e-13
        )
        np.testing.assert_allclose(
            exp1_scaled(0.5) / math.exp(0.5), 0.5597735947761608, rtol=1e-13
        )
        np.testing.assert_allclose(
            exp1_scaled(2.0) / math.exp(2.0), 0.04890051070806112, rtol=1e-13
        )

    def test_series_and_fraction_meet_at_the_seam(self):
        np.testing.assert_allclose(exp1_scaled(1.0), exp1_scaled(1.0 + 1e-12), rtol=1e-9)

    def test_asymptotic_regime(self):
        # e^z E1(z) = (1/z)(1 - 1/z + 2/z^2 - 6/z^3 + O(z^-4))
        z = 1e4
        expansion = (1.0 - 1.0 / z + 2.0 / z**2 - 6.0 / z**3) / z
        np.testing.assert_allclose(exp1_scaled(z), expansion, rtol=1e-13)


class TestExpTail:
    def test_matches_oracle_on_grid(self):
        for x in np.logspace(-1.0, 1.0, 5):
            for mu in np.logspace(-1.0, 2.0, 10):
                got = integrate_exp_tail(float(x), float(mu))
                want = exp1_scaled(float(mu * x))
                assert abs(got.value - want) <= got.abs_error_bound + 1e-13, (x, mu)
                assert abs(got.value - want) <= 1e-10, (x, mu)

    def test_respects_requested_tolerance(self):
        loose = integrate_exp_tail(1.0, 1.0, tol=1e-4)
        tight = integrate_exp_tail(1.0, 1.0, tol=1e-12)
        want = exp1_scaled(1.0)
        assert abs(loose.value - want) <= 1e-4
        assert abs(tight.value - want) <= 1e-12
        assert tight.abs_error_bound <= 1e-12

    def test_scaling_identity(self):
        # substituting u = s*x shows I(x, mu) = I(1, mu*x)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = float(rng.uniform(0.2, 5.0))
            mu = float(rng.uniform(0.2, 5.0))
            lhs = integrate_exp_tail(x, mu).value
            rhs = integrate_exp_tail(1.0, mu * x).value
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_decreasing_in_mu(self):
        vals = [integrate_exp_tail(1.0, mu).value for mu in (0.5, 1.0, 2.0, 8.0, 50.0)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_result_shape_and_determinism(self):
        r = integrate_exp_tail(1.0, 1.0)
        assert isinstance(r, QuadResult)
        assert r.evaluations > 0
        assert r == integrate_exp_tail(1.0, 1.0)

    def test_validation(self):
        for x, mu in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)]:
            with pytest.raises(ValueError):
                integrate_exp_tail(x, mu)
        with pytest.raises(ValueError):
            integrate_exp_tail(1.0, 1.0, tol=0.0)


class TestDensityIntegrals:
    def test_passage_time_normalization_and_mean(self):
        p = ModelParams(x=2.0, mu=0.5)
        norm = integrate_density(lambda t: fpt_density(p, t))
        mean = integrate_density(lambda t: t * fpt_density(p, t))
        assert abs(norm.value - 1.0) <= max(norm.abs_error_bound, 1e-12)
        assert abs(mean.value - 4.0) <= max(mean.abs_error_bound, 1e-10)
        np.testing.assert_allclose(norm.value, 1.0, atol=1e-8)
        np.testing.assert_allclose(mean.value, 4.0, rtol=1e-8)

    def test_heavy_tail_normalization_with_hint(self):
        norm = integrate_density(
            lambda a: fpa_density_zero_drift(1.0, a), tail_exponent_hint=4.0 / 3.0
        )
        assert abs(norm.value - 1.0) <= max(norm.abs_error_bound, 1e-10)
        np.testing.assert_allclose(norm.value, 1.0, atol=1e-6)

    def test_failure_carries_partial_result(self):
        with pytest.raises(QuadratureError) as exc:
            integrate_density(lambda t: (1.0 + math.sin(1e5 * t)) * math.exp(-t))
        assert isinstance(exc.value.partial, QuadResult)
        assert exc.value.partial.abs_error_bound > 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_density(math.exp, tol=-1.0)
        with pytest.raises(ValueError):
            integrate_density(math.exp, tail_exponent_hint=1.0)
