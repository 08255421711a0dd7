"""Exact algebra layer: hand-computed examples, ring axioms, text round-trip."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import solve_explicit_inverse

from fparea.laurent import Poly, parse_polynomial
from fparea.moments import joint_moment


def P(weight, *coeffs):
    # P(W, c0, c1, ...) -> mu^-W * (c0 + c1 (mu x) + ...)
    return Poly(coeffs, weight)


X_OVER_MU = P(2, 0, 1)  # x/mu
MEAN_AREA = P(3, 0, F(1, 2), F(1, 2))  # x^2/2mu + x/2mu^2
TAU_AREA = P(5, 0, 1, 1, F(1, 2))  # x^3/2mu^2 + x^2/mu^3 + x/mu^4
ZERO = Poly()


class TestHandExamples:
    def test_add_identity_and_doubling(self):
        assert ZERO + ZERO == ZERO
        assert X_OVER_MU + ZERO == X_OVER_MU == ZERO + X_OVER_MU
        assert X_OVER_MU + X_OVER_MU == P(2, 0, 2)

    def test_add_cancels_coefficientwise(self):
        q = P(3, 0, F(-1, 2))
        assert MEAN_AREA + q == P(3, 0, 0, F(1, 2))
        assert MEAN_AREA - MEAN_AREA == ZERO

    def test_add_rejects_unequal_weights(self):
        # x/mu (weight 2) plus the constant 1 (weight 0) is not mu^-W P(mu x)
        for p, q in [(X_OVER_MU, P(0, 1)), (X_OVER_MU, MEAN_AREA), (TAU_AREA, X_OVER_MU)]:
            with pytest.raises(ValueError, match="weight"):
                p + q
            with pytest.raises(ValueError, match="weight"):
                p - q

    def test_scale(self):
        assert P(0, -2) * X_OVER_MU == P(2, 0, -2)
        assert X_OVER_MU * P(2, F(1, 2)) == P(4, 0, F(1, 2))  # x/mu * 1/(2 mu^2)
        assert X_OVER_MU * X_OVER_MU == P(4, 0, 0, 1)
        assert ZERO * P(2, F(1, 2)) == ZERO

    def test_mul_by_x(self):
        x = P(1, 0, 1)
        assert x * X_OVER_MU == P(3, 0, 0, 1)
        assert x * MEAN_AREA == P(4, 0, 0, F(1, 2), F(1, 2))
        assert x * ZERO == ZERO

    def test_differentiate(self):
        assert X_OVER_MU.differentiate() == P(1, 1)
        assert TAU_AREA.differentiate() == P(4, 1, 2, F(3, 2))
        assert ZERO.differentiate() == ZERO

    def test_evaluate(self):
        assert X_OVER_MU.evaluate(1.0, 2.0) == 0.5
        assert MEAN_AREA.evaluate(1.0, 1.0) == 1.0
        assert TAU_AREA.evaluate(0.0, 3.0) == 0.0
        assert MEAN_AREA.evaluate(F(1), F(1)) == F(1)
        assert TAU_AREA.evaluate(F(2), F(1, 2)) == 16 + 32 + 32

    def test_evaluate_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            X_OVER_MU.evaluate(1.0, 0.0)
        with pytest.raises(ValueError):
            X_OVER_MU.evaluate(1.0, -2.0)
        with pytest.raises(ValueError):
            X_OVER_MU.evaluate(F(1), F(-1, 2))

    def test_evaluate_rejects_infinite_inputs(self):
        for x, mu in ((1.0, math.inf), (math.inf, 1.0), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                TAU_AREA.evaluate(x, mu)


def random_poly(rng, weight=None) -> Poly:
    """Random homogeneous polynomial; random weight unless one is given."""
    w = int(rng.integers(-3, 8)) if weight is None else weight
    coeffs = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(rng.integers(0, 6))]
    return Poly(coeffs, w)


def same_weight(rng, count):
    w = int(rng.integers(-3, 8))
    return [random_poly(rng, w) for _ in range(count)]


class TestRingProperties:
    def test_add_commutes_and_associates(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            p, q, r = same_weight(rng, 3)
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)

    def test_scale_distributes(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            p, q = same_weight(rng, 2)
            c = P(int(rng.integers(-3, 8)), F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
            assert (p + q) * c == p * c + q * c

    def test_mul_commutes_and_distributes(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            p = random_poly(rng)
            q, r = same_weight(rng, 2)
            s = random_poly(rng)
            assert p * q == q * p
            assert (p * q) * s == p * (q * s)
            assert p * (q + r) == p * q + p * r

    def test_product_rule_through_mul_by_x(self):
        # d/dx (x p) = p + x p'
        x = P(1, 0, 1)
        rng = np.random.default_rng(104)
        for _ in range(200):
            p = random_poly(rng)
            assert (x * p).differentiate() == p + x * p.differentiate()

    def test_cancellation_normalizes(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            p, q = same_weight(rng, 2)
            assert p - p == ZERO
            assert (p + q) - q == p
            s = p + q
            assert all(type(c) is F for c in s.coeffs)
            if s.coeffs:
                assert s.coeffs[-1] != 0
            else:
                assert s.weight == 0

    def test_evaluate_is_additive(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            p, q = same_weight(rng, 2)
            x, mu = F(3, 2), F(5, 7)
            assert (p + q).evaluate(x, mu) == p.evaluate(x, mu) + q.evaluate(x, mu)
            xf, muf = 1.7, 0.9
            lhs = (p + q).evaluate(xf, muf)
            rhs = p.evaluate(xf, muf) + q.evaluate(xf, muf)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    def test_exact_and_float_paths_agree(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            p = random_poly(rng)
            exact = p.evaluate(F(3, 2), F(5, 7))
            approx = p.evaluate(1.5, 5 / 7)
            assert math.isclose(float(exact), approx, rel_tol=1e-10, abs_tol=1e-10)


class TestTextFormat:
    def test_known_renderings(self):
        assert ZERO.to_text() == "0"
        assert P(0, 1).to_text() == "1"
        assert P(0, -1).to_text() == "-1"
        assert P(0, F(3, 2)).to_text() == "3/2"
        assert TAU_AREA.to_text() == "(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3 + (1)*x^1*mu^-4"
        # a constant of nonzero weight keeps the full term form
        assert P(1, 1).to_text() == "(1)*x^0*mu^-1"

    def test_parse_rejects_terms_of_unequal_weight(self):
        for bad in [
            "(1)*x^2*mu^-1 + (1)*x^1*mu^-1",
            "(-3/2)*x^1*mu^-1 + (-1/2)*x^1*mu^-2",
            "(1)*x^1*mu^-1 + (1)*x^0*mu^0",
        ]:
            with pytest.raises(ValueError, match="unequal weight"):
                parse_polynomial(bad)

    def test_parse_known(self):
        assert parse_polynomial("0") == ZERO
        assert parse_polynomial("1") == P(0, 1)
        assert parse_polynomial("-5/3") == P(0, F(-5, 3))
        text = "(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3 + (1)*x^1*mu^-4"
        assert parse_polynomial(text) == TAU_AREA

    def test_parse_rejects_garbage(self):
        for bad in ["", "x^2", "(1)*x^2", "(1/2)*x^-1*mu^0", "1 + x"]:
            with pytest.raises(ValueError):
                parse_polynomial(bad)

    def test_round_trip_random(self):
        rng = np.random.default_rng(108)
        for _ in range(300):
            p = random_poly(rng)
            assert parse_polynomial(p.to_text()) == p


class TestRepresentation:
    def test_fractions_and_integers_over_one_denominator_agree(self):
        assert Poly([F(1, 2), F(1, 3)], 1) == Poly([3, 2], 1, den=6)
        assert Poly([3, 2], 1, den=6).coeffs == (F(1, 2), F(1, 3))
        assert Poly([2, 4, 0], 3, den=4) == P(3, F(1, 2), 1)
        for den in (0, -4):
            with pytest.raises(ValueError, match="denominator must be positive"):
                Poly([1], den=den)

    def test_stored_form_is_canonical(self):
        rng = np.random.default_rng(109)
        polys = [random_poly(rng) for _ in range(300)]
        polys += [joint_moment(m, d - m) for d in range(13) for m in range(d + 1)]
        for p in polys:
            assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
            assert all(type(c) is int for c in p.nums)
            assert all(type(c) is F and c == F(n, p.den) for c, n in zip(p.coeffs, p.nums))
            assert p.coeffs == tuple(p.coefficient(k) for k in range(p.degree + 1))
            assert not p.nums or p.nums[-1] != 0

    def test_zero_has_weight_zero(self):
        for zero in [Poly([0, 0], 5), Poly([], 3, den=7), P(4, 0, F(1, 2)) - P(4, 0, F(1, 2))]:
            assert zero == ZERO
            assert (zero.nums, zero.den, zero.weight, zero.degree) == ((), 1, 0, -1)

    def test_exact_readout_is_the_rational_value(self):
        # the Fraction Horner over the oracle's coefficients, on the d <= 8 triangle
        table = {(0, 0): Poly([1])}
        points = [(F(0), F(7)), (F(1), F(1)), (F(3, 2), F(5, 7)), (F(-2, 9), F(11, 4)), (4, 3)]
        for d in range(1, 9):
            for m in range(d + 1):
                table[m, d - m] = solve_explicit_inverse((m, d - m), table)
        for (m, n), oracle in table.items():
            for x, mu in points:
                gamma = F(x) * F(mu)
                want = sum((c * gamma**k for k, c in enumerate(oracle.coeffs)), F(0))
                want *= F(mu) ** -oracle.weight
                got = joint_moment(m, n).evaluate(x, mu)
                assert type(got) is F and got == want, (m, n, x, mu)
