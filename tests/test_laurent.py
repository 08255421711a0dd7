"""The moment polynomial type: hand-computed readouts, canonical form, text."""

import math
from fractions import Fraction as F
from itertools import zip_longest

import numpy as np
import pytest

from oracles import solve_explicit_inverse

from fparea.laurent import Poly
from fparea.moments import joint_moment


def P(weight, *nums, den=1):
    # P(W, n0, n1, ..., den=d) -> mu^-W * (n0 + n1 (mu x) + ...) / d
    return Poly(nums, weight, den)


X_OVER_MU = P(2, 0, 1)  # x/mu
MEAN_AREA = P(3, 0, 1, 1, den=2)  # x^2/2mu + x/2mu^2
TAU_AREA = P(5, 0, 2, 2, 1, den=2)  # x^3/2mu^2 + x^2/mu^3 + x/mu^4
ZERO = Poly()


class TestHandExamples:
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
    nums = [int(rng.integers(-6, 7)) for _ in range(rng.integers(0, 6))]
    return Poly(nums, w, int(rng.integers(1, 13)))


class TestRingProperties:
    def test_cancellation_normalizes(self):
        # numerators and den scaled by one factor, or padded with zeros,
        # build the same Poly
        rng = np.random.default_rng(105)
        for _ in range(200):
            p = random_poly(rng)
            k = int(rng.integers(1, 30))
            q = Poly([k * c for c in p.nums] + [0] * int(rng.integers(0, 3)), p.weight, k * p.den)
            assert q == p

    def test_evaluate_is_additive(self):
        # the readout of the numerator-wise sum over the common denominator
        rng = np.random.default_rng(106)
        for _ in range(100):
            w = int(rng.integers(-3, 8))
            p, q = random_poly(rng, w), random_poly(rng, w)
            nums = [a * q.den + b * p.den for a, b in zip_longest(p.nums, q.nums, fillvalue=0)]
            total = Poly(nums, w, p.den * q.den)
            x, mu = F(3, 2), F(5, 7)
            assert total.evaluate(x, mu) == p.evaluate(x, mu) + q.evaluate(x, mu)
            xf, muf = 1.7, 0.9
            lhs = total.evaluate(xf, muf)
            rhs = p.evaluate(xf, muf) + q.evaluate(xf, muf)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    def test_exact_and_float_paths_agree(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            p = random_poly(rng)
            exact = p.evaluate(F(3, 2), F(5, 7))
            approx = p.evaluate(1.5, 5 / 7)
            assert math.isclose(float(exact), approx, rel_tol=1e-10, abs_tol=1e-10)


class TestIntegerForm:
    def test_homogenized_is_the_scaled_value(self):
        # s^D den P(p/s), with D the degree, taken as 0 for the zero polynomial
        rng = np.random.default_rng(110)
        for poly in [random_poly(rng) for _ in range(200)] + [Poly([1]), ZERO]:
            for p, s in ((3, 2), (-5, 7), (0, 1), (1, 9)):
                value = sum((poly.coefficient(k) * F(p, s) ** k for k in range(poly.degree + 1)), F(0))
                got = poly.homogenized(p, s)
                assert type(got) is int and got == s ** max(poly.degree, 0) * poly.den * value

    def test_zero_reads_zero_exactly(self):
        assert Poly([]).evaluate(F(3, 2), 2) == 0


class TestTextFormat:
    def test_known_renderings(self):
        assert ZERO.to_text() == "0"
        assert P(0, 1).to_text() == "1"
        assert P(0, -1).to_text() == "-1"
        assert P(0, 3, den=2).to_text() == "3/2"
        assert TAU_AREA.to_text() == "(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3 + (1)*x^1*mu^-4"
        # a constant of nonzero weight keeps the full term form
        assert P(1, 1).to_text() == "(1)*x^0*mu^-1"


class TestRepresentation:
    def test_fractions_and_integers_over_one_denominator_agree(self):
        p = Poly([3, 2], 1, den=6)
        assert (p.coefficient(0), p.coefficient(1)) == (F(1, 2), F(1, 3))
        assert Poly([2, 4, 0], 3, den=4) == P(3, 1, 2, den=2)
        # a Fraction or float numerator would be truncated, so it is refused
        for bad in ([F(1, 2)], [0.5], [1, F(1, 3)]):
            with pytest.raises(TypeError):
                Poly(bad)
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
            for k, c in enumerate(p.nums):
                assert type(p.coefficient(k)) is F and p.coefficient(k) == F(c, p.den)
            assert p.coefficient(-1) == p.coefficient(p.degree + 1) == 0
            assert not p.nums or p.nums[-1] != 0

    def test_zero_has_weight_zero(self):
        for zero in [Poly([0, 0], 5), Poly([], 3, den=7)]:
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
                want = sum((oracle.coefficient(k) * gamma**k for k in range(oracle.degree + 1)), F(0))
                want *= F(mu) ** -oracle.weight
                got = joint_moment(m, n).evaluate(x, mu)
                assert type(got) is F and got == want, (m, n, x, mu)
