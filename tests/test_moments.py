"""Moment recursion: known closed forms, solver cross-checks, structure laws."""

import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from oracles import ode_residual_holds, solve_explicit_inverse, variance
from quad import integrate_density

from fparea.closed_forms import ModelParams, fpt_density, rho_exact
from fparea.laurent import Poly
from fparea.moments import (
    assemble_rhs,
    correlation_from_moments,
    joint_moment,
    solve_back_substitution,
)

# Closed forms established independently of the recursion (direct ODE
# solutions for the low indices, checked by hand).
KNOWN = {
    (0, 0): "1",
    (1, 0): "(1)*x^1*mu^-1",
    (2, 0): "(1)*x^2*mu^-2 + (1)*x^1*mu^-3",
    (0, 1): "(1/2)*x^2*mu^-1 + (1/2)*x^1*mu^-2",
    (0, 2): "(1/4)*x^4*mu^-2 + (5/6)*x^3*mu^-3 + (5/4)*x^2*mu^-4 + (5/4)*x^1*mu^-5",
    (1, 1): "(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3 + (1)*x^1*mu^-4",
    (2, 1): "(1/2)*x^4*mu^-3 + (2)*x^3*mu^-4 + (4)*x^2*mu^-5 + (4)*x^1*mu^-6",
}


def fill_table(max_m, max_n, oracle=False):
    """Moments over the rectangle, {index: Poly}, from joint_moment or the test oracle."""
    table = {(0, 0): Poly([1])}
    for i in range(max_m + 1):
        for j in range(max_n + 1):
            if (i, j) != (0, 0):
                table[i, j] = solve_explicit_inverse((i, j), table) if oracle else joint_moment(i, j)
    return table


class TestKnownClosedForms:
    @pytest.mark.parametrize("idx,text", sorted(KNOWN.items()))
    def test_both_solvers_reproduce(self, idx, text):
        assert joint_moment(*idx).to_text() == text
        assert fill_table(2, 2, oracle=True)[idx].to_text() == text

    def test_area_variance_polynomial(self):
        var = variance(joint_moment(0, 1), joint_moment(0, 2))
        assert var.to_text() == "(1/3)*x^3*mu^-3 + (1)*x^2*mu^-4 + (5/4)*x^1*mu^-5"

    def test_point_values(self):
        assert joint_moment(1, 1).evaluate(F(1), F(1)) == F(5, 2)
        assert joint_moment(1, 0).evaluate(F(3), F(2)) == F(3, 2)
        assert joint_moment(0, 1).evaluate(F(2), F(1)) == F(3)


class TestRightHandSide:
    # rho_j is the gamma^j coefficient of the right-hand side times j! 2^(D-1-j)
    def test_base_neighbors(self):
        assert assemble_rhs((1, 0)) == [-1]  # -1
        assert assemble_rhs((0, 1)) == [0, -1]  # -gamma

    def test_mixed_index(self):
        joint_moment(1, 1)
        rho = assemble_rhs((1, 1))
        assert rho == [0, -1, -3]  # -(3/2) gamma^2 - (1/2) gamma
        # V_{1,1} = (1/2) gamma^3 + gamma^2 + gamma at mu = 1, times k! 2^(3-k)
        assert solve_back_substitution(rho) == [0, 4, 4, 3]


class TestStructureLaws:
    def test_lattice_shape_residual_and_solver_agreement(self):
        bs = fill_table(5, 5)
        ei = fill_table(5, 5, oracle=True)
        for m in range(6):
            for n in range(6):
                if m + n == 0 or m + n > 5:
                    continue
                v = bs[m, n]
                assert v.degree == m + 2 * n
                assert v.weight == 2 * m + 3 * n
                assert v.coefficient(0) == 0
                assert v == ei[m, n]
                assert ode_residual_holds((m, n), v)

    def test_residual_detects_perturbation(self):
        v = joint_moment(1, 1)
        assert ode_residual_holds((1, 1), v)
        nums = list(v.nums)
        nums[2] += v.den  # v plus x^2*mu^-3, a term of the same weight 5
        assert not ode_residual_holds((1, 1), Poly(nums, v.weight, v.den))
        # x^1*mu^0 has weight 1, not the 2 of V_{1,0} = x/mu
        assert not ode_residual_holds((1, 0), Poly([0, 1], 1))

    def test_ode_residual_over_the_triangle(self):
        # rows m >= 1 come from the Girsanov row law, not from the ODE, so
        # the ODE is an independent check of every entry.  The residual
        # alone admits the homogeneous constant (a row step off by one in
        # W - k passes it), so the check asserts V(0) = 0 as well.
        for d in range(1, 33):
            for m in range(d + 1):
                v = joint_moment(m, d - m)
                assert ode_residual_holds((m, d - m), v), (m, d - m)

    def test_all_coefficients_positive(self):
        # the column has no negative coefficient and a row step multiplies
        # by W - k >= m + n; Poly.evaluate's early float-range error needs it
        for d in range(1, 33):
            for m in range(d + 1):
                v = joint_moment(m, d - m)
                assert v.nums[0] == 0 and all(c > 0 for c in v.nums[1:]), (m, d - m)

    def test_scaled_coefficients_are_integers(self):
        # the engine's integer lists q_k are c_k k! 2^(D-k), D = m+2n, of the
        # Fraction coefficients the oracle solves for
        oracle = {(0, 0): Poly([1])}
        for d in range(1, 25):
            for m in range(d + 1):
                n = d - m
                D = m + 2 * n
                oracle[m, n] = solve_explicit_inverse((m, n), oracle)
                p = oracle[m, n]
                scaled = [p.coefficient(k) * math.factorial(k) * 2 ** (D - k) for k in range(p.degree + 1)]
                joint_moment(m, n)
                assert solve_back_substitution(assemble_rhs((m, n))) == scaled, (m, n)

    def test_vanishes_at_origin_and_decays_in_mu(self):
        for idx in [(1, 0), (0, 1), (2, 2)]:
            assert joint_moment(*idx).evaluate(F(0), F(7)) == 0
        v11 = joint_moment(1, 1)
        values = [v11.evaluate(1.0, mu) for mu in (1.0, 1e1, 1e3, 1e6)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))


    def test_float_readout_past_float_powers(self):
        # at mu = 1e-10 the coefficient power mu**-35 overflows a double;
        # the moment does not, and the readout rounds the exact value once
        poly = joint_moment(7, 7)
        value = poly.evaluate(1e-100, 1e-10)
        assert value == float(poly.evaluate(F(1e-100), F(1e-10)))
        assert value == 1.3721863034879983e257
        # at mu = 1e200 the powers mu**-2 .. mu**-4 underflow to 0
        assert joint_moment(1, 1).evaluate(1e200, 1e200) == 5e199

    def test_float_readout_beyond_float_range(self):
        with pytest.raises(ValueError, match="exceeds the float range"):
            joint_moment(7, 7).evaluate(1, 1e-20)
        # the powers underflow and the value overflows
        with pytest.raises(ValueError, match="exceeds the float range"):
            joint_moment(2, 3).evaluate(1e120, 1e120)

    def test_float_range_bound_agrees_with_the_exact_route(self):
        # Both points take the exact fallback at the higher orders; at the
        # first, most of those values exceed the float range.  The log bound
        # on the largest term may raise early, but only where the exact value
        # overflows too, and with the same message.
        raised = {(1e200, 1e200): 0, (1e-100, 1e-10): 0}
        for x, mu in raised:
            message = f"the value at x={x:g}, mu={mu:g} exceeds the float range"
            for d in range(13):
                for m in range(d + 1):
                    poly = joint_moment(m, d - m)
                    try:
                        want = float(poly.evaluate(F(x), F(mu)))
                    except OverflowError:
                        want = None
                    try:
                        got = poly.evaluate(x, mu)
                    except ValueError as exc:
                        got = str(exc)
                    if want is None:
                        assert got == message, (m, d - m, x, mu)
                        raised[x, mu] += 1
                    else:
                        assert got == pytest.approx(want, rel=1e-12), (m, d - m, x, mu)
        assert raised == {(1e200, 1e200): 66, (1e-100, 1e-10): 0}

    def test_float_readout_rejects_nan(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="^x must be a number, got nan$"):
            joint_moment(2, 1).evaluate(nan, 1.0)
        with pytest.raises(ValueError, match="^mu must be positive, got nan$"):
            joint_moment(2, 1).evaluate(1.0, nan)


CORRELATION_DIGEST = "6af3be18d8e9b1acb690b9932de41f5c89a2063edcafe7098fae5b737494acb2"
EVALUATE_DIGEST = "82f0087767f02ed2693df2d1c21690eae54e5bc8b11e37e43b1ae2a8a97a0506"


class TestPinnedBytes:
    """Moment texts and float readouts, pinned bit for bit."""

    @pytest.mark.parametrize(
        "order,digest",
        [
            (20, "e7622c3c68e01a28a3450676c01714a93f6aa50aa0c1c991ff06b0b1ed488154"),
            # the order the benchmark's exact workload fills and renders
            (32, "85dfdff99a81e1713ec18f96bacf767bb0b16106c845033905b69dc9c1177f79"),
        ],
        ids=["d20", "d32"],
    )
    def test_triangle_text(self, order, digest):
        texts = [joint_moment(m, d - m).to_text() for d in range(order + 1) for m in range(d + 1)]
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest

    def test_float_readouts(self):
        # Horner in x over c_k * mu**(k - W); neither Horner in gamma times
        # mu**-W nor the exactly rounded value gives these bits
        assert joint_moment(3, 4).evaluate(0.7, 1.3).hex() == "0x1.2b4c8d126563bp+13"
        assert joint_moment(12, 9).evaluate(2.5, 0.4).hex() == "0x1.68e0a056ab24ep+168"

    def test_evaluate_bits(self):
        # every float readout of the m+n <= 32 triangle over a seeded point
        # set built from exact binary operations; (1, 1e6) takes the
        # underflow break, (1e-100, 1e-10) the exact fallback and, at the
        # higher orders, the float-range error; each error's message counts
        rng = random.Random(6015)

        def spread(lo, hi):
            return math.ldexp(1.0 + rng.random(), rng.randint(lo, hi))

        points = [(spread(-3, 2), spread(-3, 2)) for _ in range(8)]
        points += [(spread(-20, 19), spread(-20, 19)) for _ in range(4)]
        points += [(1.0, 1e6), (1e-100, 1e-10), (math.nan, 1.0), (1.0, 0.0), (math.inf, 1.0)]
        lines = []
        for d in range(33):
            for m in range(d + 1):
                poly = joint_moment(m, d - m)
                for x, mu in points:
                    try:
                        lines.append(poly.evaluate(x, mu).hex())
                    except ValueError as exc:
                        lines.append(str(exc))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EVALUATE_DIGEST

    def test_correlation_bits(self):
        # the correctly rounded square root of the correctly rounded exact
        # ratio cov^2 / (var_tau var_A), over a seeded grid built from exact
        # binary operations only, so the inputs are the same on every platform
        rng = random.Random(6005)
        points = [(rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)) for _ in range(3000)]
        # binary exponents uniform over -100..99, about 1e-30 .. 1e30
        def spread():
            return math.ldexp(1.0 + rng.random(), rng.randint(-100, 99))

        points += [(spread(), spread()) for _ in range(3000)]
        points += [(5e-324, 1.0), (1.0, 5e-324), (1e300, 1.0), (1.0, 1.0), (10.0, 0.5)]
        bits = "\n".join(correlation_from_moments(x, mu).hex() for x, mu in points)
        assert hashlib.sha256(bits.encode()).hexdigest() == CORRELATION_DIGEST
        # other exact numeric types read as the float they equal
        for x, mu, as_float in [
            (3, 2, (3.0, 2.0)),
            (F(3, 4), F(5, 8), (0.75, 0.625)),
            (np.float64(0.3), np.float64(1.7), (0.3, 1.7)),
            (np.int64(2), 1, (2.0, 1.0)),
        ]:
            assert correlation_from_moments(x, mu) == correlation_from_moments(*as_float)


class TestDriver:
    def test_memoization_is_idempotent(self):
        first = joint_moment(3, 2)
        assert joint_moment(3, 2) is first
        assert joint_moment(np.int64(3), np.int64(2)) is first

    def test_rejects_bad_arguments(self):
        for m, n in [(-1, 0), (1.5, 0)]:
            with pytest.raises(ValueError, match=rf"\({m}, {n}\)"):
                joint_moment(m, n)

    @pytest.mark.parametrize("order", ["reverse", "shuffled"])
    def test_fill_order_cannot_change_the_texts(self, order):
        # the moment caches are global, so only a fresh interpreter starts
        # from an empty table; correlations fill their own corner in between
        script = (
            "import hashlib, random, sys\n"
            "from fparea.moments import correlation_from_moments, joint_moment\n"
            "triangle = [(m, d - m) for d in range(21) for m in range(d + 1)]\n"
            "requests = triangle[::-1]\n"
            "if sys.argv[1] == 'shuffled':\n"
            "    random.Random(6016).shuffle(requests)\n"
            "for i, (m, n) in enumerate(requests):\n"
            "    joint_moment(m, n)\n"
            "    if i % 7 == 0:\n"
            "        correlation_from_moments(1.0 + i, 0.5)\n"
            "texts = [joint_moment(m, n).to_text() for m, n in triangle]\n"
            "print(hashlib.sha256('\\n'.join(texts).encode()).hexdigest())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script, order],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            "e7622c3c68e01a28a3450676c01714a93f6aa50aa0c1c991ff06b0b1ed488154"
        )

    def test_deep_requests_do_not_recurse(self):
        # a fresh interpreter with a small recursion limit: a request walks
        # along its row and up its column in loops, not in nested calls
        script = (
            "import sys\n"
            "from fparea.moments import joint_moment\n"
            "sys.setrecursionlimit(120)\n"
            "for m, n in [(400, 1), (0, 40)]:\n"
            "    v = joint_moment(m, n)\n"
            "    print(m, n, v.degree, v.weight)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["400 1 402 803", "0 40 80 120", ""]


class TestAgainstDensityQuadrature:
    def test_passage_time_moments_match(self):
        # independent route: integrate t^m against the passage-time density
        params = ModelParams(x=1.0, mu=1.0)
        for m in range(1, 5):
            exact = float(joint_moment(m, 0).evaluate(F(1), F(1)))
            quad = integrate_density(lambda t: t**m * fpt_density(params, t))
            np.testing.assert_allclose(quad.value, exact, rtol=1e-8)


class TestCorrelation:
    def test_matches_closed_form_on_grid(self):
        for x in (0.3, 1.0, 4.0):
            for mu in (0.2, 1.0, 7.5):
                got = correlation_from_moments(x, mu)
                want = rho_exact(mu * x)
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_specific_value(self):
        want = math.sqrt(147.0 / 175.0)
        np.testing.assert_allclose(correlation_from_moments(10.0, 0.5), want, rtol=1e-14)

    def test_numeric_types_give_the_same_bits(self):
        # 0.375 and 1.25 are exact in float32 too
        want = correlation_from_moments(0.375, 1.25).hex()
        for x, mu in [(F(3, 8), F(5, 4)), (np.float64(0.375), np.float64(1.25)),
                      (np.float32(0.375), np.float32(1.25))]:
            assert correlation_from_moments(x, mu).hex() == want

    def test_rejects_nonpositive_inputs(self):
        inf, nan = float("inf"), float("nan")
        for x, mu in [
            (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5),
            (inf, 1.0), (1.0, inf), (nan, 1.0), (1.0, nan),
        ]:
            with pytest.raises(ValueError):
                correlation_from_moments(x, mu)
