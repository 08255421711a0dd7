"""Moment recursion: known closed forms, solver cross-checks, structure laws."""

import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import solve_explicit_inverse

from fparea.closed_forms import ModelParams, fpt_density, rho_exact
from fparea.laurent import Poly, parse_polynomial
from fparea.moments import (
    MissingMomentError,
    MomentTable,
    assemble_rhs,
    correlation_from_moments,
    joint_moment,
    solve_back_substitution,
    verify_ode_residual,
)
from fparea.quad import integrate_density

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
    """Fresh table filled through the public pieces, or the test oracle."""
    table = MomentTable()
    for i in range(max_m + 1):
        for j in range(max_n + 1):
            if (i, j) == (0, 0):
                continue
            if oracle:
                poly = solve_explicit_inverse((i, j), table)
            else:
                poly = solve_back_substitution(assemble_rhs((i, j), table), (i, j))
            table.store((i, j), poly)
    return table


class TestKnownClosedForms:
    @pytest.mark.parametrize("idx,text", sorted(KNOWN.items()))
    def test_both_solvers_reproduce(self, idx, text):
        expected = parse_polynomial(text)
        assert joint_moment(*idx) == expected
        assert fill_table(2, 2, oracle=True).require(idx) == expected

    def test_area_variance_polynomial(self):
        v01 = joint_moment(0, 1)
        var = joint_moment(0, 2) - v01 * v01
        assert var == parse_polynomial(
            "(1/3)*x^3*mu^-3 + (1)*x^2*mu^-4 + (5/4)*x^1*mu^-5"
        )

    def test_point_values(self):
        assert joint_moment(1, 1).evaluate(F(1), F(1)) == F(5, 2)
        assert joint_moment(1, 0).evaluate(F(3), F(2)) == F(3, 2)
        assert joint_moment(0, 1).evaluate(F(2), F(1)) == F(3)


class TestRightHandSide:
    def test_base_neighbors(self):
        table = MomentTable()
        assert assemble_rhs((1, 0), table) == Poly([-1])
        assert assemble_rhs((0, 1), table) == parse_polynomial("(-1)*x^1*mu^0")

    def test_mixed_index(self):
        table = fill_table(1, 1)
        rhs = assemble_rhs((1, 1), table)
        assert rhs == parse_polynomial("(-3/2)*x^2*mu^-1 + (-1/2)*x^1*mu^-2")

    def test_missing_dependency_raises(self):
        with pytest.raises(MissingMomentError):
            assemble_rhs((2, 0), MomentTable())
        with pytest.raises(ValueError):
            assemble_rhs((0, 0), MomentTable())
        with pytest.raises(ValueError):
            assemble_rhs((-1, 2), MomentTable())


class TestStructureLaws:
    def test_lattice_shape_residual_and_solver_agreement(self):
        bs = fill_table(5, 5)
        ei = fill_table(5, 5, oracle=True)
        for m in range(6):
            for n in range(6):
                if m + n == 0 or m + n > 5:
                    continue
                v = bs.require((m, n))
                assert v.degree == m + 2 * n
                assert v.weight == 2 * m + 3 * n
                assert v.coefficient(0) == 0
                assert v == ei.require((m, n))
                assert verify_ode_residual((m, n), bs)

    def test_residual_detects_perturbation(self):
        table = fill_table(1, 1)
        v = table.require((1, 1))
        bad = v + parse_polynomial("(1)*x^2*mu^-3")
        table.store((1, 1), bad)
        assert not verify_ode_residual((1, 1), table)

    def test_store_rejects_malformed(self):
        table = MomentTable()
        with pytest.raises(ValueError):
            table.store((1, 0), Poly([3]))  # wrong degree
        with pytest.raises(ValueError):
            # right degree and weight, nonzero constant
            table.store((1, 0), parse_polynomial("(1)*x^1*mu^-1 + (1)*x^0*mu^-2"))
        assert (1, 0) not in table

    def test_store_rejects_wrong_weight(self):
        table = MomentTable()
        # right degree, no constant, but x^1*mu^0 has weight 1, not 2
        with pytest.raises(ValueError):
            table.store((1, 0), parse_polynomial("(1)*x^1*mu^0"))
        with pytest.raises(ValueError):
            table.store((0, 1), Poly([0, F(1, 2), F(1, 2)], weight=2))
        table.store((0, 1), Poly([0, F(1, 2), F(1, 2)], weight=3))
        assert table.require((0, 1)) == joint_moment(0, 1)

    def test_all_coefficients_positive(self):
        # observed throughout the accessible lattice; regression-guarded here
        table = fill_table(6, 6)
        for (m, n), v in table.entries.items():
            if m + n > 6:
                continue
            for k in range(1, v.degree + 1):
                assert v.coefficient(k) > 0, (m, n, k)

    def test_scaled_coefficients_are_integers(self):
        # P_{m,n} = sum_k q_k gamma^k / (k! 2^(D-k)), D = m+2n, with integers
        # q_k: (1/2) P'' - P' = rhs reads q_{j+2} - q_{j+1} = rho_j, where
        # rho_j = -m q_{m-1,n}[j] - n j q_{m,n-1}[j-1], so going down from
        # q_{D+1} = 0, q_k = q_{k+1} - rho_{k-1}, and q_0 = 0; no step divides
        q = {(0, 0): [1]}
        for d in range(1, 25):
            for m in range(d + 1):
                n = d - m
                D = m + 2 * n
                rho = [0] * D
                for j, c in enumerate(q.get((m - 1, n), [])):
                    rho[j] -= m * c
                for j, c in enumerate(q.get((m, n - 1), []), start=1):
                    rho[j] -= n * j * c
                qk = [0] * (D + 2)
                for k in range(D, 0, -1):
                    qk[k] = qk[k + 1] - rho[k - 1]
                q[m, n] = qk[: D + 1]
                scaled = [c * math.factorial(k) * 2 ** (D - k) for k, c in enumerate(joint_moment(m, n).coeffs)]
                assert scaled == q[m, n], (m, n)

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

    def test_float_readout_rejects_nan(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="^x must be a number, got nan$"):
            joint_moment(2, 1).evaluate(nan, 1.0)
        with pytest.raises(ValueError, match="^mu must be positive, got nan$"):
            joint_moment(2, 1).evaluate(1.0, nan)


class TestPinnedBytes:
    """Moment texts and float readouts, pinned bit for bit."""

    def test_triangle_text(self):
        texts = [joint_moment(m, d - m).to_text() for d in range(21) for m in range(d + 1)]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "e7622c3c68e01a28a3450676c01714a93f6aa50aa0c1c991ff06b0b1ed488154"

    def test_float_readouts(self):
        # Horner in x over c_k * mu**(k - W); neither Horner in gamma times
        # mu**-W nor the exactly rounded value gives these bits
        assert joint_moment(3, 4).evaluate(0.7, 1.3).hex() == "0x1.2b4c8d126563bp+13"
        assert joint_moment(12, 9).evaluate(2.5, 0.4).hex() == "0x1.68e0a056ab24ep+168"


class TestDriver:
    def test_memoization_is_idempotent(self):
        first = joint_moment(3, 2)
        assert joint_moment(3, 2) is first

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            joint_moment(-1, 0)


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

    def test_rejects_nonpositive_inputs(self):
        for x, mu in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5)]:
            with pytest.raises(ValueError):
                correlation_from_moments(x, mu)
