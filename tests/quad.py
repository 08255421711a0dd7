"""Deterministic quadrature, a test reference for the closed forms.

Two integrals are handled here: the drift tail integral
int_0^inf exp(-s*x)/(s+mu) ds, which `closed_forms.expected_time_average`
evaluates in closed form as e^gamma E1(gamma), and normalization/moment
checks of densities on (0, inf), one of which carries an algebraic
a^(-4/3) tail.  Adaptive Gauss-Kronrod does the work; this module owns the
truncation and substitution logic and reports honest error bounds.  It
lives with the tests, beside `oracles`, because nothing in the package
calls it; it is why scipy is a test dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from scipy.integrate import quad as _quad


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_bound: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Quadrature failed to meet tolerance; carries the partial result."""

    def __init__(self, message: str, partial: Optional[QuadResult] = None):
        super().__init__(message)
        self.partial = partial


def integrate_exp_tail(x: float, mu: float, tol: float = 1e-10) -> QuadResult:
    """Integral of exp(-s*x)/(s + mu) over s in (0, inf), within tol.

    The interval is cut at S with the analytic remainder bound
    int_S^inf exp(-s*x)/(s+mu) ds <= exp(-S*x)/(x*(S+mu)) < tol/2,
    and [0, S] is handled adaptively to the other half of the budget.
    """
    if x <= 0 or mu <= 0:
        raise ValueError(f"x and mu must be positive, got x={x}, mu={mu}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    S = 1.0
    while math.exp(-S * x) / (x * (S + mu)) >= 0.5 * tol:
        S *= 2.0
    tail_bound = math.exp(-S * x) / (x * (S + mu))

    def integrand(s: float) -> float:
        return math.exp(-s * x) / (s + mu)

    out = _quad(integrand, 0.0, S, epsabs=0.5 * tol, epsrel=0.0, limit=200, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    result = QuadResult(value, abserr + tail_bound, info["neval"])
    if len(out) > 3 and result.abs_error_bound > tol:
        raise QuadratureError(f"tail integral did not converge: {out[3]}", result)
    return result


def integrate_density(
    f: Callable[[float], float],
    tol: float = 1e-10,
    tail_exponent_hint: Optional[float] = None,
) -> QuadResult:
    """Integral of a nonnegative f over (0, inf), within tol.

    With an algebraic-tail hint (e.g. 4/3 for the zero-drift area
    density), the substitution a = u/(1-u) maps the line to (0, 1) and
    turns the slow tail into an integrable endpoint singularity, which
    the adaptive rule resolves by extrapolation.  Without a hint the
    integrand is assumed to decay fast and the infinite-interval
    transform is used directly.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if tail_exponent_hint is not None:
        if not 1.0 < tail_exponent_hint:
            raise ValueError(f"tail exponent hint must exceed 1, got {tail_exponent_hint}")

        def transformed(u: float) -> float:
            om = 1.0 - u
            return f(u / om) / (om * om)

        out = _quad(transformed, 0.0, 1.0, epsabs=tol, epsrel=0.0, limit=400, full_output=1)
    else:
        out = _quad(f, 0.0, math.inf, epsabs=tol, epsrel=0.0, limit=400, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    result = QuadResult(value, abserr, info["neval"])
    if len(out) > 3 and abserr > tol:
        raise QuadratureError(f"density integral did not converge: {out[3]}", result)
    return result
