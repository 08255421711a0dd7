"""Closed-form quantities for the first-passage pair (tau, A).

Everything here is a direct double-precision evaluation of an explicit
formula: the inverse Gaussian law of tau, the zero-drift area density, the
exact correlation in gamma = mu*x, the discounted-area transform, and the
expected time average, through a small scaled exponential integral.  Only
the standard library is used.  This layer is the oracle both the
symbolic moment engine and the simulator are tested against.  The
low-order area moments E[A], E[A^2], Var[A] and E[tau*A] are readouts of
the moment engine (`moments`); their closed forms live in the tests as
oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Limits of the correlation as gamma -> infinity and gamma -> 0+, and its
# global maximum, attained at gamma = 3/2.  The curve is unimodal, not
# monotone: it rises from sqrt(4/5) to sqrt(7/8), then falls through
# sqrt(4/5) again at gamma = 12 on its way down to sqrt(3/4).
RHO_LIMIT_LARGE_DRIFT = math.sqrt(3.0 / 4.0)
RHO_LIMIT_ZERO_DRIFT = math.sqrt(4.0 / 5.0)
RHO_MAX = math.sqrt(7.0 / 8.0)
# The expected time average tends to x/2 as mu -> infinity.
TIME_AVERAGE_FLOOR_FACTOR = 0.5

_EULER_GAMMA = 0.5772156649015328606
_FPA0_NORM = 2.0 ** (1.0 / 3.0) / (3.0 ** (2.0 / 3.0) * math.gamma(1.0 / 3.0))


@dataclass(frozen=True)
class ModelParams:
    """Starting point and drift of X(t) = x - mu*t + B_t.

    mu = 0 is admitted at construction for the zero-drift simulation
    regime; operations that need mu > 0 check it themselves.
    """

    x: float
    mu: float

    def __post_init__(self):
        if not self.x > 0:
            raise ValueError(f"x must be positive, got {self.x}")
        if not self.mu >= 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")


def _require_drift(params: ModelParams) -> None:
    if params.mu <= 0:
        raise ValueError(f"mu must be positive here, got {params.mu}")


def fpt_laplace(params: ModelParams, lam: float) -> float:
    """E[exp(-lam * tau)] = exp(-x*(sqrt(mu^2 + 2*lam) - mu)); 1 at lam = 0."""
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    root = math.sqrt(params.mu * params.mu + 2.0 * lam)
    return math.exp(-params.x * (root - params.mu))


def fpt_density(params: ModelParams, t: float) -> float:
    """Inverse Gaussian density x/sqrt(2 pi t^3) * exp(-(x - mu t)^2 / 2t)."""
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    dev = params.x - params.mu * t
    return params.x / math.sqrt(2.0 * math.pi * t**3) * math.exp(-dev * dev / (2.0 * t))


def fpa_density_zero_drift(x: float, a: float) -> float:
    """Density of the first-passage area at zero drift.

    f(a) = 2^(1/3)/(3^(2/3) Gamma(1/3)) * x * a^(-4/3) * exp(-2 x^3 / 9a).
    The a^(-4/3) tail makes every moment infinite.
    """
    if not (x > 0 and a > 0):
        raise ValueError(f"x and a must be positive, got x={x}, a={a}")
    return _FPA0_NORM * x * a ** (-4.0 / 3.0) * math.exp(-2.0 * x**3 / (9.0 * a))


def _area_bracket(x: float, r: float) -> float:
    # x^2/(2r) + x/(2r^2), which is E[A] at r = mu: the tests type the same
    # expression for E[A] and find w_joint at lambda1 = 0 equal to it
    # bitwise, since IEEE round-to-nearest gives sqrt(mu*mu) == mu exactly.
    return x * x / (2.0 * r) + x / (2.0 * (r * r))


def rho_exact(gamma: float) -> float:
    """Correlation of (tau, A) as a function of gamma = mu*x.

    sqrt((3 g^2 + 12 g + 12)/(4 g^2 + 12 g + 15)).  Tends to
    RHO_LIMIT_ZERO_DRIFT as gamma -> 0+ and RHO_LIMIT_LARGE_DRIFT as
    gamma -> infinity, but is not monotone between them: the derivative
    of rho^2 is proportional to -(2*gamma - 3)(gamma + 2), so the curve
    peaks at RHO_MAX for gamma = 3/2 and only drops below the zero-drift
    limit past gamma = 12.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    g = gamma
    den = 4.0 * g * g + 12.0 * g + 15.0
    if math.isinf(den):
        # past gamma ~ 6.7e153 (and at infinity) 4 g^2 leaves the float
        # range; divided through by g^2 the ratio is 3/4 to within 1e-153
        return RHO_LIMIT_LARGE_DRIFT
    return math.sqrt((3.0 * g * g + 12.0 * g + 12.0) / den)


def w_joint(params: ModelParams, lambda1: float) -> float:
    """Discounted area E[A * exp(-lambda1 * tau)].

    exp(mu*x - x*r) * (x^2/(2r) + x/(2r^2)) with r = sqrt(mu^2 + 2*lambda1).
    At lambda1 = 0 this is exactly E[A] = x^2/(2 mu) + x/(2 mu^2): r
    collapses to mu and the exponent to 0.0, both without rounding.
    """
    if not lambda1 >= 0:
        raise ValueError(f"lambda1 must be nonnegative, got {lambda1}")
    _require_drift(params)
    x, mu = params.x, params.mu
    root = math.sqrt(mu * mu + 2.0 * lambda1)
    return math.exp(mu * x - x * root) * _area_bracket(x, root)


def _exp1_scaled(z: float) -> float:
    """e^z * E1(z) for z > 0, to about 1e-14 relative.

    Power series of E1 for z <= 1; modified Lentz evaluation of the
    continued fraction e^z E1(z) = 1/(z+1- 1/(z+3- 4/(z+5- 9/(...))))
    beyond, which needs fewer terms the larger z is.
    """
    if z <= 1.0:
        # for z <= 1 the terms after the 19th sum to less than 1/(20*20!)
        total, term = 0.0, -1.0
        for k in range(1, 20):
            term *= -z / k
            total += term / k
        return math.exp(z) * (-_EULER_GAMMA - math.log(z) + total)
    if math.isinf(z):
        return 0.0
    b = z + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 2.2e-16:
            return h
    raise ArithmeticError(f"continued fraction for E1 did not settle at z={z}")


def expected_time_average(params: ModelParams) -> float:
    """E[A/tau] = (x/2) * (1 + e^gamma * E1(gamma)) with gamma = mu*x.

    e^gamma * E1(gamma) is the integral of exp(-s*x)/(s+mu) over s > 0,
    which the tests evaluate by quadrature as a check (tests/quad.py).
    Always at least x/2, decreasing in mu; diverges as mu -> 0+.  Raises
    ValueError when mu*x underflows to zero.
    """
    _require_drift(params)
    gamma = params.mu * params.x
    if gamma == 0.0:
        raise ValueError(f"mu*x underflows to zero at x={params.x}, mu={params.mu}")
    return TIME_AVERAGE_FLOOR_FACTOR * params.x * (1.0 + _exp1_scaled(gamma))
