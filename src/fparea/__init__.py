"""First-passage time and area of drifted Brownian motion.

For X(t) = x - mu*t + B_t absorbed at zero, this package computes the
joint moments E[tau^m A^n] of the passage time tau and swept area A as
exact polynomials mu^-(2m+3n) * P_{m,n}(mu*x) with rational P, evaluates
the known closed forms (inverse Gaussian passage law, zero-drift area
density, exact correlation, discounted area, expected time average), and
simulates (tau, A) with a Brownian-bridge crossing correction and
reproducible per-path RNG streams.
"""

import importlib.util
import sys

from .closed_forms import (
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
from .laurent import Poly
from .moments import correlation_from_moments, joint_moment

__version__ = "0.1.0"

# The Monte Carlo side loads numpy, which the exact side never needs: `mc` is
# bound, and in sys.modules, now but runs on first attribute access
# (importlib.util.LazyLoader), and the names read from it, its `kernels`
# module too, resolve then (PEP 562).
_spec = importlib.util.find_spec(f"{__name__}.mc")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
mc = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mc)
_MC_NAMES = frozenset({
    "DegenerateVarianceError",
    "EstimatorSummary",
    "HistogramDensity",
    "InsufficientSamplesError",
    "PassageSample",
    "SimConfig",
    "estimate_correlation",
    "estimate_density",
    "estimate_joint_moment",
    "estimate_time_average",
    "kernels",
    "run",
    "simulate_path",
    "write_histogram_csv",
    "write_samples_csv",
})


def __getattr__(name: str):
    if name in _MC_NAMES:
        return getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MC_NAMES)


__all__ = [
    "RHO_LIMIT_LARGE_DRIFT",
    "RHO_LIMIT_ZERO_DRIFT",
    "RHO_MAX",
    "DegenerateVarianceError",
    "EstimatorSummary",
    "HistogramDensity",
    "InsufficientSamplesError",
    "ModelParams",
    "PassageSample",
    "Poly",
    "SimConfig",
    "correlation_from_moments",
    "estimate_correlation",
    "estimate_density",
    "estimate_joint_moment",
    "estimate_time_average",
    "expected_time_average",
    "fpa_density_zero_drift",
    "fpt_density",
    "fpt_laplace",
    "joint_moment",
    "rho_exact",
    "run",
    "simulate_path",
    "w_joint",
    "write_histogram_csv",
    "write_samples_csv",
]
