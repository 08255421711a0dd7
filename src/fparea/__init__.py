"""First-passage time and area of drifted Brownian motion.

For X(t) = x - mu*t + B_t absorbed at zero, this package computes the
joint moments E[tau^m A^n] of the passage time tau and swept area A as
exact polynomials mu^-(2m+3n) * P_{m,n}(mu*x) with rational P, evaluates
the known closed forms (inverse Gaussian passage law, zero-drift area
density, exact correlation, discounted area, expected time average), and
simulates (tau, A) with a Brownian-bridge crossing correction and
reproducible per-path RNG streams.
"""

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
from .mc import (
    DegenerateVarianceError,
    EstimatorSummary,
    HistogramDensity,
    InsufficientSamplesError,
    PassageSample,
    SimConfig,
    estimate_correlation,
    estimate_density,
    estimate_joint_moment,
    estimate_time_average,
    run,
    simulate_path,
    write_histogram_csv,
    write_samples_csv,
)
from .moments import correlation_from_moments, joint_moment

__version__ = "0.1.0"

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
]
