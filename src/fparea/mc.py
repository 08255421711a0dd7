"""Monte Carlo simulation of first passage below zero, with area.

Paths follow the Euler scheme X_{k+1} = X_k - mu*dt + sqrt(dt)*Z_k.  A
crossing is detected when a step ends at or below zero (tau then placed by
linear interpolation inside the step, the last area sliver being the
triangle X_k*(tau - t_k)/2), or, with the bridge correction on, when the
Brownian-bridge minimum law fires between two positive endpoints with
probability exp(-2 X_k X_{k+1}/dt); such a crossing is booked at the step
midpoint with half the step's trapezoid area.  Plain endpoint detection
has an O(sqrt(dt)) positive bias in tau; the correction knocks it down to
O(dt).

RNG scheme v1 (do not change without bumping): path i reads its Gaussian
increments from Philox keyed (seed, 2i) and its bridge uniforms from
Philox keyed (seed, 2i+1), each consumed positionally from position 0,
one uniform per scanned step.  The acceptance test is defined as
u < exp(arg) with rejection short-circuited for arg below -745, where
exp underflows past the subnormal floor.
Draw blocks are generated here and handed to the scan kernel, so results
are independent of backend, block sizing, and execution order: every path
is a pure function of (config, stream_index).

Censoring: a path that reaches max_time (default 50*x/mu) without
crossing is returned with censored=True, excluded from estimators, and
counted separately.  mu = 0 has no default horizon and requires an
explicit max_time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from . import kernels
from .closed_forms import ModelParams

# Draw-block sizing: a small first block covers typical short paths, then
# flat refills keep the wasted tail of the last block bounded.  Sizing is
# invisible in the results; draws are consumed positionally.
_BLOCK_FIRST = 2048
_BLOCK_NEXT = 8192
_EMPTY = np.empty(0)
# glibc hands free memory at the top of the heap back to the OS once more
# than its trim threshold (128 KB at start-up) is free there, so the
# temporaries every path allocates and frees would be faulted back in page
# by page on the next path.  Freeing one mmapped block of this size makes
# glibc raise the trim threshold to twice the size, above the churn of an
# 8192-step block; other allocators are unaffected.
_HEAP_PRIME_BYTES = 4 << 20


class InsufficientSamplesError(ValueError):
    """Too few uncensored samples for the requested estimator."""


class DegenerateVarianceError(ValueError):
    """A sample variance needed in a denominator is zero."""


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run; hashable and immutable."""

    params: ModelParams
    dt: float
    paths: int
    seed: int
    bridge_correction: bool = True
    max_time: Optional[float] = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.paths < 1:
            raise ValueError(f"paths must be at least 1, got {self.paths}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.max_time is None:
            if self.params.mu <= 0:
                raise ValueError("mu = 0 has no default horizon; pass max_time explicitly")
            object.__setattr__(self, "max_time", 50.0 * self.params.x / self.params.mu)
        elif not self.max_time > 0:
            raise ValueError(f"max_time must be positive, got {self.max_time}")

    @property
    def max_steps(self) -> int:
        return max(1, math.ceil(self.max_time / self.dt))


@dataclass(frozen=True)
class PassageSample:
    """One simulated path: passage time, swept area, step count.

    For a censored path, tau and area hold the values reached at the
    horizon; estimators skip such samples.
    """

    tau: float
    area: float
    steps: int
    censored: bool


@dataclass(frozen=True)
class EstimatorSummary:
    estimate: float
    std_error: float
    n_effective: int
    censored_count: int


@dataclass(frozen=True)
class HistogramDensity:
    """Normalized histogram: sum(mass * bin width) = 1 over the range."""

    bin_edges: np.ndarray
    mass: np.ndarray


def _fresh_generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(bitgen: np.random.Philox, seed: int, stream: int) -> None:
    # State surgery instead of constructing a Generator per path: ~10x
    # cheaper, and reproduces the fresh keyed stream exactly
    # (buffer_pos = 4 marks the uint64 carry buffer empty).
    st = bitgen.state
    st["state"]["key"][:] = (seed, stream)
    st["state"]["counter"][:] = 0
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    bitgen.state = st


def _scan_path(
    config: SimConfig, gen_z: np.random.Generator, gen_u: np.random.Generator
) -> PassageSample:
    x0 = config.params.x
    dt = config.dt
    drift = -(config.params.mu * dt)
    sqrt_dt = math.sqrt(dt)
    use_bridge = config.bridge_correction
    max_steps = config.max_steps
    scan = kernels.scan_block

    s_carry = 0.0
    area_carry = 0.0
    base = 0
    while base < max_steps:
        size = min(_BLOCK_FIRST if base == 0 else _BLOCK_NEXT, max_steps - base)
        z = gen_z.standard_normal(size)
        u = gen_u.random(size) if use_bridge else _EMPTY
        status, j, x_before, x_after, s_before, area_before = scan(
            x0, s_carry, area_carry, drift, sqrt_dt, dt, use_bridge, z, u
        )
        if status == kernels.NO_EVENT:
            s_carry = s_before
            area_carry = area_before
            base += size
            continue
        k = base + j
        t_k = k * dt
        if status == kernels.ENDPOINT_HIT:
            # x_before > 0 >= x_after, so the interpolation fraction is in (0, 1]
            frac = x_before / (x_before - x_after)
            tau = t_k + frac * dt
            area = area_before + 0.5 * x_before * (frac * dt)
        else:
            tau = t_k + 0.5 * dt
            area = area_before + 0.25 * (x_before + x_after) * dt
        return PassageSample(tau, area, k + 1, False)
    return PassageSample(max_steps * dt, area_carry, max_steps, True)


def simulate_path(config: SimConfig, stream_index: int) -> PassageSample:
    """Simulate the single path owning RNG streams (seed, 2i) and (seed, 2i+1)."""
    if not 0 <= stream_index < config.paths:
        raise ValueError(f"stream_index {stream_index} outside 0..{config.paths - 1}")
    gen_z = _fresh_generator(config.seed, 2 * stream_index)
    gen_u = _fresh_generator(config.seed, 2 * stream_index + 1)
    return _scan_path(config, gen_z, gen_u)


def run(config: SimConfig) -> list[PassageSample]:
    """All paths of the run, indexed by stream; equal to per-index simulate_path."""
    np.empty(_HEAP_PRIME_BYTES, dtype=np.uint8)  # freed at once; see _HEAP_PRIME_BYTES
    bg_z = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
    bg_u = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
    gen_z = np.random.Generator(bg_z)
    gen_u = np.random.Generator(bg_u)
    out = []
    for i in range(config.paths):
        _rekey(bg_z, config.seed, 2 * i)
        _rekey(bg_u, config.seed, 2 * i + 1)
        out.append(_scan_path(config, gen_z, gen_u))
    return out


def _uncensored(samples: Sequence[PassageSample]) -> tuple[np.ndarray, np.ndarray, int]:
    taus = np.array([s.tau for s in samples if not s.censored])
    areas = np.array([s.area for s in samples if not s.censored])
    return taus, areas, len(samples) - len(taus)


def estimate_joint_moment(
    samples: Sequence[PassageSample], m: int, n: int
) -> EstimatorSummary:
    """Sample mean and standard error of tau^m * area^n."""
    if m < 0 or n < 0:
        raise ValueError(f"moment orders must be nonnegative, got ({m}, {n})")
    taus, areas, censored = _uncensored(samples)
    if len(taus) < 2:
        raise InsufficientSamplesError(f"need at least 2 uncensored samples, have {len(taus)}")
    vals = taus**m * areas**n
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    return EstimatorSummary(float(vals.mean()), se, len(vals), censored)


def estimate_correlation(samples: Sequence[PassageSample]) -> EstimatorSummary:
    """Pearson correlation of (tau, area); Fisher-z delta standard error."""
    taus, areas, censored = _uncensored(samples)
    # Fisher-z standard error divides by sqrt(n - 3), so n = 3 is still too few.
    if len(taus) < 4:
        raise InsufficientSamplesError(f"need at least 4 uncensored samples, have {len(taus)}")
    if taus.var() == 0.0 or areas.var() == 0.0:
        raise DegenerateVarianceError("tau or area sample variance is zero")
    r = float(np.corrcoef(taus, areas)[0, 1])
    se = (1.0 - r * r) / math.sqrt(len(taus) - 3)
    return EstimatorSummary(r, se, len(taus), censored)


def estimate_time_average(samples: Sequence[PassageSample]) -> EstimatorSummary:
    """Sample mean and standard error of area/tau per path."""
    taus, areas, censored = _uncensored(samples)
    if len(taus) < 2:
        raise InsufficientSamplesError(f"need at least 2 uncensored samples, have {len(taus)}")
    vals = areas / taus
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    return EstimatorSummary(float(vals.mean()), se, len(vals), censored)


def estimate_density(
    samples: Sequence[PassageSample],
    bins: int,
    value_range: Optional[tuple[float, float]] = None,
) -> HistogramDensity:
    """Normalized area histogram; default range [0, 99.5th percentile]."""
    if bins < 2:
        raise ValueError(f"bins must be at least 2, got {bins}")
    _, areas, _ = _uncensored(samples)
    if len(areas) < 2:
        raise InsufficientSamplesError(f"need at least 2 uncensored samples, have {len(areas)}")
    if value_range is None:
        value_range = (0.0, float(np.percentile(areas, 99.5)))
    mass, edges = np.histogram(areas, bins=bins, range=value_range, density=True)
    return HistogramDensity(edges, mass)


def write_samples_csv(samples: Sequence[PassageSample], out: IO[str]) -> None:
    """Dump rows `path_index,tau,area,steps,censored` at full precision."""
    out.write("path_index,tau,area,steps,censored\n")
    for i, s in enumerate(samples):
        out.write(f"{i},{s.tau:.17g},{s.area:.17g},{s.steps},{1 if s.censored else 0}\n")


def write_histogram_csv(hist: HistogramDensity, out: IO[str]) -> None:
    """Dump rows `bin_left,bin_right,density` at full precision."""
    out.write("bin_left,bin_right,density\n")
    for left, right, d in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.mass):
        out.write(f"{left:.17g},{right:.17g},{d:.17g}\n")
