"""Monte Carlo simulation of first passage below zero, with area.

Paths follow the Euler scheme X_{k+1} = X_k - mu*dt + sqrt(dt)*Z_k.  A
crossing is detected when a step ends at or below zero (tau then placed by
linear interpolation inside the step, the last area sliver being the
triangle X_k*(tau - t_k)/2), or, with the bridge correction on, when the
Brownian-bridge minimum law fires between two positive endpoints with
probability exp(-2 X_k X_{k+1}/dt); such a crossing is booked at the step
midpoint with half the step's trapezoid area.  Plain endpoint detection
delays tau by beta*sqrt(dt)/mu to leading order, where beta =
-zeta(1/2)/sqrt(2*pi) ~ 0.5826 (Broadie, Glasserman and Kou 1997).  The
tests measure that delay at dt = 0.04 and 0.01; the corrected bias lies
below the noise of 40,000 paths there, so the correction removes the
sqrt(dt) term, though that does not show the rest is O(dt) (Gobet 2000).

RNG scheme v1 (do not change without bumping): path i reads its Gaussian
increments from Philox keyed (seed, 2i) and its bridge uniforms from
Philox keyed (seed, 2i+1), each consumed positionally from position 0:
the uniform of step k is the double at stream position k.  The
acceptance test is defined as u < exp(arg) with rejection short-circuited
for arg below -745, where exp underflows past the subnormal floor.
Draw blocks are generated here and handed to the scan kernel, so results
are independent of backend, block sizing, and execution order: every path
is a pure function of (config, stream_index).

Uniforms are drawn only from a row's band entry on (see `kernels`): the
bridge cannot fire on a step whose ends both lie above
`kernels.bridge_band(dt)`, and the kernel reads no uniform there.
Philox is counter-based (Salmon et al., SC'11), so the double at any
position is produced without the ones before it: in every round in which
a row comes near zero, one uniform generator shared by all rows is keyed
by one state write to the row's stream at its band entry in that round,
and draws the row's uniforms from there to the block end.  Every uniform
the kernel reads keeps its stream position, so no output byte can change.

Rounds: `run` scans all its paths in one pass over a fixed pool of up to
64 row slots, each owning one Philox generator for its normals.  A slot
holds one path at a time; when its path crosses or reaches the horizon,
it takes the next unstarted path at once, its normal stream keyed by one
state write and its carries reset to zero, so every round scans a full
block until the paths run out.  Each slot keeps its own `base`, the steps
its path has consumed, and so its own horizon, max_steps - base.  A round
draws the next block of normals of every slot straight into columns 1..
of that slot's row of a (rows, block+1) array, column 0 holding the row's
carries (see `kernels`).  It walks all rows in one kernel call, draws the
uniforms of the rows that came near zero, and scans those for bridge
crossings in a second call, which returns the crossing step of each row.
A crossing counts only before the row's horizon; a row whose horizon
falls within the block without one is censored there.  The rows that
crossed are finalized from the positions and area gathered from the walk
at that step; the others carry the running sum and area of the last
column into the next round.  The block is a fixed working-set budget
(2^15 doubles per array, 256 KB) divided among the rows, up to 8192 steps
and never past the furthest horizon.  This cannot change a byte of the
output: a row reads its own streams in stream order, so its draws are
those of the one-path scan whatever the block lengths or the paths beside
it; the kernel treats rows independently and folds the carries in the
same order; and the crossing arithmetic below is the scalar expression
applied elementwise.  `simulate_path` is the same pass over one path in
one slot.

Censoring: a path that reaches max_time (default 50*x/mu) without
crossing is returned with censored=True, excluded from estimators, and
counted separately.  mu = 0 has no default horizon and requires an
explicit max_time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from . import kernels
from .closed_forms import ModelParams

# Round sizing (see the module docstring): the block is _ROUND_BUDGET
# draws divided among the rows of at most _CHUNK_PATHS slots, so at least
# 512 steps, and at most _BLOCK_MAX.  Refilled slots stay full, so the
# block stays short and wastes few draws past each crossing until the
# paths run out; then it lengthens as the last rows leave, keeping the
# per-call overhead down.  Sizing is invisible in the results.
_CHUNK_PATHS = 64
_ROUND_BUDGET = 1 << 15
_BLOCK_MAX = 8192
# glibc hands free memory at the top of the heap back to the OS once more
# than its trim threshold (128 KB at start-up) is free there, so the
# temporaries every round allocates and frees would be faulted back in
# page by page on the next round.  Freeing one mmapped block of this size
# makes glibc raise the trim threshold to twice the size, above the churn
# of a round; other allocators are unaffected.
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
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (isinstance(self.paths, numbers.Integral) and self.paths >= 1):
            raise ValueError(f"paths must be an integer of at least 1, got {self.paths!r}")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.max_time is None:
            if self.params.mu <= 0:
                raise ValueError("mu = 0 has no default horizon; pass max_time explicitly")
            object.__setattr__(self, "max_time", 50.0 * self.params.x / self.params.mu)
        elif not self.max_time > 0:
            raise ValueError(f"max_time must be positive, got {self.max_time}")
        if not (math.isfinite(self.max_time) and math.isfinite(self.max_time / self.dt)):
            raise ValueError(f"the horizon max_time/dt = {self.max_time:g}/{self.dt:g} must be finite")

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


def _unkeyed() -> np.random.Generator:
    """A Philox generator, to be keyed by `_seek`."""
    return np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))


def _seek(bitgen: np.random.Philox, seed: int, stream: int, position: int) -> int:
    """Key `bitgen` to stream (seed, stream) at the last Philox block
    boundary at or before `position`, and return that boundary.

    One state write, no read: far cheaper than constructing a Generator
    per path.  Philox yields 4 doubles per counter step, and counter c
    with the buffer marked empty (buffer_pos = 4) puts the next double at
    stream position 4c, so position 0 is the fresh keyed stream.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (position // 4, 0, 0, 0), "key": (seed, stream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return position - position % 4


def _scan_paths(config: SimConfig, first: int, count: int) -> list[PassageSample]:
    """Paths first .. first+count-1 of the run, scanned in one pass over at
    most _CHUNK_PATHS rows.

    Row r of a round holds path first+path[r], which has consumed base[r]
    steps, and draws its normals from gens[r], keyed here to that path's
    stream.  A row whose path crosses or reaches the horizon takes the
    next unstarted path at once, with base and carries zero; rows leave
    only when none is left.  All rows read their uniforms through gen_u.
    """
    x0 = config.params.x
    dt = config.dt
    drift = -(config.params.mu * dt)
    sqrt_dt = math.sqrt(dt)
    band = kernels.bridge_band(dt) if config.bridge_correction else 0.0
    max_steps = config.max_steps
    gens = [_unkeyed() for _ in range(min(_CHUNK_PATHS, count))]
    for r, gen in enumerate(gens):
        _seek(gen.bit_generator, config.seed, 2 * (first + r), 0)
    gen_u = _unkeyed()
    path = np.arange(len(gens))
    base = np.zeros(len(gens), dtype=np.int64)
    s_carry, area_carry = np.zeros(len(gens)), np.zeros(len(gens))
    started = len(gens)

    out: list = [None] * count
    while path.size:
        limit = max_steps - base
        size = min(_ROUND_BUDGET // path.size, _BLOCK_MAX, int(limit.max()))
        z = np.empty((path.size, size + 1))
        for row, gen in enumerate(gens):
            gen.standard_normal(out=z[row, 1:])
        s, x, area, entry, stop = kernels.walk_rows(x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z)
        near = np.flatnonzero(entry < stop)
        u = np.empty((path.size, size))
        for row, i, c, b in zip(near.tolist(), path[near].tolist(), entry[near].tolist(), base[near].tolist()):
            # the uniforms of steps b + c to the block end, drawn from the
            # Philox block boundary `at`, at most 3 positions before b + c
            at = _seek(gen_u.bit_generator, config.seed, 2 * (first + i) + 1, b + c)
            if at < b:
                gen_u.random(b - at)  # unread, before this block
                at = b
            gen_u.random(out=u[row, at - b :])
        j = kernels.scan_rows(dt, x, entry, stop, u)
        # a step past a row's horizon does not count
        hit = j < np.minimum(limit, size)
        if hit.any():
            r_hit, j_hit = np.flatnonzero(hit), j[hit]
            k = base[hit] + j_hit
            t_k = k * dt
            x_before, x_after, area_hit = x[r_hit, j_hit], x[r_hit, j_hit + 1], area[r_hit, j_hit]
            # bridge hits: the step midpoint and half the step's trapezoid;
            # the endpoint hits among them are overwritten next
            tau = t_k + 0.5 * dt
            area_end = area_hit + 0.25 * (x_before + x_after) * dt
            endpoint = j_hit == stop[hit]
            # x_before > 0 >= x_after, so the interpolation fraction is in (0, 1]
            xb, xa = x_before[endpoint], x_after[endpoint]
            frac = xb / (xb - xa)
            tau[endpoint] = t_k[endpoint] + frac * dt
            area_end[endpoint] = area_hit[endpoint] + 0.5 * xb * (frac * dt)
            for i, t, a, steps in zip(path[hit].tolist(), tau.tolist(), area_end.tolist(), (k + 1).tolist()):
                out[i] = PassageSample(t, a, steps, False)
        censored = ~hit & (limit <= size)
        for i, a in zip(path[censored].tolist(), area[censored, limit[censored]].tolist()):
            out[i] = PassageSample(max_steps * dt, a, max_steps, True)
        s_carry, area_carry = s[:, -1].copy(), area[:, -1].copy()
        base += size
        done = np.flatnonzero(hit | censored)
        refill = done[: count - started]
        for row in refill.tolist():
            _seek(gens[row].bit_generator, config.seed, 2 * (first + started), 0)
            path[row] = started
            started += 1
        base[refill] = s_carry[refill] = area_carry[refill] = 0
        if refill.size < done.size:
            keep = np.delete(np.arange(path.size), done[refill.size :])
            gens = [gens[r] for r in keep.tolist()]
            path, base, s_carry, area_carry = path[keep], base[keep], s_carry[keep], area_carry[keep]
    return out


def simulate_path(config: SimConfig, stream_index: int) -> PassageSample:
    """Simulate the single path owning RNG streams (seed, 2i) and (seed, 2i+1)."""
    if not 0 <= stream_index < config.paths:
        raise ValueError(f"stream_index {stream_index} outside 0..{config.paths - 1}")
    return _scan_paths(config, stream_index, 1)[0]


def run(config: SimConfig) -> list[PassageSample]:
    """All paths of the run, indexed by stream; equal to per-index simulate_path."""
    np.empty(_HEAP_PRIME_BYTES, dtype=np.uint8)  # freed at once; see _HEAP_PRIME_BYTES
    return _scan_paths(config, 0, config.paths)


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
