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
are independent of block sizing and execution order: every path is a pure
function of (config, stream_index).

Uniforms are drawn only from a row's band entry on (see `kernels`): the
bridge cannot fire on a step whose ends both lie above
`kernels.bridge_band(dt)`, and the kernel reads no uniform there.
Philox is counter-based (Salmon et al., SC'11), so the double at any
position is produced without the ones before it: in every round in which
a row comes near zero, one uniform generator shared by all rows is keyed
by one state write to the row's stream at its band entry in that round,
and draws the row's uniforms from there up to its `stop`, the first step
of the block ending at or below zero (or the block end): the bridge test
runs only before the endpoint crossing.  Every uniform the kernel reads
keeps its stream position, so no output byte can change.

Rounds: `run` scans all its paths in one pass over a fixed pool of up to
64 row slots, each owning one Philox generator for its normals.  A slot
holds one path at a time; when its path crosses or reaches the horizon,
it takes the next unstarted path at once, its normal stream keyed by one
state write and its carries reset to zero, so every round scans a full
block until the paths run out.  Each slot keeps its own `base`, the steps
its path has consumed, and so its own horizon, max_steps - base.  A round
draws the next block of normals of every slot straight into columns 1..
of that slot's row of a (rows, block+1) array, column 0 holding the row's
carries (see `kernels`).  One kernel call walks all rows and returns each
row's running sum after the block; only the rows that came near zero draw
uniforms and go to the bridge scan, a second call that returns their
crossing steps, and a round with no such row skips both.  A crossing
counts only before the row's horizon; a row whose horizon falls within the
block without one is censored there.  The rows that crossed are finalized
from the positions and area gathered from the walk at that step; the
others carry the running sum and area of the last column into the next
round.  The block is a fixed working-set budget (2^15 doubles per array,
256 KB) divided among the rows, up to 8192 steps and never past the
furthest horizon.  This cannot change a byte of the output: a row reads
its own streams in stream order, so its draws are those of the one-path
scan whatever the block lengths or the paths beside it; the kernel treats
rows independently and folds the carries in the same order; and the
crossing arithmetic below is the scalar expression applied elementwise.
`simulate_path` is the same pass over one path in one slot.

Workers: since every path is a pure function of (config, stream_index),
`run` may split its paths into contiguous ranges and scan them in
separate processes without changing a byte.  It does so with one range
per CPU in the process's affinity mask, when each range holds at least
_WORKER_STEPS estimated steps (paths times min(max_steps, x/(mu*dt))), and
never where `os.fork` is missing or another thread runs.  The caller
scans range 0 itself; each other range goes to a child made by `os.fork`,
which sends back through a pipe either its pickled samples or, when its
scan raises, the pickled traceback, and leaves by `os._exit`.  The caller
reaps every child before `run` returns or raises.  A child's traceback,
or a pickle cut short by a child that died while writing, makes the
caller raise RuntimeError naming the child's path range, with that text.
Each process has its own memory, so counters and hooks installed in the
caller see only range 0.  Threads gain little here: the per-round
Python work holds the GIL.  A forked child starts scanning at once, where
a spawned one would first import numpy and this package again.

Censoring: a path that reaches max_time (default 50*x/mu) without
crossing is returned with censored=True, excluded from estimators, and
counted separately.  mu = 0 has no default horizon and requires an
explicit max_time.  A horizon, default or explicit, must be positive,
finite and below 2^63 steps.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import threading
import traceback
from contextlib import suppress
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from . import kernels, moments
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
# A run is split over worker processes only while each gets at least this
# many estimated steps (about 0.1 s of scanning); below it the fork and
# the pipe cost more than a second core saves.
_WORKER_STEPS = 2_000_000
# glibc hands free memory at the top of the heap back to the OS once more
# than its trim threshold (128 KB at start-up) is free there, so the
# temporaries every round allocates and frees would be faulted back in
# page by page on the next round.  Freeing one mmapped block of this size
# makes glibc raise the trim threshold to twice the size, above the churn
# of a round; other allocators are unaffected.
_HEAP_PRIME_BYTES = 4 << 20
# The fewest uncensored samples the estimators take: a sample standard
# error, or a histogram's range, needs two; the Fisher-z standard error of
# the correlation divides by sqrt(n - 3), so three are still too few.
MIN_SAMPLES = 2
MIN_CORRELATION_SAMPLES = 4


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
        # the default 50*x/mu is 0 at mu = inf or on underflow; the step
        # counters are int64
        if not (0 < self.max_time < math.inf and self.max_time / self.dt < 2**63):
            raise ValueError(
                f"the horizon max_time/dt = {self.max_time:g}/{self.dt:g} must be finite, "
                "positive and below 2^63 steps"
            )

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
        s_carry, x, area, entry, stop = kernels.walk_rows(x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z)
        j = stop.copy()
        near = np.flatnonzero(entry < stop)
        if near.size:
            u = np.empty((near.size, size))
            rows_near = (a[near].tolist() for a in (path, entry, stop, base))
            for row, (i, c, e, b) in enumerate(zip(*rows_near)):
                # the uniforms of steps b + c to b + e - 1, drawn from the
                # Philox block boundary `at`, at most 3 positions before b + c
                at = _seek(gen_u.bit_generator, config.seed, 2 * (first + i) + 1, b + c)
                if at < b:
                    gen_u.random(b - at)  # unread, before this block
                    at = b
                gen_u.random(out=u[row, at - b : e])
            j[near] = kernels.scan_rows(dt, x[near], entry[near], stop[near], u)
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
        area_carry = area[:, -1].copy()
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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(config: SimConfig) -> int:
    """Processes to scan the run in: one per usable CPU while each gets at
    least _WORKER_STEPS steps of estimated work, and 1 where forking is
    unavailable or unsafe (another thread may hold a lock the child needs).

    A path is estimated at its mean passage x/mu over dt steps, capped at
    the horizon; at mu = 0 it is the horizon.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    steps = config.max_steps
    if config.params.mu > 0:
        steps = min(steps, config.params.x / config.params.mu / config.dt)
    return max(1, min(_cpus(), config.paths, int(config.paths * steps / _WORKER_STEPS)))


def _scan_split(config: SimConfig, workers: int) -> list[PassageSample]:
    """The run's paths in `workers` contiguous ranges: range 0 scanned
    here, every other one by a forked child that sends its pickled samples,
    or the traceback of its failure, back through a pipe; one worker forks
    nothing.  Every child is reaped before this returns or raises.
    """
    bounds = [config.paths * k // workers for k in range(workers + 1)]
    children = []  # (pid, pipe, first, count) of every unreaped child
    try:
        for first, end in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Leave only by os._exit: returning or raising would run the
                # caller's code (a test runner, say) on in this process, and
                # exiting normally would flush buffers inherited unwritten.
                status = 1
                try:
                    os.close(read)
                    try:
                        data = pickle.dumps(_scan_paths(config, first, end - first))
                    except Exception:  # the caller raises it with this text
                        data = pickle.dumps(traceback.format_exc())
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, open(read, "rb"), first, end - first))
            os.close(write)
        out = _scan_paths(config, 0, bounds[1])
        while children:
            pid, pipe, first, count = children[0]
            with pipe:
                try:
                    result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError) as exc:  # it died before or while writing
                    result = f"its result could not be read: {exc!r}"
            os.waitpid(pid, 0)
            children.pop(0)
            if isinstance(result, str):
                raise RuntimeError(f"the worker for paths {first}..{first + count - 1} failed:\n{result}")
            out += result
        return out
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def run(config: SimConfig) -> list[PassageSample]:
    """All paths of the run, indexed by stream; equal to per-index simulate_path.

    A large run is split into contiguous path ranges, one per CPU the
    process may use, each scanned in its own process (see "Workers" in the
    module docstring); the result is the same list, byte for byte.
    """
    np.empty(_HEAP_PRIME_BYTES, dtype=np.uint8)  # freed at once; see _HEAP_PRIME_BYTES
    return _scan_split(config, _workers(config))


def _uncensored(samples: Sequence[PassageSample], least: int) -> tuple[np.ndarray, np.ndarray, int]:
    """tau and area of the uncensored samples, at least `least` of them, and the censored count."""
    taus = np.array([s.tau for s in samples if not s.censored])
    areas = np.array([s.area for s in samples if not s.censored])
    if len(taus) < least:
        raise InsufficientSamplesError(f"need at least {least} uncensored samples, have {len(taus)}")
    return taus, areas, len(samples) - len(taus)


def _mean(samples: Sequence[PassageSample], per_path) -> EstimatorSummary:
    """Sample mean and standard error of per_path(taus, areas)."""
    taus, areas, censored = _uncensored(samples, MIN_SAMPLES)
    vals = per_path(taus, areas)
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    return EstimatorSummary(float(vals.mean()), se, len(vals), censored)


def estimate_joint_moment(
    samples: Sequence[PassageSample], m: int, n: int
) -> EstimatorSummary:
    """Sample mean and standard error of tau^m * area^n."""
    m, n = moments._validate_index((m, n))
    return _mean(samples, lambda taus, areas: taus**m * areas**n)


def estimate_correlation(samples: Sequence[PassageSample]) -> EstimatorSummary:
    """Pearson correlation of (tau, area); Fisher-z delta standard error."""
    taus, areas, censored = _uncensored(samples, MIN_CORRELATION_SAMPLES)
    if taus.var() == 0.0 or areas.var() == 0.0:
        raise DegenerateVarianceError("tau or area sample variance is zero")
    r = float(np.corrcoef(taus, areas)[0, 1])
    se = (1.0 - r * r) / math.sqrt(len(taus) - 3)
    return EstimatorSummary(r, se, len(taus), censored)


def estimate_time_average(samples: Sequence[PassageSample]) -> EstimatorSummary:
    """Sample mean and standard error of area/tau per path."""
    return _mean(samples, lambda taus, areas: areas / taus)


def estimate_density(samples: Sequence[PassageSample], bins: int) -> HistogramDensity:
    """Normalized area histogram over [0, 99.5th percentile]."""
    if bins < 2:
        raise ValueError(f"bins must be at least 2, got {bins}")
    _, areas, _ = _uncensored(samples, MIN_SAMPLES)
    mass, edges = np.histogram(areas, bins=bins, range=(0.0, float(np.percentile(areas, 99.5))), density=True)
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
