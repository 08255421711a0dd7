"""Row-scan kernels for the first-passage path simulator.

A kernel scans a (paths, steps) block of Gaussian increments, one path per
row, for each row's first crossing of zero.  Every row continues its own
path from its carries (running increment sum and trapezoid area), and the
kernel returns, per row, either the crossing site or the carries for the
next round.  Rows never interact, so a row's result is the one-path scan
of its own draws whatever else shares the block.

A block is scanned in two phases, so that bridge uniforms are drawn only
where the bridge can fire:

1. `walk_rows` forms the positions of every row and finds two columns per
   row: `stop`, the first step ending at or below zero, and `entry`, the
   first step starting or ending within `bridge_band(dt)` of zero.  A step
   with both ends above the band has -2 X_k X_{k+1}/dt below
   BRIDGE_LOG_FLOOR, so the bridge cannot fire before `entry`.  A band of
   0 switches the bridge off: no row starts at zero, so entry == stop.
2. The caller draws the uniforms of the rows with entry < stop, from
   column `entry` to the block end, and `scan_rows` runs the bridge test on
   columns entry .. stop-1 of those rows.  It reads no uniform before a
   row's entry, nor any of a row with entry == stop, so those slots of `u`
   may hold anything.

Two interchangeable backends exist: the scalar reference loops compiled
with numba, and vectorized numpy twins used when numba is unavailable or
when FPAREA_NO_NUMBA is set.  They are bitwise-identical by construction,
which the test suite asserts draw-for-draw:

- the increment prefix sum folds each row's incoming carry into column 0,
  so the row-wise numpy cumsum performs exactly the scalar left-fold
  addition sequence, and likewise for the area;
- positions are always formed as x0 + s, never updated incrementally;
- the bridge acceptance argument is written ((-2*x_prev)*x_next)/dt in
  both, compiled without fastmath so no reassociation sneaks in, and
  short-circuited to rejection below BRIDGE_LOG_FLOOR by the same rule;
  the numpy twin computes it only on the rows with entry < stop and calls
  exp only on their live lanes, gathered contiguously;
- crossing finalization (interpolation, partial areas) lives in the
  driver, shared by both backends.

The numba build compiles the reference source unchanged; where numba is
not installed it is neither compiled nor timed, and the numpy twin is the
backend that runs.

Draw blocks are generated by the caller, so backends consume identical
RNG streams positionally and results cannot depend on block sizing or on
which paths share a block.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - environment without numba
    njit = None
    HAS_NUMBA = False

NO_EVENT = 0
ENDPOINT_HIT = 1
BRIDGE_HIT = 2

# Bridge acceptance short-circuit: below this log-probability exp underflows
# to at most one subnormal ulp, so the test is defined to reject without
# evaluating exp.  Both backends apply the identical rule.
BRIDGE_LOG_FLOOR = -745.0


def bridge_band(dt: float) -> float:
    """Distance from zero within which a step's bridge test can pass.

    Both ends above sqrt(-BRIDGE_LOG_FLOOR*dt/2) put the exact argument
    -2 X_k X_{k+1}/dt below the floor; the slack of 1e-6 covers the few
    roundings of the computed argument and of the band itself.
    """
    return math.sqrt(-BRIDGE_LOG_FLOOR * dt / 2.0) * (1.0 + 1e-6)


def walk_rows_reference(x0, s_carry, drift, sqrt_dt, band, z):
    """Phase 1, scalar reference; also the source compiled by numba.

    Row r walks X_{k+1} = X_k + drift + sqrt_dt * z[r, k] from
    X = x0 + s_carry[r].  Returns (s, x, entry, stop): the running sums
    and positions X after every step of the block, the first column whose
    step starts or ends at or below `band`, and the first column whose
    step ends at or below zero (either is the block length if none).
    """
    rows, nsteps = z.shape
    s = np.empty((rows, nsteps))
    x = np.empty((rows, nsteps))
    entry = np.full(rows, nsteps, dtype=np.int64)
    stop = np.full(rows, nsteps, dtype=np.int64)
    for r in range(rows):
        acc = s_carry[r]
        if x0 + acc <= band:
            entry[r] = 0
        for j in range(nsteps):
            acc = acc + (drift + sqrt_dt * z[r, j])
            s[r, j] = acc
            x[r, j] = x0 + acc
            if x[r, j] <= band and entry[r] == nsteps:
                entry[r] = j
            if x[r, j] <= 0.0 and stop[r] == nsteps:
                stop[r] = j
    return s, x, entry, stop


def scan_rows_reference(x0, s_carry, area_carry, dt, s, x, entry, stop, u):
    """Phase 2, scalar reference; also the source compiled by numba.

    Takes the walk of `walk_rows_reference`.  A step ending at or below
    zero (column stop[r]) is an ENDPOINT_HIT; a step j in
    entry[r] .. stop[r]-1 is a BRIDGE_HIT with probability
    exp(-2 X_k X_{k+1} / dt) decided by the uniform u[r, j], the only
    uniforms read.

    Returns per-row arrays (status, j, x_before, x_after, s_before,
    area_before) where j is the in-block step index of the hit and the
    s/area values exclude the hit step.  On NO_EVENT, j is the block
    length and the last four values are the end-of-block state (x
    repeated twice).
    """
    rows, nsteps = x.shape
    status = np.zeros(rows, dtype=np.int64)
    index = np.empty(rows, dtype=np.int64)
    x_before = np.empty(rows)
    x_after = np.empty(rows)
    s_before = np.empty(rows)
    area_before = np.empty(rows)
    for r in range(rows):
        s_prev = s_carry[r]
        area = area_carry[r]
        x_prev = x0 + s_prev
        at = stop[r]
        if at < nsteps:
            status[r] = ENDPOINT_HIT
        for j in range(stop[r]):
            x_next = x[r, j]
            if j >= entry[r]:
                arg = ((-2.0 * x_prev) * x_next) / dt
                if arg >= BRIDGE_LOG_FLOOR and u[r, j] < np.exp(arg):
                    status[r] = BRIDGE_HIT
                    at = j
                    break
            area = area + (0.5 * (x_prev + x_next)) * dt
            s_prev = s[r, j]
            x_prev = x_next
        index[r] = at
        x_before[r] = x_prev
        x_after[r] = x[r, min(at, nsteps - 1)]
        s_before[r] = s_prev
        area_before[r] = area
    return status, index, x_before, x_after, s_before, area_before


def _first(mask, nsteps):
    """First True column of every row of `mask`, nsteps where none."""
    j = mask.argmax(axis=1)
    j[~mask[np.arange(mask.shape[0]), j]] = nsteps
    return j


def walk_rows_numpy(x0, s_carry, drift, sqrt_dt, band, z):
    """Vectorized twin of `walk_rows_reference`; see module docstring."""
    nsteps = z.shape[1]
    s = np.multiply(z, sqrt_dt)
    s += drift
    s[:, 0] += s_carry
    np.cumsum(s, axis=1, out=s)
    x = s + x0
    entry = _first(x <= band, nsteps)
    entry[s_carry + x0 <= band] = 0
    return s, x, entry, _first(x <= 0.0, nsteps)


def scan_rows_numpy(x0, s_carry, area_carry, dt, s, x, entry, stop, u):
    """Vectorized twin of `scan_rows_reference`; see module docstring."""
    rows, nsteps = x.shape
    x_prev = np.empty_like(x)
    x_prev[:, 0] = s_carry + x0
    x_prev[:, 1:] = x[:, :-1]

    j = stop.copy()
    near = np.flatnonzero(entry < stop)
    if near.size:
        whole = near.size == rows
        arg = (x_prev if whole else x_prev[near]) * -2.0
        arg *= x if whole else x[near]
        arg /= dt
        flat = arg.reshape(-1)
        # live lanes all lie at or past entry (the band is necessary for
        # them); those past stop are dead, the endpoint hit wins first, and
        # there the argument can go positive and exp overflow
        live = np.flatnonzero(flat >= BRIDGE_LOG_FLOOR)
        drawn = (u if whole else u[near]).reshape(-1)[live]
        with np.errstate(over="ignore"):
            fire = live[drawn < np.exp(flat[live])]
        np.minimum.at(j, near[fire // nsteps], fire % nsteps)

    r = np.arange(rows)
    # for a NO_EVENT row, j - 1 is the last column: the end-of-block state;
    # for a hit at j = 0, column -1 is a placeholder the carries replace
    first = j == 0
    x_after = x[r, np.minimum(j, nsteps - 1)]
    x_before = np.where(first, x_prev[:, 0], x[r, j - 1])
    s_before = np.where(first, s_carry, s[r, j - 1])
    trap = x_prev
    trap += x
    trap *= 0.5
    trap *= dt
    trap[:, 0] += area_carry
    np.cumsum(trap, axis=1, out=trap)
    area_before = np.where(first, area_carry, trap[r, j - 1])
    status = np.where(j == stop, ENDPOINT_HIT, BRIDGE_HIT)
    status[j == nsteps] = NO_EVENT
    return status, j, x_before, x_after, s_before, area_before


if HAS_NUMBA:
    _compile = njit(cache=True, fastmath=False)
    walk_rows_compiled = _compile(walk_rows_reference)
    scan_rows_compiled = _compile(scan_rows_reference)
else:  # pragma: no cover
    walk_rows_compiled = scan_rows_compiled = None

_force_numpy = bool(os.environ.get("FPAREA_NO_NUMBA"))
USING_NUMBA = HAS_NUMBA and not _force_numpy

# mc looks these up at call time, so tests can swap backends per-case.
if USING_NUMBA:
    walk_rows, scan_rows = walk_rows_compiled, scan_rows_compiled
else:
    walk_rows, scan_rows = walk_rows_numpy, scan_rows_numpy


def backend_name() -> str:
    return "numba" if scan_rows is not None and scan_rows is scan_rows_compiled else "numpy"
