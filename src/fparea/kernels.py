"""Row-scan kernels for the first-passage path simulator.

A kernel scans a block of Gaussian increments, one path per row, for each
row's first crossing of zero.  Every row continues its own path from its
carries (running increment sum and trapezoid area).  Rows never interact,
so a row's result is the one-path scan of its own draws whatever else
shares the block.

Block layout: a round of `size` steps is a (rows, size+1) block whose
column 0 holds the carries.  The caller draws step k's normal into column
k+1 of `z`, whose column 0 is never read and which the walk may overwrite.
Column j of the walked arrays is the state after j steps of the block, so
column 0 is the incoming carry, and step j of the block runs from column j
to column j+1.

A block is scanned in two phases, so that bridge uniforms are drawn only
where the bridge can fire:

1. `walk_rows` folds the increments and the trapezoid areas into `x` and
   `area`, returns each row's running sum after the block (its next
   carry), and finds two columns per row: `stop`, the first step ending at
   or below zero, and `entry`, the first step starting or ending within
   `bridge_band(dt)` of zero (either is `size` if none).  A step with both
   ends above the band has -2 X_j X_{j+1}/dt below BRIDGE_LOG_FLOOR, so
   the bridge cannot fire before `entry`.  A band of 0 switches the bridge
   off: no row starts at zero, so entry == stop.
2. `scan_rows` takes only the rows with entry < stop, and the caller draws
   their uniforms, u[r, j] for step j from `entry` to `stop` - 1.  It runs
   the bridge test on exactly those steps and returns one column per row:
   the first step whose bridge test fires, else `stop`, which is also the
   column of every row not passed.  A column below `size` means a crossing
   in that step, by the bridge if below `stop`; everything else the caller
   needs it gathers from the walk.  The scan reads no uniform before a
   row's entry or at or past its stop.  Passing a row with entry == stop
   breaks its precondition: at a band of 0 a step just above zero has a
   live argument, whose uniform `scan_rows` would read.

Each phase has one kernel, vectorized in numpy (`walk_rows`, `scan_rows`),
and a scalar reference loop (`walk_rows_reference`, `scan_rows_reference`)
that the tests run against it draw for draw.  `mc` looks the kernels up at
call time, so a test can swap the references in.  Kernel and reference are
bitwise-identical by construction:

- the numpy walk writes each row's carry into column 0 before its
  row-wise cumsum, so the cumsum performs exactly the scalar left-fold
  addition sequence, for the sums and likewise for the areas;
- positions are always formed as x0 + s, never updated incrementally;
- the trapezoid of step j is (0.5*(X_j + X_{j+1}))*dt in both; the numpy
  walk forms it over the flattened block, where the one lane that
  straddles two rows lands in column 0 and is replaced by the carry;
- the bridge acceptance argument is written ((-2*X_j)*X_{j+1})/dt in
  both, and short-circuited to rejection below BRIDGE_LOG_FLOOR by the
  same rule; the numpy scan calls exp only on the live lanes, gathered
  contiguously;
- crossing finalization (interpolation, partial areas) lives in `mc`,
  shared by both.

Draw blocks are generated by the caller, so kernel and reference consume
identical RNG streams positionally and results cannot depend on block
sizing or on which paths share a block.
"""

from __future__ import annotations

import math

import numpy as np

# Bridge acceptance short-circuit: below this log-probability exp underflows
# to at most one subnormal ulp, so the test is defined to reject without
# evaluating exp.  The kernel and its reference apply the identical rule.
BRIDGE_LOG_FLOOR = -745.0


def bridge_band(dt: float) -> float:
    """Distance from zero within which a step's bridge test can pass.

    Both ends above sqrt(-BRIDGE_LOG_FLOOR*dt/2) put the exact argument
    -2 X_j X_{j+1}/dt below the floor; the slack of 1e-6 covers the few
    roundings of the computed argument and of the band itself.
    """
    return math.sqrt(-BRIDGE_LOG_FLOOR * dt / 2.0) * (1.0 + 1e-6)


def walk_rows_reference(x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z):
    """Phase 1, scalar reference: the oracle for `walk_rows`.

    Row r walks X_{j+1} = X_j + drift + sqrt_dt * z[r, j+1] from
    X_0 = x0 + s_carry[r], adding the trapezoid (X_j + X_{j+1})/2 * dt of
    each step to area_carry[r].  Returns (s, x, area, entry, stop): the
    running increment sums after the block, the positions and areas, each
    (rows, size+1) with the carries in column 0, then the first step
    starting or ending at or below `band` and the first step ending at or
    below zero (either is `size` if none).
    """
    rows, cols = z.shape
    size = cols - 1
    s = np.empty(rows)
    x = np.empty((rows, cols))
    area = np.empty((rows, cols))
    entry = np.full(rows, size, dtype=np.int64)
    stop = np.full(rows, size, dtype=np.int64)
    for r in range(rows):
        s[r] = s_carry[r]
        x[r, 0] = x0 + s[r]
        area[r, 0] = area_carry[r]
        for j in range(size):
            s[r] += drift + sqrt_dt * z[r, j + 1]
            x[r, j + 1] = x0 + s[r]
            area[r, j + 1] = area[r, j] + (0.5 * (x[r, j] + x[r, j + 1])) * dt
            if min(x[r, j], x[r, j + 1]) <= band and entry[r] == size:
                entry[r] = j
            if x[r, j + 1] <= 0.0 and stop[r] == size:
                stop[r] = j
    return s, x, area, entry, stop


def scan_rows_reference(dt, x, entry, stop, u):
    """Phase 2, scalar reference: the oracle for `scan_rows`.

    Takes the rows of `walk_rows_reference` with entry < stop: their
    positions, entry and stop.  Step j in entry[r] .. stop[r]-1 crosses
    by the bridge with probability exp(-2 X_j X_{j+1} / dt), decided by
    the uniform u[r, j], the only uniforms read.  Returns per row the
    first step that crosses so, or stop[r] when none does.
    """
    at = stop.copy()
    for r in range(x.shape[0]):
        for j in range(entry[r], stop[r]):
            arg = ((-2.0 * x[r, j]) * x[r, j + 1]) / dt
            if arg >= BRIDGE_LOG_FLOOR and u[r, j] < np.exp(arg):
                at[r] = j
                break
    return at


def _first(mask):
    """First True column of every row of `mask`, the column count where none."""
    j = mask.argmax(axis=1)
    j[~mask[np.arange(mask.shape[0]), j]] = mask.shape[1]
    return j


def walk_rows(x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z):
    """Phase 1, vectorized; bitwise equal to `walk_rows_reference`."""
    z *= sqrt_dt
    z += drift
    z[:, 0] = s_carry
    np.cumsum(z, axis=1, out=z)
    s = z[:, -1].copy()
    x = np.add(z, x0, out=z)
    area = np.empty_like(x)
    flat = x.reshape(-1)
    trap = area.reshape(-1)[1:]
    np.add(flat[:-1], flat[1:], out=trap)
    trap *= 0.5
    trap *= dt
    area[:, 0] = area_carry
    np.cumsum(area, axis=1, out=area)
    # column 0 is a live row's carry, above zero, so stop >= 0
    entry = np.maximum(_first(x <= band) - 1, 0)
    return s, x, area, entry, _first(x <= 0.0) - 1


def scan_rows(dt, x, entry, stop, u):
    """Phase 2, vectorized; bitwise equal to `scan_rows_reference`."""
    arg = x[:, :-1] * -2.0
    arg *= x[:, 1:]
    arg /= dt
    # live lanes all lie at or past entry (the band is necessary for
    # them); the row-wise mask drops those at or past stop, as their
    # uniforms are not drawn.  Before stop both ends are positive, so
    # exp(arg) <= 1.
    size = arg.shape[1]
    live = arg >= BRIDGE_LOG_FLOOR
    live &= np.arange(size) < stop[:, None]
    live = np.flatnonzero(live)
    fire = live[u.reshape(-1)[live] < np.exp(arg.reshape(-1)[live])]
    at = stop.copy()
    np.minimum.at(at, fire // size, fire % size)
    return at
