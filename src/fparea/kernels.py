"""Row-scan kernels for the first-passage path simulator.

A kernel scans a (paths, steps) block of Gaussian increments, one path per
row, for each row's first crossing of zero.  Every row continues its own
path from its carries (running increment sum and trapezoid area), and the
kernel returns, per row, either the crossing site or the carries for the
next round.  Rows never interact, so a row's result is the one-path scan
of its own draws whatever else shares the block.

Two interchangeable backends exist: the scalar reference loop compiled
with numba, and a vectorized numpy twin used when numba is unavailable or
when FPAREA_NO_NUMBA is set.  They are bitwise-identical by construction,
which the test suite asserts draw-for-draw:

- the increment prefix sum folds each row's incoming carry into column 0,
  so the row-wise numpy cumsum performs exactly the scalar left-fold
  addition sequence, and likewise for the area;
- positions are always formed as x0 + s, never updated incrementally;
- the bridge acceptance argument is written ((-2*x_prev)*x_next)/dt in
  both, compiled without fastmath so no reassociation sneaks in, and
  short-circuited to rejection below BRIDGE_LOG_FLOOR by the same rule;
  the numpy twin calls exp only on the live lanes, gathered contiguously;
- crossing finalization (interpolation, partial areas) lives in the
  driver, shared by both backends.

Draw blocks are generated by the caller, so backends consume identical
RNG streams positionally and results cannot depend on block sizing or on
which paths share a block.
"""

from __future__ import annotations

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


def scan_rows_reference(x0, s_carry, area_carry, drift, sqrt_dt, dt, use_bridge, z, u):
    """Scalar reference scan; also the source compiled by numba.

    Row r walks X_{k+1} = X_k + drift + sqrt_dt * z[r, k] from
    X = x0 + s_carry[r].  A step ending at or below zero is an
    ENDPOINT_HIT; otherwise, when use_bridge, the step is a BRIDGE_HIT with
    probability exp(-2 X_k X_{k+1} / dt) decided by the uniform u[r, k]
    (u is not read without the bridge).

    Returns per-row arrays (status, j, x_before, x_after, s_before,
    area_before) where j is the in-block step index of the hit and the
    s/area values exclude the hit step.  On NO_EVENT, j is the block
    length and the last four values are the end-of-block state (x
    repeated twice).
    """
    rows, nsteps = z.shape
    status = np.zeros(rows, dtype=np.int64)
    index = np.empty(rows, dtype=np.int64)
    x_before = np.empty(rows)
    x_after = np.empty(rows)
    s_before = np.empty(rows)
    area_before = np.empty(rows)
    for r in range(rows):
        s = s_carry[r]
        area = area_carry[r]
        x = x0 + s
        x_next = x
        at = nsteps
        for j in range(nsteps):
            s_next = s + (drift + sqrt_dt * z[r, j])
            x_next = x0 + s_next
            if x_next <= 0.0:
                status[r] = ENDPOINT_HIT
                at = j
                break
            if use_bridge:
                arg = ((-2.0 * x) * x_next) / dt
                if arg >= BRIDGE_LOG_FLOOR and u[r, j] < np.exp(arg):
                    status[r] = BRIDGE_HIT
                    at = j
                    break
            area = area + (0.5 * (x + x_next)) * dt
            s = s_next
            x = x_next
        index[r] = at
        x_before[r] = x
        x_after[r] = x_next
        s_before[r] = s
        area_before[r] = area
    return status, index, x_before, x_after, s_before, area_before


def scan_rows_numpy(x0, s_carry, area_carry, drift, sqrt_dt, dt, use_bridge, z, u):
    """Vectorized twin of `scan_rows_reference`; see module docstring."""
    rows, nsteps = z.shape
    s = np.multiply(z, sqrt_dt)
    s += drift
    s[:, 0] += s_carry
    np.cumsum(s, axis=1, out=s)
    x_next = s + x0
    x_prev = np.empty_like(x_next)
    x_prev[:, 0] = s_carry + x0
    x_prev[:, 1:] = x_next[:, :-1]

    event = x_next <= 0.0
    if use_bridge:
        arg = x_prev * -2.0
        arg *= x_next
        arg /= dt
        flat = arg.reshape(-1)
        live = np.flatnonzero(flat >= BRIDGE_LOG_FLOOR)
        p = np.zeros(arg.shape)
        if live.size:
            # past an endpoint hit the argument goes positive and can
            # overflow; those lanes are dead, the endpoint hit wins first
            with np.errstate(over="ignore"):
                p.reshape(-1)[live] = np.exp(flat[live])
        event |= u < p

    r = np.arange(rows)
    j = event.argmax(axis=1)
    j[~event[r, j]] = nsteps
    # for a NO_EVENT row, j - 1 is the last column: the end-of-block state;
    # for a hit at j = 0, column -1 is a placeholder the carries replace
    first = j == 0
    x_after = x_next[r, np.minimum(j, nsteps - 1)]
    x_before = np.where(first, x_prev[:, 0], x_next[r, j - 1])
    s_before = np.where(first, s_carry, s[r, j - 1])
    trap = x_prev
    trap += x_next
    trap *= 0.5
    trap *= dt
    trap[:, 0] += area_carry
    np.cumsum(trap, axis=1, out=trap)
    area_before = np.where(first, area_carry, trap[r, j - 1])
    status = np.where(x_after <= 0.0, ENDPOINT_HIT, BRIDGE_HIT)
    status[j == nsteps] = NO_EVENT
    return status, j, x_before, x_after, s_before, area_before


if HAS_NUMBA:
    scan_rows_compiled = njit(cache=True, fastmath=False)(scan_rows_reference)
else:  # pragma: no cover
    scan_rows_compiled = None

_force_numpy = bool(os.environ.get("FPAREA_NO_NUMBA"))
USING_NUMBA = HAS_NUMBA and not _force_numpy

# mc looks this up at call time, so tests can swap backends per-case.
scan_rows = scan_rows_compiled if USING_NUMBA else scan_rows_numpy


def backend_name() -> str:
    return "numba" if scan_rows is not None and scan_rows is scan_rows_compiled else "numpy"
