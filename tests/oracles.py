"""Independent oracles used by the test suite.

The scaled exponential integral shares no code path with the quadrature
of tests/quad.py: it is evaluated by classical means (power series for
z <= 1, modified Lentz continued fraction beyond).  The shipped closed
form of the expected time average follows the same recipe, so a
comparison with this oracle checks the recipe was typed twice alike, not
that it is right; scipy.special.exp1 and the quadrature are the
independent references for that (tests/test_closed_forms.py).

`mean_fpa`, `second_moment_fpa`, `var_fpa` and `mean_tau_a` are the
low-order area moments in closed form: the exact readouts V_{0,1},
V_{0,2}, V_{0,2} - V_{0,1}^2 and V_{1,1} of the moment engine, typed out
as double-precision formulas.  `mean_fpa` spells the expression of
`closed_forms._area_bracket`, so `w_joint` at lambda1 = 0 equals it
bitwise.

`solve_explicit_inverse` solves the moment recursion by a route other than
the shipped integer recursion: the closed-form inverse of its coefficient
matrix, in `Fraction` arithmetic, over a plain {index: Poly} table.

`scan_rows_one_pass` is the row scan as it was before the bridge band:
one pass over a whole block, with a uniform drawn for every step, and a
status code and the crossing state returned per row.  The two-phase
kernels must reproduce it bit for bit while reading uniforms only from
each row's band entry on.
"""

import math
from fractions import Fraction

import numpy as np

from fparea.kernels import BRIDGE_LOG_FLOOR
from fparea.laurent import Poly

EULER_GAMMA = 0.5772156649015328606

# per-row outcome of `scan_rows_one_pass`
NO_EVENT = 0
ENDPOINT_HIT = 1
BRIDGE_HIT = 2


def exp1_scaled(z: float) -> float:
    """e^z * E1(z) for z > 0, accurate to ~1e-14 relative."""
    if z <= 1.0:
        total = 0.0
        term = 1.0
        for k in range(1, 80):
            term *= z / k
            add = term / k
            total += add if k % 2 == 1 else -add
            if add < 1e-18:
                break
        return math.exp(z) * (-EULER_GAMMA - math.log(z) + total)
    # modified Lentz on E1(z) = e^-z / (z+1- 1/(z+3- 4/(z+5- 9/(...))))
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError(f"continued fraction failed to settle at z={z}")


def _drifted(params):
    if params.mu <= 0:
        raise ValueError(f"mu must be positive here, got {params.mu}")
    return params.x, params.mu


def mean_fpa(params) -> float:
    """E[A] = x^2/(2 mu) + x/(2 mu^2)."""
    x, mu = _drifted(params)
    return x * x / (2.0 * mu) + x / (2.0 * (mu * mu))


def second_moment_fpa(params) -> float:
    """E[A^2] = x^4/(4 mu^2) + 5x^3/(6 mu^3) + 5x^2/(4 mu^4) + 5x/(4 mu^5)."""
    x, mu = _drifted(params)
    return (
        x**4 / (4.0 * mu**2)
        + 5.0 * x**3 / (6.0 * mu**3)
        + 5.0 * x**2 / (4.0 * mu**4)
        + 5.0 * x / (4.0 * mu**5)
    )


def var_fpa(params) -> float:
    """Var[A] = x^3/(3 mu^3) + x^2/mu^4 + 5x/(4 mu^5)."""
    x, mu = _drifted(params)
    return x**3 / (3.0 * mu**3) + x**2 / mu**4 + 5.0 * x / (4.0 * mu**5)


def mean_tau_a(params) -> float:
    """E[tau * A] = x^3/(2 mu^2) + x^2/mu^3 + x/mu^4."""
    x, mu = _drifted(params)
    return x**3 / (2.0 * mu**2) + x**2 / mu**3 + x / mu**4


def solve_explicit_inverse(idx, table):
    """V_{m,n} through the closed-form inverse of its coefficient system.

    At mu = 1 (the weight 2m+3n of the result restores mu) the coefficient
    equations read M a = r with M upper bidiagonal (M_ii = -i,
    M_{i,i+1} = i(i+1)/2).  Row i of r collects the gamma^{i-1} coefficient
    of the right-hand side: the dependency columns are padded down by one
    (tau route, scaled by -m) and by two (area route, scaled by -n),
    constants included, which is where the base entry V_{0,0} = 1 enters
    for the edge rows of the lattice.

    The inverse is upper triangular with C_ii = -1/i and the uniform ratio
    C_{i,j+1} = C_{i,j} * j/2; it is applied as a triangular map, never
    materialized.
    """
    m, n = idx
    N = m + 2 * n
    r = [Fraction(0)] * (N + 1)
    if m >= 1:
        dep = table[m - 1, n]
        for i in range(1, N + 1):
            r[i] -= m * dep.coefficient(i - 1)
    if n >= 1:
        dep = table[m, n - 1]
        for i in range(1, N + 1):
            r[i] -= n * dep.coefficient(i - 2)
    a = [Fraction(0)] * (N + 1)
    for i in range(1, N + 1):
        c = Fraction(-1, i)
        acc = c * r[i]
        for j in range(i + 1, N + 1):
            c *= Fraction(j - 1, 2)
            acc += c * r[j]
        a[i] = acc
    return Poly(a, 2 * m + 3 * n)


def scan_rows_one_pass(x0, s_carry, area_carry, drift, sqrt_dt, dt, use_bridge, z, u):
    """Scalar one-pass scan of a (rows, steps) block; u[r, k] for every step.

    Row r walks X_{k+1} = X_k + drift + sqrt_dt * z[r, k] from
    X = x0 + s_carry[r].  A step ending at or below zero is an
    ENDPOINT_HIT; otherwise, when use_bridge, the step is a BRIDGE_HIT with
    probability exp(-2 X_k X_{k+1} / dt) decided by u[r, k].  Returns per
    row (status, j, x_before, x_after, area_before): j is the in-block
    step of the hit and the area excludes it; on NO_EVENT, j is the block
    length and the rest the end-of-block state.
    """
    rows, nsteps = z.shape
    status = np.zeros(rows, dtype=np.int64)
    index = np.empty(rows, dtype=np.int64)
    x_before = np.empty(rows)
    x_after = np.empty(rows)
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
        area_before[r] = area
    return status, index, x_before, x_after, area_before
