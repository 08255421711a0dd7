"""Joint moments of the first-passage time and area: an ODE column, Girsanov rows.

For X(t) = x - mu*t + B_t started at x > 0 and killed at its first passage
below zero, write tau for the passage time and A for the swept area.  The
moment V_{m,n}(x) = E[tau^m A^n] solves

    (1/2) V'' - mu V' = -m V_{m-1,n} - n x V_{m,n-1},    V_{m,n}(0) = 0,

and is the unique polynomial solution: degree m + 2n, vanishing constant
term.  The homogeneous part c1 + c2*exp(2*mu*x) is dropped; the polynomial
solution is the one that stays bounded as mu grows and vanishes at zero.

Brownian scaling (tau ~ mu^-2 and A ~ mu^-3 at fixed gamma = mu*x) gives
V_{m,n}(x, mu) = mu^-W * P_{m,n}(gamma) with weight W = 2m + 3n, and every
`Poly` here holds P_{m,n} as integer numerators nums_k over one den.

Column m = 0, from the ODE.  Write P_{m,n}(gamma) = sum_k q_k gamma^k /
(k! 2^(D-k)) with D = m + 2n.  Matching the coefficient of gamma^j in
(1/2) P'' - P' = -m P_{m-1,n} - n gamma P_{m,n-1} gives

    q_{j+2} - q_{j+1} = rho_j = -m q_{m-1,n}[j] - n j q_{m,n-1}[j-1],

so going down from q_{D+1} = 0, q_k = q_{k+1} - rho_{k-1}, and q_0 = 0.
No step divides, so from the base V_{0,0} = 1 (q_{0,0} = [1], the one entry
that does not vanish at zero) every q_k is an integer by induction on m+n.
A column entry's `Poly` holds nums_k = q_k (D!/k!) 2^k over D! 2^D in
lowest terms, and `assemble_rhs` reads any entry's list back from its
`Poly` as q_k = nums_k k! 2^(D-k) / den, which divides exactly.

Rows m >= 1, from the Girsanov factor.  On the sigma-field at tau, where
X_tau = 0, the drifted law has density exp(mu x - mu^2 tau/2) against the
driftless one, so e^(-mu x) V_{m,n} = E_0[tau^m A^n e^(-s tau)] with
s = mu^2/2.  Taking -d/ds = -(1/mu) d/dmu of both sides gives
V_{m+1,n} = (x V_{m,n} - dV_{m,n}/dmu) / mu, that is

    P_{m+1,n}(gamma) = (gamma + W) P_{m,n}(gamma) - gamma P'_{m,n}(gamma).

On the numerators over the same den this reads
nums'_k = (W - k) nums_k + nums_{k-1} for k = 0..D+1 (entries out of range
are 0), with weight W + 2; lowest terms can only shrink den.  No row entry
is solved from the ODE, so the ODE residual, with V(0) = 0, is an
independent check of every row entry.

No coefficient is negative.  Down the column rho_j <= 0 by induction, so
q_k >= q_{k+1} >= 0; a row step multiplies by W - k >= W - D = m + n >= 0
and adds a nonnegative neighbour.  `Poly.evaluate` relies on this for its
early float-range error.

`_polys` is the one table.  A request for an unbuilt index solves the
column up to n from its last built entry, then steps along the row from
its last built entry up to m; nothing recurses.
"""

from __future__ import annotations

import math
import numbers

from .laurent import Poly

MomentIndex = tuple[int, int]

# every built moment, P_{m,n} = _polys[m, n]; rows are contiguous from m = 0
_polys: dict[MomentIndex, Poly] = {(0, 0): Poly([1])}


def _validate_index(idx: MomentIndex) -> MomentIndex:
    if not all(isinstance(k, numbers.Integral) and k >= 0 for k in idx):
        raise ValueError(f"moment index must be two nonnegative integers, got {idx!r}")
    return (int(idx[0]), int(idx[1]))


def _integers(m: int, n: int) -> list[int]:
    """The integer list q_{m,n}: q_k = nums_k k! 2^(D-k) / den, D = m+2n."""
    poly = joint_moment(m, n)
    D = m + 2 * n
    q, f = [], 1  # f = k!
    for k, c in enumerate(poly.nums):
        q.append((c * f << (D - k)) // poly.den)
        f *= k + 1
    return q


def assemble_rhs(idx: MomentIndex) -> list[int]:
    """rho_j = -m q_{m-1,n}[j] - n j q_{m,n-1}[j-1], j < m+2n, from the neighbours' Polys."""
    m, n = idx
    rho = [0] * (m + 2 * n)
    if m:
        for j, q in enumerate(_integers(m - 1, n)):
            rho[j] -= m * q
    if n:
        for j, q in enumerate(_integers(m, n - 1), start=1):
            rho[j] -= n * j * q
    return rho


def solve_back_substitution(rho: list[int]) -> list[int]:
    """q_k = q_{k+1} - rho_{k-1} going down from q_{D+1} = 0, with q_0 = 0."""
    q = [0] * (len(rho) + 2)
    for k in range(len(rho), 0, -1):
        q[k] = q[k + 1] - rho[k - 1]
    return q[:-1]


def _column_entry(n: int) -> Poly:
    """P_{0,n} solved from the ODE, over D! 2^D with D = 2n."""
    nums = solve_back_substitution(assemble_rhs((0, n)))
    D, f = 2 * n, 1  # f = D!/k!
    for k in range(D, -1, -1):
        nums[k] = nums[k] * f << k
        f *= k or 1
    return Poly(nums, 3 * n, f << D)


def _row_step(poly: Poly) -> Poly:
    """P_{m+1,n} = (gamma + W) P_{m,n} - gamma P'_{m,n}, W = poly.weight."""
    w, nums = poly.weight, poly.nums
    step = [(w - k) * c + b for k, (c, b) in enumerate(zip(nums + (0,), (0,) + nums))]
    return Poly(step, w + 2, poly.den)


def joint_moment(m: int, n: int) -> Poly:
    """E[tau^m A^n] = mu^-(2m+3n) * P_{m,n}(mu*x), an exact Poly built once per
    index; a request for a built index of two ints is one dict lookup."""
    poly = _polys.get((m, n)) if type(m) is int and type(n) is int else None
    if poly is None:
        m, n = _validate_index((m, n))
        j = n  # down the column to its last built entry, then solve up to n
        while (0, j) not in _polys:
            j -= 1
        for j in range(j + 1, n + 1):
            _polys[0, j] = _column_entry(j)
        i = m  # left along the row to its last built entry, then step to m
        while (i, n) not in _polys:
            i -= 1
        for i in range(i + 1, m + 1):
            _polys[i, n] = _row_step(_polys[i - 1, n])
        poly = _polys[m, n]
    return poly


def correlation_from_moments(x: float, mu: float) -> float:
    """Correlation of (tau, A) computed exactly from the moment Polys.

    The mu powers cancel in cov^2 / (var_tau * var_area), which depends on
    gamma = mu*x alone.  With gamma = p/s in lowest terms, from the inputs'
    integer ratios, N_{m,n} = D! (2s)^D P_{m,n}(gamma), D = m + 2n its degree,
    is an integer for each of the five moments used: a moment's den divides
    D! 2^D, so N is (D! 2^D / den) times `Poly.homogenized(p, s)`.  The
    ratio 4 (N11 - 3 N10 N01)^2 / (3 (N20 - 2 N10^2)(N02 - 6 N01^2)) is exact
    and of degree 0 in (p, s).  One correctly rounded integer division and
    one square root give the result: the correlation of the exact moments,
    rounded twice.
    """
    if not (0 < x < math.inf and 0 < mu < math.inf):
        raise ValueError(f"x and mu must be positive and finite, got x={x}, mu={mu}")
    p, s = 1, 1
    for v in (x, mu):  # exact integer ratios, of binary floats too
        rational = isinstance(v, numbers.Rational)
        a, b = (v.numerator, v.denominator) if rational else v.as_integer_ratio()
        p, s = p * int(a), s * int(b)
    g = math.gcd(p, s)
    p, s = p // g, s // g
    n10, n01, n11, n20, n02 = (
        (math.factorial(m + 2 * n) << m + 2 * n) // poly.den * poly.homogenized(p, s)
        for m, n in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
        for poly in (joint_moment(m, n),)
    )
    cov = n11 - 3 * n10 * n01
    return math.sqrt(4 * cov * cov / (3 * (n20 - 2 * n10 * n10) * (n02 - 6 * n01 * n01)))
