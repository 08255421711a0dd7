"""Joint moments of the first-passage time and area via ODE recursion.

For X(t) = x - mu*t + B_t started at x > 0 and killed at its first passage
below zero, write tau for the passage time and A for the swept area.  The
moment V_{m,n}(x) = E[tau^m A^n] solves

    (1/2) V'' - mu V' = -m V_{m-1,n} - n x V_{m,n-1},    V_{m,n}(0) = 0,

and is the unique polynomial solution: degree m + 2n, vanishing constant
term.  The homogeneous part c1 + c2*exp(2*mu*x) is dropped; the polynomial
solution is the one that stays bounded as mu grows and vanishes at zero.

Brownian scaling (tau ~ mu^-2 and A ~ mu^-3 at fixed gamma = mu*x) gives
V_{m,n}(x, mu) = mu^-(2m+3n) * P_{m,n}(gamma), and the recursion runs at
mu = 1.  Write P_{m,n}(gamma) = sum_k q_k gamma^k / (k! 2^(D-k)) with
D = m + 2n.  Matching the coefficient of gamma^j in
(1/2) P'' - P' = -m P_{m-1,n} - n gamma P_{m,n-1} gives

    q_{j+2} - q_{j+1} = rho_j = -m q_{m-1,n}[j] - n j q_{m,n-1}[j-1],

so going down from q_{D+1} = 0, q_k = q_{k+1} - rho_{k-1}, and q_0 = 0.
No step divides, so from the base V_{0,0} = 1 (q_{0,0} = [1], the one entry
that does not vanish at zero) every q_k is an integer by induction on m+n.
The filled set is a staircase of rows by m, each contiguous in n.  The
`Poly` of an index, made once it is requested, holds nums_k =
q_k (D!/k!) 2^k built over D! 2^D, stored in lowest terms.
"""

from __future__ import annotations

import math
import numbers

from .laurent import Poly

MomentIndex = tuple[int, int]

# the staircase of integer lists, q_{m,n} = _rows[m][n], and the Polys built from them
_rows: list[list[list[int]]] = [[[1]]]
_polys: dict[MomentIndex, Poly] = {}


def _validate_index(idx: MomentIndex) -> MomentIndex:
    if not all(isinstance(k, numbers.Integral) and k >= 0 for k in idx):
        raise ValueError(f"moment index must be two nonnegative integers, got {idx!r}")
    return (int(idx[0]), int(idx[1]))


def assemble_rhs(idx: MomentIndex) -> list[int]:
    """rho_j = -m q_{m-1,n}[j] - n j q_{m,n-1}[j-1], j < m+2n, from filled lists."""
    m, n = idx
    rho = [0] * (m + 2 * n)
    if m:
        for j, q in enumerate(_rows[m - 1][n]):
            rho[j] -= m * q
    if n:
        for j, q in enumerate(_rows[m][n - 1], start=1):
            rho[j] -= n * j * q
    return rho


def solve_back_substitution(rho: list[int]) -> list[int]:
    """q_k = q_{k+1} - rho_{k-1} going down from q_{D+1} = 0, with q_0 = 0."""
    q = [0] * (len(rho) + 2)
    for k in range(len(rho), 0, -1):
        q[k] = q[k + 1] - rho[k - 1]
    return q[:-1]


def _fill(m: int, n: int) -> list[int]:
    """The integer list q_{m,n}, after extending rows 0..m through column n."""
    _rows.extend([] for _ in range(len(_rows), m + 1))
    for i, row in enumerate(_rows[: m + 1]):
        for j in range(len(row), n + 1):
            row.append(solve_back_substitution(assemble_rhs((i, j))))
    return _rows[m][n]


def joint_moment(m: int, n: int) -> Poly:
    """E[tau^m A^n] = mu^-(2m+3n) * P_{m,n}(mu*x), an exact Poly built once per
    index after the integer lists are filled over the rectangle up to (m, n)."""
    m, n = _validate_index((m, n))
    if (m, n) not in _polys:
        D = m + 2 * n
        nums, f = list(_fill(m, n)), 1  # f = D!/k!
        for k in range(D, -1, -1):
            nums[k] = nums[k] * f << k
            f *= k or 1
        _polys[m, n] = Poly(nums, 2 * m + 3 * n, f << D)
    return _polys[m, n]


def verify_ode_residual(idx: MomentIndex, poly: Poly) -> bool:
    """True iff (1/2) V'' - mu V' + m V_{m-1,n} + n x V_{m,n-1} = 0 exactly for
    V = poly, in `Poly` algebra over `joint_moment`'s lower moments."""
    m, n = _validate_index(idx)
    if poly.weight != 2 * m + 3 * n:
        return False
    dv = poly.differentiate()
    residual = Poly([1], den=2) * dv.differentiate() - Poly([1], weight=-1) * dv  # mu V'
    if m:
        residual = residual + Poly([m]) * joint_moment(m - 1, n)
    if n:
        residual = residual + Poly([0, n], weight=1) * joint_moment(m, n - 1)  # n x
    return not residual


def _scaled_value(idx: MomentIndex, p: int, s: int) -> int:
    """D! (2s)^D P_{m,n}(p/s) = sum_k q_k (2p)^k prod_{i=k+1..D} (i s), an integer."""
    q = _fill(*idx)
    t = 2 * p
    acc, w = 0, 1
    for k in range(len(q) - 1, -1, -1):
        acc = acc * t + q[k] * w
        w *= k * s
    return acc


def correlation_from_moments(x: float, mu: float) -> float:
    """Correlation of (tau, A) computed from the integer moment lists.

    The mu powers cancel in cov^2 / (var_tau * var_area), which depends on
    gamma = mu*x alone.  With gamma = p/s from the inputs' integer ratios
    (s a power of 2 for floats), N_{m,n} = D! (2s)^D P_{m,n}(gamma) with
    D = m + 2n is an integer for each of the five moments used, and the
    ratio is
    4 (N11 - 3 N10 N01)^2 / (3 (N20 - 2 N10^2)(N02 - 6 N01^2)) exactly.  One
    correctly rounded integer division and one square root give the result:
    the correlation of the exact moments, rounded twice.
    """
    if not (0 < x < math.inf and 0 < mu < math.inf):
        raise ValueError(f"x and mu must be positive and finite, got x={x}, mu={mu}")
    p, s = 1, 1
    for v in (x, mu):  # exact integer ratios, of binary floats too
        rational = isinstance(v, numbers.Rational)
        a, b = (v.numerator, v.denominator) if rational else v.as_integer_ratio()
        p, s = p * int(a), s * int(b)
    n10, n01, n11, n20, n02 = (
        _scaled_value(idx, p, s) for idx in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
    )
    cov = n11 - 3 * n10 * n01
    return math.sqrt(4 * cov * cov / (3 * (n20 - 2 * n10 * n10) * (n02 - 6 * n01 * n01)))
