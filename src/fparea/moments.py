"""Joint moments of the first-passage time and area via ODE recursion.

For X(t) = x - mu*t + B_t started at x > 0 and killed at its first passage
below zero, write tau for the passage time and A for the swept area.  The
moment V_{m,n}(x) = E[tau^m A^n] solves

    (1/2) V'' - mu V' = -m V_{m-1,n} - n x V_{m,n-1},    V_{m,n}(0) = 0,

and is the unique polynomial solution: degree m + 2n, vanishing constant
term.  The homogeneous part c1 + c2*exp(2*mu*x) is dropped entirely; the
polynomial particular solution is the one that stays bounded as mu grows
and vanishes at zero.

Brownian scaling (tau ~ mu^-2 and A ~ mu^-3 at fixed gamma = mu*x) gives
V_{m,n}(x, mu) = mu^-(2m+3n) * P_{m,n}(gamma) with rational P, so the
recursion runs at mu = 1 on the coefficients of P,
(1/2) P'' - P' = -m P_{m-1,n} - n gamma P_{m,n-1}, and the weight 2m+3n of
the `Poly` restores mu.

The base entry V_{0,0} = 1 is stored explicitly: the right-hand sides for
(1,0) and (0,1) need it, even though it breaks the vanishing-at-zero shape
every other entry obeys.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .laurent import Poly

MomentIndex = tuple[int, int]


class MissingMomentError(KeyError):
    """A recursion dependency is absent from the moment table."""


class MomentTable:
    """Memoized lattice of moment polynomials, closed under dependencies."""

    def __init__(self):
        self.entries: dict[MomentIndex, Poly] = {(0, 0): Poly([1])}

    def __contains__(self, idx: MomentIndex) -> bool:
        return idx in self.entries

    def require(self, idx: MomentIndex) -> Poly:
        try:
            return self.entries[idx]
        except KeyError:
            raise MissingMomentError(idx) from None

    def store(self, idx: MomentIndex, poly: Poly) -> None:
        m, n = idx
        # shape guard: degree m+2n, no constant term, scaling weight 2m+3n
        if poly.degree != m + 2 * n or poly.coefficient(0) or poly.weight != 2 * m + 3 * n:
            raise ValueError(f"malformed moment polynomial for {idx}")
        self.entries[idx] = poly


def _validate_index(idx: MomentIndex) -> MomentIndex:
    m, n = idx
    if m < 0 or n < 0:
        raise ValueError(f"moment index must be nonnegative, got {idx}")
    return (int(m), int(n))


def assemble_rhs(idx: MomentIndex, table: MomentTable) -> Poly:
    """Right-hand side -m V_{m-1,n} - n x V_{m,n-1}, degree m+2n-1, weight 2m+3n-2.

    The only nonzero constant term arises for idx = (1,0), where the
    dependency is V_{0,0} = 1.
    """
    m, n = _validate_index(idx)
    if (m, n) == (0, 0):
        raise ValueError("(0, 0) is the recursion base, it has no right-hand side")
    rhs = Poly()
    if m >= 1:
        rhs = rhs + Poly([-m]) * table.require((m - 1, n))
    if n >= 1:
        rhs = rhs + Poly([0, -n], weight=1) * table.require((m, n - 1))  # -n x
    return rhs


def solve_back_substitution(rhs: Poly, idx: MomentIndex) -> Poly:
    """Solve (1/2) V'' - mu V' = rhs for the degree m+2n polynomial V, V(0)=0.

    At mu = 1 the coefficient of gamma^d on both sides gives

        (d+1) * ((d+2)/2 * a_{d+2} - a_{d+1}) = r_d ,

    with a_{D+1} = 0 at the top degree D = m+2n.  The top equation fixes
    a_D = -r_{D-1}/D; each lower equation then yields a_{d+1} from a_{d+2}.
    """
    m, n = _validate_index(idx)
    D = m + 2 * n
    if D == 0:
        raise ValueError("no polynomial shape to solve for at index (0, 0)")
    a = [Fraction(0)] * (D + 1)
    a[D] = -rhs.coefficient(D - 1) / D
    for d in range(D - 2, -1, -1):
        a[d + 1] = Fraction(d + 2, 2) * a[d + 2] - rhs.coefficient(d) / (d + 1)
    return Poly(a, 2 * m + 3 * n)


_table = MomentTable()


def joint_moment(m: int, n: int) -> Poly:
    """E[tau^m A^n] = mu^-(2m+3n) * P_{m,n}(mu*x) as an exact Poly.

    Memoizing driver: fills the shared table along the dependency lattice,
    so repeated calls are cheap and idempotent.
    """
    m, n = _validate_index((m, n))
    for i in range(m + 1):
        for j in range(n + 1):
            if (i, j) not in _table:
                rhs = assemble_rhs((i, j), _table)
                _table.store((i, j), solve_back_substitution(rhs, (i, j)))
    return _table.require((m, n))


def verify_ode_residual(idx: MomentIndex, table: MomentTable) -> bool:
    """True iff (1/2) V'' - mu V' - rhs is identically zero, exactly."""
    v = table.require(_validate_index(idx))
    dv = v.differentiate()
    mu = Poly([1], weight=-1)
    return not (Poly([Fraction(1, 2)]) * dv.differentiate() - mu * dv - assemble_rhs(idx, table))


def correlation_from_moments(x: float, mu: float) -> float:
    """Correlation of (tau, A) computed from the moment table.

    The mu powers cancel in cov^2 / (var_tau * var_area), so five P_{m,n}
    (V_{m,n} at mu = 1) are evaluated exactly at the binary rational
    gamma = mu*x of the inputs and combined with one square root at the end.
    Matches the gamma closed form to near machine precision.
    """
    if x <= 0 or mu <= 0:
        raise ValueError(f"x and mu must be positive, got x={x}, mu={mu}")
    g = Fraction(x) * Fraction(mu)
    p10, p01, p11, p20, p02 = (
        joint_moment(*idx).evaluate(g, 1) for idx in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
    )
    cov = p11 - p10 * p01
    return math.sqrt(float(cov * cov / ((p20 - p10 * p10) * (p02 - p01 * p01))))
