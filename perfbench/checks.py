"""Correctness checks written apart from the program under test.

Nothing here imports fparea.  Every reference value is a formula written
out below, or exact Fraction arithmetic on the text the program rendered:

- simulated samples are compared with the known moments of (tau, A) within
  a stated number of their own standard errors;
- the simulated correlation is compared with rho(gamma) within a tolerance
  set from the spread of independent replicates (see README.md);
- rendered moment polynomials are parsed and checked against the inverse
  Gaussian moments, Brownian scaling, the shape law, and the moment ODE.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from scipy.special import exp1

SAMPLE_HEADER = "path_index,tau,area,steps,censored"
CORRELATION_HEADER = "gamma,rho_exact,rho_mc,rho_mc_stderr"

# Sample means may sit this many of their own standard errors from the
# exact moment; six statistics per round, so a false alarm has odds below
# 1e-5 per round.
MEAN_Z_MAX = 5.0

# rho_mc may sit this far from rho(gamma): RHO_REPLICATE_SD[mu] is the
# standard deviation of rho_mc over 130 independent seeds at x = 10,
# dt = 1e-3 and RHO_REPLICATE_PATHS paths (README.md, "Tolerances"),
# scaled by 1/sqrt(paths) and widened by RHO_SD_MAX.  The largest of the
# 130 deviations was 3.4 SD, so the tails are a little wider than normal.
RHO_REPLICATE_PATHS = 1000
RHO_REPLICATE_SD = {0.5: 0.0063, 1.0: 0.0073}
RHO_SD_MAX = 6.0

# Float readouts against exact references.
CORRELATION_RTOL = 1e-12  # exact rationals, one square root at the end
TIME_AVERAGE_RTOL = 1e-9  # quadrature tolerance 1e-10 on a value >= x/2
EVALUATE_RTOL = 1e-12  # Horner in doubles over positive coefficients


# -- closed forms -----------------------------------------------------------


def rho(gamma: float) -> float:
    """Correlation of (tau, A) at gamma = mu*x."""
    g = gamma
    return math.sqrt((3 * g * g + 12 * g + 12) / (4 * g * g + 12 * g + 15))


def time_average(x: float, mu: float) -> float:
    """E[A/tau] = (x/2)(1 + e^gamma E1(gamma))."""
    gamma = mu * x
    return 0.5 * x * (1.0 + math.exp(gamma) * float(exp1(gamma)))


def sample_moments(x: float, mu: float) -> dict[str, float]:
    """Exact E of tau, A, tau^2, tau*A, A^2 and A/tau."""
    return {
        "tau": x / mu,
        "area": x**2 / (2 * mu) + x / (2 * mu**2),
        "tau^2": x**2 / mu**2 + x / mu**3,
        "tau*area": x**3 / (2 * mu**2) + x**2 / mu**3 + x / mu**4,
        "area^2": x**4 / (4 * mu**2)
        + 5 * x**3 / (6 * mu**3)
        + 5 * x**2 / (4 * mu**4)
        + 5 * x / (4 * mu**5),
        "area/tau": time_average(x, mu),
    }


def inverse_gaussian_moment(m: int) -> dict[int, tuple[Fraction, int]]:
    """E[tau^m] as {x power: (coefficient, mu exponent)}.

    For the inverse Gaussian law with mean x/mu and shape x^2,
    E[tau^m] = sum_k (m-1+k)! / (k! (m-1-k)!) (x/mu)^m (2 x mu)^-k.
    """
    out = {}
    for k in range(m):
        c = Fraction(math.factorial(m - 1 + k), math.factorial(k) * math.factorial(m - 1 - k))
        out[m - k] = (c / 2**k, -(m + k))
    return out


# Low-order area moments, {x power: (coefficient, mu exponent)}.
KNOWN_MOMENTS = {
    (0, 1): {2: (Fraction(1, 2), -1), 1: (Fraction(1, 2), -2)},
    (1, 1): {3: (Fraction(1, 2), -2), 2: (Fraction(1), -3), 1: (Fraction(1), -4)},
    (0, 2): {
        4: (Fraction(1, 4), -2),
        3: (Fraction(5, 6), -3),
        2: (Fraction(5, 4), -4),
        1: (Fraction(5, 4), -5),
    },
}


# -- simulated samples --------------------------------------------------------


def check_samples_csv(text: str, x: float, mu: float, dt: float, paths: int) -> list[str]:
    """Rows well formed and uncensored; six sample means near the exact moments."""
    lines = text.split("\n")
    if lines[0] != SAMPLE_HEADER:
        return [f"bad CSV header {lines[0]!r}"]
    if lines[-1] != "" or len(lines) != paths + 2:
        return [f"expected {paths} rows and a final newline, got {len(lines) - 2} lines"]
    taus, areas = [], []
    for i, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        try:
            if len(fields) != 5 or int(fields[0]) != i:
                raise ValueError("bad field count or path index")
            tau, area, steps = float(fields[1]), float(fields[2]), int(fields[3])
        except ValueError as exc:
            return [f"row {i} malformed ({exc}): {line!r}"]
        if fields[4] != "0":
            return [f"row {i} censored: {line!r}"]
        # the crossing lies inside the last step: (steps-1)*dt < tau <= steps*dt
        slack = 1e-9 * dt
        if not (area > 0 and (steps - 1) * dt - slack < tau <= steps * dt + slack):
            return [f"row {i} inconsistent: {line!r}"]
        taus.append(tau)
        areas.append(area)
    series = {
        "tau": taus,
        "area": areas,
        "tau^2": [t * t for t in taus],
        "tau*area": [t * a for t, a in zip(taus, areas)],
        "area^2": [a * a for a in areas],
        "area/tau": [a / t for t, a in zip(taus, areas)],
    }
    problems = []
    for name, exact in sample_moments(x, mu).items():
        vals = series[name]
        mean = math.fsum(vals) / len(vals)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        z = (mean - exact) / (sd / math.sqrt(len(vals)))
        if not abs(z) <= MEAN_Z_MAX:
            problems.append(f"mean of {name} {mean:.6g} is {z:.2f} SE from {exact:.6g}")
    return problems


def rho_tolerance(mu: float, paths: int) -> float:
    return RHO_SD_MAX * RHO_REPLICATE_SD[mu] * math.sqrt(RHO_REPLICATE_PATHS / paths)


def check_correlation_csv(text: str, x: float, drifts: list[float], paths: int) -> list[str]:
    """`correlation --simulate` output: exact column and MC column near rho(gamma)."""
    lines = text.split("\n")
    if lines[0] != CORRELATION_HEADER or lines[-1] != "" or len(lines) != len(drifts) + 2:
        return [f"malformed correlation output {text[:200]!r}"]
    problems = []
    for mu, line in zip(drifts, lines[1:-1]):
        try:
            gamma, r_exact, r_mc, r_se = (float(v) for v in line.split(","))
        except ValueError:
            return [f"malformed correlation row {line!r}"]
        want = rho(mu * x)
        if gamma != mu * x or not math.isclose(r_exact, want, rel_tol=1e-14):
            problems.append(f"exact row at mu={mu} wrong: {line!r}, rho={want!r}")
        if not abs(r_mc - want) <= rho_tolerance(mu, paths):
            problems.append(
                f"rho_mc at mu={mu} is {r_mc:.6g}, rho={want:.6g}, "
                f"tolerance {rho_tolerance(mu, paths):.3g}"
            )
        if not (math.isfinite(r_se) and r_se > 0):
            problems.append(f"rho_mc_stderr at mu={mu} is {r_se!r}")
    return problems


# -- rendered moment polynomials ----------------------------------------------

_TERM = re.compile(r"\((-?\d+(?:/\d+)?)\)\*x\^(\d+)\*mu\^(-?\d+)")


def parse_moment(text: str) -> dict[int, tuple[Fraction, int]] | None:
    """`(q)*x^k*mu^e + ...` as {k: (q, e)}; None when any x power repeats
    (more than one mu monomial) or a term is malformed."""
    out: dict[int, tuple[Fraction, int]] = {}
    for part in text.split(" + "):
        match = _TERM.fullmatch(part)
        if match is None:
            return None
        k = int(match.group(2))
        if k in out:
            return None
        out[k] = (Fraction(match.group(1)), int(match.group(3)))
    return out


def check_moment_text(m: int, n: int, text: str) -> tuple[list[str], dict | None]:
    """Shape, scaling, and known-formula checks of one rendered V_{m,n}."""
    if (m, n) == (0, 0):
        return ([] if text == "1" else [f"V_00 rendered {text!r}"]), None
    terms = parse_moment(text)
    if terms is None:
        return [f"V_{m}{n}: not one mu monomial per x power: {text[:120]!r}"], None
    problems = []
    if max(terms) != m + 2 * n or 0 in terms:
        problems.append(f"V_{m}{n}: degree {max(terms)} or constant term wrong")
    if any(e != k - 2 * m - 3 * n for k, (_, e) in terms.items()):
        problems.append(f"V_{m}{n}: breaks the scaling law mu^(k-2m-3n)")
    if any(q == 0 for q, _ in terms.values()):
        problems.append(f"V_{m}{n}: zero coefficient rendered")
    known = inverse_gaussian_moment(m) if n == 0 else KNOWN_MOMENTS.get((m, n))
    if known is not None and terms != known:
        problems.append(f"V_{m}{n}: differs from the closed form")
    return problems, terms


def at_unit_drift(terms: dict | None) -> list[Fraction]:
    """Coefficients of V(x, mu=1), lowest x power first; V_00 = 1."""
    if terms is None:
        return [Fraction(1)]
    coeffs = [Fraction(0)] * (max(terms) + 1)
    for k, (q, _) in terms.items():
        coeffs[k] = q
    return coeffs


def ode_residual_is_zero(m: int, n: int, polys: dict) -> bool:
    """(1/2)V'' - V' + m V_{m-1,n} + n x V_{m,n-1} == 0 at mu = 1, exactly."""
    v = at_unit_drift(polys[(m, n)])
    a = at_unit_drift(polys[(m - 1, n)]) if m else []
    b = at_unit_drift(polys[(m, n - 1)]) if n else []

    def c(seq, k):
        return seq[k] if 0 <= k < len(seq) else 0

    for d in range(len(v) + 1):
        r = Fraction((d + 2) * (d + 1), 2) * c(v, d + 2) - (d + 1) * c(v, d + 1)
        r += m * c(a, d) + n * c(b, d - 1)
        if r:
            return False
    return True


def exact_value(terms: dict | None, x: float, mu: float) -> float:
    """V(x, mu) from parsed terms, in exact rationals of the float inputs."""
    if terms is None:
        return 1.0
    xq, muq = Fraction(x), Fraction(mu)
    return float(sum(q * xq**k * muq**e for k, (q, e) in terms.items()))


def close(got, want: float, rtol: float) -> bool:
    return isinstance(got, float) and math.isclose(got, want, rel_tol=rtol)
