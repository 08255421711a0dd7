"""Acceptance battery: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
add ``-m ""`` to include the slow small-drift correlation cases.  Every
stochastic check pins its seed, so reruns are bit-reproducible.
"""

import math
import subprocess
import time
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import exp1_scaled, mean_fpa, ode_residual_holds, solve_explicit_inverse, variance
from quad import integrate_density

from fparea import mc
from fparea.closed_forms import (
    RHO_LIMIT_LARGE_DRIFT,
    RHO_LIMIT_ZERO_DRIFT,
    ModelParams,
    expected_time_average,
    fpa_density_zero_drift,
    fpt_density,
    rho_exact,
    w_joint,
)
from fparea.laurent import Poly
from fparea.mc import SimConfig
from fparea.moments import correlation_from_moments, joint_moment

SEED = 20260822

# Low-index closed forms solved by hand directly from the ODE, used as
# the structural goldens for the symbolic criteria.
GOLDEN = {
    (1, 0): "(1)*x^1*mu^-1",
    (2, 0): "(1)*x^2*mu^-2 + (1)*x^1*mu^-3",
    (0, 1): "(1/2)*x^2*mu^-1 + (1/2)*x^1*mu^-2",
    (0, 2): "(1/4)*x^4*mu^-2 + (5/6)*x^3*mu^-3 + (5/4)*x^2*mu^-4 + (5/4)*x^1*mu^-5",
    (1, 1): "(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3 + (1)*x^1*mu^-4",
    (2, 1): "(1/2)*x^4*mu^-3 + (2)*x^3*mu^-4 + (4)*x^2*mu^-5 + (4)*x^1*mu^-6",
}
GOLDEN_VARIANCE = "(1/3)*x^3*mu^-3 + (1)*x^2*mu^-4 + (5/4)*x^1*mu^-5"


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def _fill_triangle(order: int, oracle: bool = False) -> dict:
    table = {(0, 0): Poly([1])}
    for total in range(1, order + 1):
        for m in range(total + 1):
            idx = (m, total - m)
            table[idx] = solve_explicit_inverse(idx, table) if oracle else joint_moment(*idx)
    return table


@pytest.fixture(scope="module")
def battery():
    """Shared 1e5-path run at x=1, mu=1 used by the Monte Carlo criteria."""
    cfg = SimConfig(ModelParams(1.0, 1.0), dt=1e-3, paths=100_000, seed=SEED)
    return mc.run(cfg)


def _uncensored_arrays(samples):
    taus = np.array([s.tau for s in samples if not s.censored])
    areas = np.array([s.area for s in samples if not s.censored])
    return taus, areas


def test_criterion_1_symbolic_exactness():
    t0 = time.perf_counter()
    table = _fill_triangle(3)
    exact = all(table[idx].to_text() == text for idx, text in GOLDEN.items())
    elapsed = time.perf_counter() - t0
    driver = all(joint_moment(*idx).to_text() == text for idx, text in GOLDEN.items())
    _verdict(
        "[C1] symbolic low-index moments, exact equality",
        exact and driver and elapsed < 1.0,
        f"6 goldens, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_variance_identity():
    var = variance(joint_moment(0, 1), joint_moment(0, 2))
    _verdict(
        "[C2] Var(A) from raw moments, exact equality",
        var.to_text() == GOLDEN_VARIANCE,
        GOLDEN_VARIANCE,
    )


def test_criterion_3_structure_law():
    t0 = time.perf_counter()
    back = _fill_triangle(8)
    inverse = _fill_triangle(8, oracle=True)
    ok = True
    for total in range(1, 9):
        for m in range(total + 1):
            idx = (m, total - m)
            v = back[idx]
            ok = ok and v.degree == m + 2 * (total - m)
            ok = ok and v.weight == 2 * m + 3 * (total - m)
            ok = ok and v.coefficient(0) == 0
            ok = ok and ode_residual_holds(idx, v)
            ok = ok and v == inverse[idx]
    elapsed = time.perf_counter() - t0
    _verdict(
        "[C3] degree/weight/constant/residual/solver agreement for m+n <= 8",
        ok and elapsed < 10.0,
        f"44 indices, solver and oracle, {elapsed:.2f} s",
    )


def test_criterion_4_correlation_closed_form():
    # Bracketing grid: gamma in [12.5, 500], where the correlation sits
    # strictly between its large-drift and zero-drift limits.
    worst_rel = 0.0
    bracketed = True
    for x in np.linspace(2.5, 25.0, 10):
        for mu in np.linspace(5.0, 20.0, 10):
            got = correlation_from_moments(x, mu)
            want = rho_exact(x * mu)
            worst_rel = max(worst_rel, abs(got - want) / want)
            bracketed = bracketed and RHO_LIMIT_LARGE_DRIFT < got < RHO_LIMIT_ZERO_DRIFT
    # Wide grid, gamma in [0.01, 10]: the closed form still matches the
    # moment route there, though values exceed the zero-drift limit (the
    # curve peaks at gamma = 3/2; see the closed-forms module tests).
    for x in np.linspace(0.1, 5.0, 10):
        for mu in np.linspace(0.1, 2.0, 10):
            got = correlation_from_moments(x, mu)
            want = rho_exact(x * mu)
            worst_rel = max(worst_rel, abs(got - want) / want)
    _verdict(
        "[C4] moment-route correlation matches closed form within 1e-12",
        worst_rel <= 1e-12 and bracketed,
        f"worst rel {worst_rel:.2e} over 200 points, limits bracket the gamma > 12 grid",
    )


def _correlation_case(mu: float):
    cfg = SimConfig(ModelParams(10.0, mu), dt=1e-3, paths=100_000, seed=SEED)
    summary = mc.estimate_correlation(mc.run(cfg))
    exact = rho_exact(10.0 * mu)
    tol = max(0.01, 3.0 * summary.std_error)
    return summary.estimate - exact, tol


def test_criterion_5_correlation_vs_simulation():
    details = []
    ok = True
    for mu in (1.0, 0.5):
        diff, tol = _correlation_case(mu)
        ok = ok and abs(diff) <= tol
        details.append(f"gamma={10 * mu:g} diff={diff:+.4f} tol={tol:.4f}")
    _verdict("[C5] simulated correlation at x=10, always-run drifts", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_5_correlation_vs_simulation_small_drifts():
    details = []
    ok = True
    for mu in (0.2, 0.1, 0.05):
        diff, tol = _correlation_case(mu)
        ok = ok and abs(diff) <= tol
        details.append(f"gamma={10 * mu:g} diff={diff:+.4f} tol={tol:.4f}")
    _verdict("[C5] simulated correlation at x=10, small drifts", ok, "; ".join(details))


def test_criterion_6_mc_moment_battery(battery):
    ok = True
    details = []
    for m, n in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        est = mc.estimate_joint_moment(battery, m, n)
        exact = joint_moment(m, n).evaluate(1.0, 1.0)
        pulls = abs(est.estimate - exact) / est.std_error
        ok = ok and pulls <= 3.0
        details.append(f"V{m}{n} {pulls:.1f}se")
    _verdict("[C6] five joint moments within 3 SE at x=1, mu=1", ok, ", ".join(details))


def test_criterion_7_time_average(battery):
    fast = expected_time_average(ModelParams(1.0, 100.0))
    oracle = 0.5 * (1.0 + exp1_scaled(100.0))
    pinned = abs(fast - 0.50495) <= 1e-4 and abs(fast - oracle) <= 1e-10

    exact = expected_time_average(ModelParams(1.0, 1.0))
    est = mc.estimate_time_average(battery)
    mc_ok = abs(est.estimate - exact) <= 3.0 * est.std_error

    floor = all(
        expected_time_average(ModelParams(x, mu)) > x / 2.0
        for x in np.linspace(0.2, 5.0, 10)
        for mu in np.linspace(0.5, 10.0, 5)
    )
    _verdict(
        "[C7] expected time average: oracle value, MC agreement, x/2 floor",
        pinned and mc_ok and floor,
        f"value {fast:.6f}, MC pull {abs(est.estimate - exact) / est.std_error:.1f}se, 50-pt grid",
    )


def test_criterion_8_discounted_area(battery):
    params = [ModelParams(x, mu) for x in (0.5, 1.0, 2.0, 7.0) for mu in (0.3, 1.0, 4.0)]
    undiscounted = all(w_joint(p, 0.0) == mean_fpa(p) for p in params)
    point = w_joint(ModelParams(1.0, 1.0), 1.5) == 0.375 * math.exp(-1.0)

    taus, areas = _uncensored_arrays(battery)
    vals = areas * np.exp(-0.5 * taus)
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    exact = w_joint(ModelParams(1.0, 1.0), 0.5)
    pulls = abs(float(vals.mean()) - exact) / se
    _verdict(
        "[C8] discounted-area transform identities and MC check",
        undiscounted and point and pulls <= 3.0,
        f"12-param identity exact, point value exact, MC pull {pulls:.1f}se",
    )


def test_criterion_9_densities():
    p = ModelParams(1.0, 1.0)
    norm = integrate_density(lambda t: fpt_density(p, t)).value
    first = integrate_density(lambda t: t * fpt_density(p, t)).value
    second = integrate_density(lambda t: t * t * fpt_density(p, t)).value
    fpt_ok = abs(norm - 1.0) <= 1e-8 and abs(first - 1.0) <= 1e-8 and abs(second - 2.0) <= 1e-8

    area_norm = integrate_density(
        lambda a: fpa_density_zero_drift(1.0, a), tail_exponent_hint=4.0 / 3.0
    ).value
    _verdict(
        "[C9] passage-time and zero-drift area densities normalize",
        fpt_ok and abs(area_norm - 1.0) <= 1e-6,
        f"fpt norm err {abs(norm - 1):.1e}, moments err {max(abs(first - 1), abs(second - 2)):.1e}, "
        f"area norm err {abs(area_norm - 1):.1e}",
    )


def test_criterion_10_density_sweep(battery):
    bins = 60
    peaks = []
    ok_means = True
    for mu in (3.0, 2.0, 1.5, 1.3, 1.2, 1.1, 1.0):
        if mu == 1.0:
            samples = battery
        else:
            samples = mc.run(SimConfig(ModelParams(1.0, mu), dt=1e-3, paths=100_000, seed=SEED))
        peaks.append(float(max(mc.estimate_density(samples, bins).mass)))
        mean = mc.estimate_joint_moment(samples, 0, 1)
        exact = mean_fpa(ModelParams(1.0, mu))
        ok_means = ok_means and abs(mean.estimate - exact) <= 3.0 * mean.std_error
    decreasing = all(a > b for a, b in zip(peaks, peaks[1:]))
    _verdict(
        "[C10] area density peaks decrease along mu=3..1; means within 3 SE",
        decreasing and ok_means,
        "peaks " + " > ".join(f"{p:.2f}" for p in peaks),
    )


@pytest.mark.usefixtures("console_scripts")
def test_criterion_11_determinism(tmp_path):
    base = [
        "fparea", "simulate", "--x", "1", "--mu", "1",
        "--paths", "1500", "--dt", "1e-3", "--seed", "31",
    ]
    blobs = {}
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(base + ["--out", str(out)], capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        blobs[name] = out.read_bytes()
    identical = len(set(blobs.values())) == 1
    _verdict(
        "[C11] simulate CSV byte-identical across reruns",
        identical,
        f"{len(blobs)} runs compared",
    )
