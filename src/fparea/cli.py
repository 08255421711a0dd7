"""Command-line front end.

Subcommands: `moment` (symbolic and numeric joint moments), `correlation`
(exact curve with optional simulated overlay), `simulate` (sample dump
with summary), `density` (area histograms, with a seven-drift preset),
and `time-average`.  All flags are long-form; every command is
deterministic given its full flag set.  Exit codes: 0 success, 2 argument
error or unwritable output path, 3 statistical-quality failure (censored
fraction above 1%, or too few uncensored samples or zero sample variance
for an estimator; output written before it stays).

Every command validates its flags and opens its output before it computes;
`correlation` and `time-average` compute their exact values with the flags.
The four simulating commands (`simulate`, `density`, `correlation
--simulate`, `time-average --simulate`) each run through `_simulate`,
which applies the censoring rule (exit 3) to every one of them.  Only
those use `mc`, which loads numpy on first use; `--help` and the exact
commands never load it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import IO, Iterator

from . import closed_forms, mc, moments
from .closed_forms import ModelParams

FIGURE_DRIFTS = (1.0, 1.1, 1.2, 1.3, 1.5, 2.0, 3.0)
CENSOR_FAIL_FRACTION = 0.01


def _sample_errors() -> tuple[type[ValueError], ...]:
    """Censoring can leave a run too few uncensored samples, or samples
    without spread, for an estimator: a statistical-quality failure, not a
    flag error.  Only a simulating command raises these, so only one looks
    them up: that loads `mc`."""
    return (mc.InsufficientSamplesError, mc.DegenerateVarianceError)


def _add_sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--paths", type=int, default=100000, help="number of simulated paths")
    sub.add_argument("--dt", type=float, default=1e-3, help="Euler time step")
    sub.add_argument("--seed", type=int, default=1, help="64-bit stream seed")
    sub.add_argument(
        "--no-bridge",
        action="store_true",
        help="disable the Brownian-bridge crossing correction",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fparea",
        description="First-passage time and area of drifted Brownian motion: "
        "exact moments, closed forms, simulation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_moment = commands.add_parser(
        "moment", help="joint moment E[tau^m A^n] as an exact polynomial"
    )
    p_moment.add_argument("--m", type=int, required=True, help="power of tau")
    p_moment.add_argument("--n", type=int, required=True, help="power of A")
    p_moment.add_argument("--x", type=float, help="starting point for numeric readout")
    p_moment.add_argument("--mu", type=float, help="drift for numeric readout")
    p_moment.add_argument("--out", help="output file (default standard output)")
    p_moment.set_defaults(func=cmd_moment, simulate=False)

    p_corr = commands.add_parser(
        "correlation", help="exact correlation of (tau, A), optionally with MC overlay"
    )
    p_corr.add_argument("--x", type=float, required=True, help="starting point")
    p_corr.add_argument(
        "--mu-list", required=True, help="comma-separated drift values, e.g. 0.5,1,2"
    )
    p_corr.add_argument(
        "--simulate", action="store_true", help="add Monte Carlo estimate columns"
    )
    p_corr.add_argument(
        "--format", choices=("csv", "text"), default="csv", help="output format"
    )
    p_corr.add_argument("--out", help="output file (default standard output)")
    _add_sim_flags(p_corr)
    p_corr.set_defaults(func=cmd_correlation)

    p_sim = commands.add_parser("simulate", help="dump per-path (tau, area) samples as CSV")
    p_sim.add_argument("--x", type=float, required=True, help="starting point")
    p_sim.add_argument("--mu", type=float, required=True, help="drift")
    p_sim.add_argument("--out", help="output file (default standard output)")
    _add_sim_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate, simulate=True)

    p_dens = commands.add_parser("density", help="estimated first-passage area density")
    p_dens.add_argument("--x", type=float, default=1.0, help="starting point")
    p_dens.add_argument("--mu", type=float, help="drift (required without --figure1)")
    p_dens.add_argument("--bins", type=int, default=80, help="histogram bin count")
    p_dens.add_argument(
        "--figure1",
        action="store_true",
        help=f"run the preset drift sweep {FIGURE_DRIFTS} at x=1, one file per drift",
    )
    p_dens.add_argument(
        "--out",
        help="output file, or output directory with --figure1 (required there)",
    )
    _add_sim_flags(p_dens)
    p_dens.set_defaults(func=cmd_density, simulate=True)

    p_ta = commands.add_parser(
        "time-average", help="expected time average E[A/tau] before absorption"
    )
    p_ta.add_argument("--x", type=float, required=True, help="starting point")
    p_ta.add_argument("--mu", type=float, required=True, help="drift")
    p_ta.add_argument(
        "--simulate", action="store_true", help="add a Monte Carlo estimate"
    )
    p_ta.add_argument("--out", help="output file (default standard output)")
    _add_sim_flags(p_ta)
    p_ta.set_defaults(func=cmd_time_average)

    return parser


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _positive(name: str, value: float) -> float:
    if value is None or not value > 0:
        raise ValueError(f"{name} must be a positive number, got {value}")
    return value


def _sim_config(args, x: float, mu: float, min_paths: int = 1) -> mc.SimConfig:
    if args.paths < min_paths:
        raise ValueError(f"--paths must be at least {min_paths}, got {args.paths}")
    return mc.SimConfig(
        params=ModelParams(x, mu),
        dt=args.dt,
        paths=args.paths,
        seed=args.seed,
        bridge_correction=not args.no_bridge,
    )


def _simulate(config: mc.SimConfig) -> tuple[list, int, int]:
    """The run's samples, its censored count, and exit status 3 with an
    error line when more than CENSOR_FAIL_FRACTION of its paths are
    censored, else 0."""
    samples = mc.run(config)
    censored = sum(s.censored for s in samples)
    if censored <= CENSOR_FAIL_FRACTION * len(samples):
        return samples, censored, 0
    print(
        f"error: censored fraction {censored / len(samples):.3g} exceeds "
        f"{CENSOR_FAIL_FRACTION:.0%}",
        file=sys.stderr,
    )
    return samples, censored, 3


def cmd_moment(args) -> int:
    if args.m < 0 or args.n < 0:
        raise ValueError(f"--m and --n must be nonnegative, got ({args.m}, {args.n})")
    if (args.x is None) != (args.mu is None):
        raise ValueError("--x and --mu must be given together")
    if args.x is not None:
        _positive("--x", args.x)
        _positive("--mu", args.mu)
    created = args.out is not None and not os.path.lexists(args.out)
    try:
        with _open_out(args.out) as out:
            poly = moments.joint_moment(args.m, args.n)
            lines = [poly.to_text()]
            if args.x is not None:
                lines.append(f"value,{poly.evaluate(args.x, args.mu):.17g}")
            out.write("\n".join(lines) + "\n")
    except ValueError:  # a readout past the float range: leave no empty file
        if created:
            os.remove(args.out)
        raise
    return 0


def cmd_correlation(args) -> int:
    x = _positive("--x", args.x)
    drifts = [float(tok) for tok in args.mu_list.split(",") if tok.strip()]
    if not drifts:
        raise ValueError("--mu-list is empty")
    for mu in drifts:
        _positive("--mu-list entry", mu)
    configs = [
        _sim_config(args, x, mu, mc.MIN_CORRELATION_SAMPLES) if args.simulate else None for mu in drifts
    ]
    exact = [(mu * x, closed_forms.rho_exact(mu * x)) for mu in drifts]

    header = ["gamma", "rho_exact"] + (["rho_mc", "rho_mc_stderr"] if args.simulate else [])
    sep, align = (",", "") if args.format == "csv" else ("  ", ">22")
    status = 0
    with _open_out(args.out) as out:
        out.write(sep.join(format(h, align) for h in header) + "\n")
        for (gamma, rho), config in zip(exact, configs):
            row = [gamma, rho]
            if args.simulate:
                samples, _, code = _simulate(config)
                summary = mc.estimate_correlation(samples)
                row += [summary.estimate, summary.std_error]
                status = max(status, code)
            out.write(sep.join(format(v, align + ".17g") for v in row) + "\n")
    return status


def _report_summaries(samples, censored: int, label: str) -> None:
    print(f"# {label}", file=sys.stderr)
    try:
        mean_tau = mc.estimate_joint_moment(samples, 1, 0)
        mean_area = mc.estimate_joint_moment(samples, 0, 1)
        print(
            f"mean_tau {mean_tau.estimate:.6g} (se {mean_tau.std_error:.3g}), "
            f"mean_area {mean_area.estimate:.6g} (se {mean_area.std_error:.3g})",
            file=sys.stderr,
        )
        corr = mc.estimate_correlation(samples)
        ta = mc.estimate_time_average(samples)
        print(
            f"correlation {corr.estimate:.6g} (se {corr.std_error:.3g}), "
            f"time_average {ta.estimate:.6g} (se {ta.std_error:.3g})",
            file=sys.stderr,
        )
    except _sample_errors() as exc:
        print(f"summaries unavailable: {exc}", file=sys.stderr)
    print(f"uncensored {len(samples) - censored}, censored {censored}", file=sys.stderr)


def cmd_simulate(args) -> int:
    config = _sim_config(args, _positive("--x", args.x), _positive("--mu", args.mu))
    with _open_out(args.out) as out:
        samples, censored, status = _simulate(config)
        mc.write_samples_csv(samples, out)
    _report_summaries(samples, censored, f"simulate x={config.params.x} mu={config.params.mu}")
    return status


def cmd_density(args) -> int:
    if args.bins < 2:
        raise ValueError(f"--bins must be at least 2, got {args.bins}")
    if args.figure1:
        if args.out is None:
            raise ValueError("--figure1 writes one file per drift and requires --out DIR")
        jobs = [
            (_sim_config(args, 1.0, mu, mc.MIN_SAMPLES), os.path.join(args.out, f"fpa_density_mu_{mu:g}.csv"))
            for mu in FIGURE_DRIFTS
        ]
        os.makedirs(args.out, exist_ok=True)
    else:
        x, mu = _positive("--x", args.x), _positive("--mu", args.mu)
        jobs = [(_sim_config(args, x, mu, mc.MIN_SAMPLES), args.out)]
    status = 0
    for config, path in jobs:
        with _open_out(path) as out:
            samples, _, code = _simulate(config)
            mc.write_histogram_csv(mc.estimate_density(samples, args.bins), out)
        if args.figure1:
            print(f"wrote {path}", file=sys.stderr)
        status = max(status, code)
    return status


def cmd_time_average(args) -> int:
    params = ModelParams(_positive("--x", args.x), _positive("--mu", args.mu))
    config = _sim_config(args, params.x, params.mu, mc.MIN_SAMPLES) if args.simulate else None
    exact = closed_forms.expected_time_average(params)
    status = 0
    with _open_out(args.out) as out:
        out.write(f"exact,{exact:.17g}\n")
        if args.simulate:
            samples, _, status = _simulate(config)
            summary = mc.estimate_time_average(samples)
            out.write(f"mc_estimate,{summary.estimate:.17g}\nmc_stderr,{summary.std_error:.17g}\n")
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.simulate and isinstance(exc, _sample_errors()):
            return 3
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
