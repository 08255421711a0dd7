"""fparea benchmark: one workload, whole rounds, checked outputs, one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim_short --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload in turn

A run makes its inputs from --seed, then repeats rounds of the workload for
--seconds (at least one round; two with --trace 1).  Each round is a fresh
single-threaded interpreter running `worker.py` on the checkout's `src`.
After the last round the outputs are checked with `checks.py`, and the last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (medians over rounds) for --trace 0, and the
per-layer metrics of a traced round for --trace 1.  Round files go under
`.perfbench_runs/` in the checkout.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_runs")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 100

SIZES = {
    "full": {"sim_short": 8000, "sim_long": 1000, "order": 32, "grid": 600},
    "tiny": {"sim_short": 300, "sim_long": 60, "order": 6, "grid": 8},
}
SIM_SHORT = {"x": 1.0, "mu": 1.0, "dt": 1e-3}
SIM_LONG = {"x": 10.0, "drifts": [0.5, 1.0], "dt": 1e-3}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
IMPORTS = {"quad.import_s": "fparea.quad", "mc.import_s": "fparea.mc",
           "moments.import_s": "fparea.moments", "cli.import_s": "fparea.cli"}
PER_LAYER = {
    **spans.LAYER_METRICS,
    "mc.csv_bytes": "bytes",
    **{name: "s" for name in IMPORTS},
    "paths_per_s": "paths/s",
    "moments_per_s": "moments/s",
    "readouts_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")


# -- inputs ---------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """Everything a round needs, from the seed alone."""
    rng = random.Random(f"{workload}/{seed}")
    sz = SIZES[size]
    if workload == "sim_short":
        p = SIM_SHORT
        return {"paths": sz["sim_short"], "argv": [
            "simulate", "--x", repr(p["x"]), "--mu", repr(p["mu"]), "--dt", repr(p["dt"]),
            "--paths", str(sz["sim_short"]), "--seed", str(rng.getrandbits(63))]}
    if workload == "sim_long":
        p = SIM_LONG
        return {"paths": sz["sim_long"] * len(p["drifts"]), "argv": [
            "correlation", "--x", repr(p["x"]), "--mu-list", ",".join(map(repr, p["drifts"])),
            "--simulate", "--dt", repr(p["dt"]), "--paths", str(sz["sim_long"]),
            "--seed", str(rng.getrandbits(63))]}
    K = sz["order"]
    entries = [(m, d - m) for d in range(K + 1) for m in range(d + 1)]
    # x, mu in [1/4, 4]: gamma spans 1/16..16, and every readout stays far
    # from float overflow (the largest mu power is mu^-3K)
    grid = [[rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0), *rng.choice(entries)]
            for _ in range(sz["grid"])]
    x, mu, m, n = grid[0]
    return {"order": K, "grid": grid, "cli": {
        "cli moment": ["moment", "--m", str(m), "--n", str(n), "--x", repr(x), "--mu", repr(mu)],
        "cli time-average": ["time-average", "--x", repr(x), "--mu", repr(mu)]}}


def operations(workload: str, inputs: dict) -> int:
    """CLI and library calls in one round."""
    if workload != "exact":
        return 1
    K = inputs["order"]
    return (K + 1) * (K + 2) + 3 * len(inputs["grid"]) + len(inputs["cli"])


# -- rounds -----------------------------------------------------------------------


def run_round(workload: str, inputs: dict, round_dir: str, trace: bool) -> dict:
    os.makedirs(round_dir)
    if workload == "sim_short":
        inputs = dict(inputs, argv=inputs["argv"] + ["--out", os.path.join(round_dir, "samples.csv")])
    spec_path = os.path.join(round_dir, "spec.json")
    report_path = os.path.join(round_dir, "report.json")
    with open(spec_path, "w") as fh:
        json.dump({"workload": workload, "inputs": inputs, "out_dir": round_dir,
                   "src": SRC, "trace": trace}, fh)
    env = dict(os.environ, PYTHONPATH=SRC, **{var: "1" for var in SINGLE_THREAD})
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), WORKER, spec_path, report_path]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crash": f"worker exceeded {WORKER_TIMEOUT_S} s", "dir": round_dir}
    if proc.returncode != 0 or not os.path.exists(report_path):
        return {"crash": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}", "dir": round_dir}
    with open(report_path) as fh:
        report = json.load(fh)
    report.update(dir=round_dir, traced=trace, setup_s=report["ready_clock"] - spawned)
    if trace:
        report["imports"] = _import_times(proc.stderr)
    return report


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module, from `-X importtime` lines."""
    found = {}
    for match in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", stderr, re.M):
        found[match.group(2)] = int(match.group(1)) * 1e-6
    return {name: found.get(module, 0.0) for name, module in IMPORTS.items()}


# -- checks -----------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def digest(report: dict) -> str:
    """Hash of every output a round's checks read."""
    h = hashlib.sha256(json.dumps(report["outputs"], sort_keys=True).encode())
    for name in ("samples.csv", "moments.txt"):
        path = os.path.join(report["dir"], name)
        if os.path.exists(path):
            h.update(_read(path).encode())
    return h.hexdigest()


def check_round(workload: str, inputs: dict, report: dict) -> dict[str, str]:
    """Failed operation -> reason, for every check of one round's outputs."""
    out = report["outputs"]
    if workload == "sim_short":
        p = SIM_SHORT
        problems = checks.check_samples_csv(
            _read(os.path.join(report["dir"], "samples.csv")), p["x"], p["mu"], p["dt"], inputs["paths"])
        return {"cli": "; ".join(problems)} if problems else {}
    if workload == "sim_long":
        p = SIM_LONG
        problems = checks.check_correlation_csv(
            out["cli"]["stdout"], p["x"], p["drifts"], inputs["paths"] // len(p["drifts"]))
        return {"cli": "; ".join(problems)} if problems else {}
    return _check_exact(inputs, report)


def _check_exact(inputs: dict, report: dict) -> dict[str, str]:
    failed = {}
    K = inputs["order"]
    texts = _read(os.path.join(report["dir"], "moments.txt")).split("\n")
    polys = {}
    i = 0
    for d in range(K + 1):
        for m in range(d + 1):
            n = d - m
            problems, polys[(m, n)] = checks.check_moment_text(m, n, texts[i])
            i += 1
            if problems:
                failed[f"render {m} {n}"] = "; ".join(problems)
    for (m, n), terms in polys.items():
        if (m, n) != (0, 0) and f"render {m} {n}" not in failed:
            deps = [(m - 1, n)] * (m > 0) + [(m, n - 1)] * (n > 0)
            if any(f"render {a} {b}" in failed for a, b in deps):
                failed[f"fill {m} {n}"] = "dependency failed its checks"
            elif not checks.ode_residual_is_zero(m, n, polys):
                failed[f"fill {m} {n}"] = f"ODE residual of V_{m}{n} is not zero"

    for i, ((x, mu, m, n), (corr, ta, value)) in enumerate(zip(inputs["grid"], report["outputs"]["readouts"])):
        if not checks.close(corr, checks.rho(mu * x), checks.CORRELATION_RTOL):
            failed[f"correlation {i}"] = f"{corr!r} vs rho {checks.rho(mu * x)!r}"
        if not checks.close(ta, checks.time_average(x, mu), checks.TIME_AVERAGE_RTOL):
            failed[f"time_average {i}"] = f"{ta!r} vs {checks.time_average(x, mu)!r}"
        want = checks.exact_value(polys[(m, n)], x, mu)
        if not checks.close(value, want, checks.EVALUATE_RTOL):
            failed[f"evaluate {i}"] = f"V_{m}{n}({x}, {mu}) = {value!r}, exact {want!r}"

    x, mu, m, n = inputs["grid"][0]
    text = texts[(m + n) * (m + n + 1) // 2 + m]
    lines = report["outputs"]["cli moment"]["stdout"].split("\n")
    want = checks.exact_value(polys[(m, n)], x, mu)
    if not (len(lines) == 3 and lines[0] == text and lines[2] == "" and lines[1].startswith("value,")
            and checks.close(float(lines[1][6:]), want, checks.EVALUATE_RTOL)):
        failed["cli moment"] = f"moment output {lines[:1]!r}... does not match V_{m}{n}"
    got = report["outputs"]["cli time-average"]["stdout"]
    match = re.fullmatch(r"exact,(\S+)\n", got)
    if not (match and checks.close(float(match.group(1)), checks.time_average(x, mu), checks.TIME_AVERAGE_RTOL)):
        failed["cli time-average"] = f"time-average output {got!r}"
    return failed


# -- one run ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    inputs = make_inputs(workload, seed, size)
    n_ops = operations(workload, inputs)
    out_dir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    rounds = []
    start = time.monotonic()
    while len(rounds) < 1 + trace or time.monotonic() - start < seconds:
        # a traced run alternates untraced and traced rounds
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, inputs, os.path.join(out_dir, f"round{len(rounds):03d}"), traced))

    attempted = failed = 0
    reasons, verdicts = [], {}
    first_digest = None
    for r in rounds:
        attempted += n_ops
        if "crash" in r:
            failed += n_ops
            reasons.append(r["crash"])
            continue
        d = digest(r)
        first_digest = first_digest or d
        if d != first_digest:
            failed += n_ops
            reasons.append(f"{r['dir']}: outputs differ from the first round of the same inputs")
            continue
        if d not in verdicts:
            try:
                verdicts[d] = check_round(workload, inputs, r)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                verdicts[d] = {f"op {i}": f"outputs unreadable: {exc!r}" for i in range(n_ops)}
        bad = dict(verdicts[d])
        bad.update((op, msg.strip().splitlines()[-1]) for op, msg in r["errors"])
        failed += len(bad)
        reasons.extend(f"{op}: {msg}" for op, msg in sorted(bad.items()))
        if "layers" in r and workload == "sim_short":
            r["layers"]["mc.csv_bytes"] = os.path.getsize(os.path.join(r["dir"], "samples.csv"))
    for name in ("samples.csv", "moments.txt"):
        for r in rounds:
            path = os.path.join(r["dir"], name)
            if os.path.exists(path):
                os.remove(path)

    good = [r for r in rounds if "crash" not in r]
    metrics = (layer_metrics if trace else end_to_end_metrics)(workload, inputs, good)
    result = {"correct": failed == 0 and bool(good), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    missing = sorted({name for r in good for name in r.get("missing", [])})
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(dict(result, rounds=len(rounds), problems=reasons[:50], missing=missing), fh, indent=1)
    for reason in reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload: str, inputs: dict, rounds: list[dict]) -> dict:
    if not rounds:
        return {}
    med = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in rounds),
    }
    return {name: _metric(med[name], unit) for name, unit in END_TO_END.items()}


def rates(workload: str, inputs: dict, report: dict) -> dict[str, float]:
    """End-user rates of one round; 0 where the workload has no such work."""
    ph = report["phases"]
    if workload != "exact":
        return {"paths_per_s": inputs["paths"] / ph["command_s"], "moments_per_s": 0.0, "readouts_per_s": 0.0}
    K = inputs["order"]
    return {
        "paths_per_s": 0.0,
        "moments_per_s": (K + 1) * (K + 2) / 2 / (ph["fill_s"] + ph["render_s"]),
        "readouts_per_s": 3 * len(inputs["grid"]) / ph["readout_s"],
    }


def layer_metrics(workload: str, inputs: dict, rounds: list[dict]) -> dict:
    """Per-layer figures of the traced round with the median wall time,
    rates and the tracing baseline from the untraced rounds."""
    traced = sorted((r for r in rounds if r["traced"]), key=lambda r: r["wall_s"])
    plain = [r for r in rounds if not r["traced"]]
    if not traced or not plain:
        return {}
    mid = traced[(len(traced) - 1) // 2]
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    values = {"mc.csv_bytes": 0, **mid["layers"], **mid["imports"]}
    per_round = [rates(workload, inputs, r) for r in plain]
    for name in ("paths_per_s", "moments_per_s", "readouts_per_s"):
        values[name] = statistics.median(x[name] for x in per_round)
    values.update({"trace.wall_s": mid["wall_s"], "trace.untraced_wall_s": untraced_wall,
                   "trace.overhead_s": mid["wall_s"] - untraced_wall})
    if mid["missing"]:
        print(f"not in this version, reported as 0: {', '.join(mid['missing'])}", file=sys.stderr)
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sim_short", "sim_long", "exact"),
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fparea", "cli.py")):
        print(f"error: no fparea sources under {SRC}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), size)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    status = 0
    for workload in ("sim_short", "sim_long", "exact"):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), size)
        for name, m in result["metrics"].items():
            print(f"{workload:>9}  {name:<28} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:>9}  {json.dumps(result)}")
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
