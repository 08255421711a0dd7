"""One round of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json REPORT.json

`run.py` writes SPEC (workload, inputs, output directory, trace flag) and
starts this script with the checkout's `src` on PYTHONPATH.  The worker
imports the CLI and builds its parser (the set-up), optionally installs
the span recorder, runs the workload's timed calls through `fparea.cli.main`
and public library names only, and writes REPORT: timings, outputs for the
checks, every operation that raised, and the per-layer figures of a
traced round.  The checks themselves run in `run.py`, not here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _call_cli(argv: list[str]) -> tuple[int | None, str, str, str | None]:
    """fparea.cli.main(argv) with both streams captured: exit, out, err, error."""
    import fparea.cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fparea.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), error


def _timed_cli(argv, report, op):
    t0 = time.perf_counter()
    code, out, err, error = _call_cli(argv)
    seconds = time.perf_counter() - t0
    if error is not None or code != 0:
        report["errors"].append([op, error or f"exit {code}: {err[-500:]}"])
    report["outputs"][op] = {"exit": code, "stdout": out, "stderr": err}
    return seconds


def round_sim(spec, report):
    """One CLI simulation command (`simulate` or `correlation --simulate`)."""
    seconds = _timed_cli(spec["inputs"]["argv"], report, "cli")
    report["wall_s"] = seconds
    report["phases"] = {"command_s": seconds}


def round_exact(spec, report):
    """Triangle fill and render, float readouts, then two CLI calls."""
    from fparea import closed_forms, moments

    inp = spec["inputs"]
    K = inp["order"]
    errors = report["errors"]
    polys = {}
    texts = []
    fill_s = render_s = 0.0
    for d in range(K + 1):
        for m in range(d + 1):
            n = d - m
            t0 = time.perf_counter()
            try:
                poly = moments.joint_moment(m, n)
            except Exception:
                poly = None
                errors.append([f"fill {m} {n}", traceback.format_exc()])
            t1 = time.perf_counter()
            text = ""
            if poly is not None:
                try:
                    text = poly.to_text()
                except Exception:
                    errors.append([f"render {m} {n}", traceback.format_exc()])
            t2 = time.perf_counter()
            fill_s += t1 - t0
            render_s += t2 - t1
            polys[(m, n)] = poly
            texts.append(text)
    with open(os.path.join(spec["out_dir"], "moments.txt"), "w") as fh:
        fh.write("\n".join(texts) + "\n")

    def readout(op, fn, *args):
        try:
            return fn(*args)
        except Exception:
            errors.append([op, traceback.format_exc()])
            return None

    readouts = []
    t0 = time.perf_counter()
    for i, (x, mu, m, n) in enumerate(inp["grid"]):
        params = closed_forms.ModelParams(x, mu)
        poly = polys[(m, n)]
        readouts.append([
            readout(f"correlation {i}", moments.correlation_from_moments, x, mu),
            readout(f"time_average {i}", closed_forms.expected_time_average, params),
            readout(f"evaluate {i}", getattr(poly, "evaluate", None), x, mu),
        ])
    readout_s = time.perf_counter() - t0
    report["outputs"]["readouts"] = readouts

    cli_s = 0.0
    for op, argv in inp["cli"].items():
        cli_s += _timed_cli(argv, report, op)
    report["phases"] = {
        "fill_s": fill_s,
        "render_s": render_s,
        "readout_s": readout_s,
        "cli_s": cli_s,
    }
    report["wall_s"] = fill_s + render_s + readout_s + cli_s


ROUNDS = {"sim_short": round_sim, "sim_long": round_sim, "exact": round_exact}


def main(spec_path: str, report_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    # set-up: the CLI imported and its parser built (`fparea --help`)
    _call_cli(["--help"])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import fparea

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(fparea.__file__).startswith(src + os.sep):
        raise SystemExit(f"fparea imported from {fparea.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    report = {"errors": [], "outputs": {}}
    ROUNDS[spec["workload"]](spec, report)
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layers(report["wall_s"])
        report["missing"] = tracer.missing
        tracer.dump(os.path.join(spec["out_dir"], "spans.json"))
    report["ready_clock"] = ready
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
