"""The benchmark's own tests: every workload at a tiny size, and checks
that fail on deliberately wrong outputs.

    python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run

sys.path.insert(0, run.SRC)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == ["sim_short", "sim_long", "exact"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sim_short", "sim_long", "exact"])
def test_tiny_workload_runs_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    per_round = run.operations(workload, run.make_inputs(workload, 7, "tiny"))
    assert result["attempted"] == per_round * (1 + trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_inputs_follow_the_seed():
    for workload in ("sim_short", "sim_long", "exact"):
        a, b = (run.make_inputs(workload, s, "tiny") for s in (1, 2))
        assert a == run.make_inputs(workload, 1, "tiny") and a != b


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None


def _triangle(K):
    from fparea import joint_moment

    return {(m, d - m): joint_moment(m, d - m).to_text() for d in range(K + 1) for m in range(d + 1)}


def _moment_failures(texts):
    failed = set()
    polys = {}
    for (m, n), text in texts.items():
        problems, polys[(m, n)] = checks.check_moment_text(m, n, text)
        if problems:
            failed.add((m, n))
    for m, n in texts:
        if (m, n) != (0, 0) and not checks.ode_residual_is_zero(m, n, polys):
            failed.add((m, n))
    return failed


def test_perturbed_moment_coefficient_fails():
    texts = _triangle(5)
    assert _moment_failures(texts) == set()
    # V_21 = (1/2)*x^4*mu^-3 + ...: no closed form in the checks, the ODE catches it
    wrong = dict(texts)
    wrong[(2, 1)] = texts[(2, 1)].replace("(1/2)*x^4", "(501/1000)*x^4", 1)
    assert wrong[(2, 1)] != texts[(2, 1)]
    assert (2, 1) in _moment_failures(wrong)
    # V_30 against the inverse Gaussian moments
    wrong = dict(texts)
    wrong[(3, 0)] = texts[(3, 0)].replace("(1)*x^3", "(2)*x^3", 1)
    problems, _ = checks.check_moment_text(3, 0, wrong[(3, 0)])
    assert problems
    # a second mu monomial on one x power breaks the scaling law
    problems, _ = checks.check_moment_text(1, 1, texts[(1, 1)] + " + (1)*x^1*mu^-3")
    assert problems


def _samples_csv(paths, seed, area_factor=1.0):
    import io

    from fparea import ModelParams, SimConfig
    from fparea import run as simulate

    samples = simulate(SimConfig(ModelParams(1.0, 1.0), dt=1e-3, paths=paths, seed=seed))
    out = io.StringIO()
    out.write(checks.SAMPLE_HEADER + "\n")
    for i, s in enumerate(samples):
        out.write(f"{i},{s.tau!r},{s.area * area_factor!r},{s.steps},0\n")
    return out.getvalue()


def test_area_off_by_five_percent_fails():
    assert checks.check_samples_csv(_samples_csv(4000, 11), 1.0, 1.0, 1e-3, 4000) == []
    problems = checks.check_samples_csv(_samples_csv(4000, 11, 1.05), 1.0, 1.0, 1e-3, 4000)
    assert any("area/tau" in p for p in problems)


def test_censored_or_malformed_rows_fail():
    good = _samples_csv(50, 3)
    assert checks.check_samples_csv(good, 1.0, 1.0, 1e-3, 50) == []
    assert checks.check_samples_csv(good.replace(",0\n", ",1\n", 1), 1.0, 1.0, 1e-3, 50)
    assert checks.check_samples_csv(good[: good.rfind("\n", 0, -1) + 1], 1.0, 1.0, 1e-3, 50)


def test_correlation_off_by_its_tolerance_fails():
    paths = 1000

    def text(shift):
        rows = [f"{10 * mu!r},{checks.rho(10 * mu)!r},{checks.rho(10 * mu) + shift(mu)!r},0.005"
                for mu in (0.5, 1.0)]
        return "\n".join([checks.CORRELATION_HEADER, *rows, ""])

    assert checks.check_correlation_csv(text(lambda mu: 0.0), 10.0, [0.5, 1.0], paths) == []
    over = text(lambda mu: 1.01 * checks.rho_tolerance(mu, paths))
    assert len(checks.check_correlation_csv(over, 10.0, [0.5, 1.0], paths)) == 2


def test_readout_references():
    # e^g E1(g) -> 1/g - 1/g^2 + ... for large g; rho at its known extremes
    assert math.isclose(checks.time_average(1.0, 50.0), 0.5 * (1 + 1 / 50 - 1 / 2500 + 2 / 125000), rel_tol=1e-5)
    assert math.isclose(checks.rho(1.5), math.sqrt(7 / 8), rel_tol=1e-15)
    assert math.isclose(checks.rho(12.0), math.sqrt(4 / 5), rel_tol=1e-15)
