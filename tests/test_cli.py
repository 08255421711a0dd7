"""Command-line surface: golden outputs, exit codes, file handling."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from fparea import cli
from fparea.closed_forms import ModelParams, expected_time_average, rho_exact
from fparea.moments import joint_moment

V21_TEXT = "(1/2)*x^4*mu^-3 + (2)*x^3*mu^-4 + (4)*x^2*mu^-5 + (4)*x^1*mu^-6"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoment:
    def test_symbolic_golden(self, capsys):
        code, out, _ = run_cli(capsys, "moment", "--m", "2", "--n", "1")
        assert code == 0
        assert out == V21_TEXT + "\n"

    def test_trivial_moment(self, capsys):
        code, out, _ = run_cli(capsys, "moment", "--m", "0", "--n", "0")
        assert code == 0
        assert out == "1\n"

    def test_numeric_readout(self, capsys):
        code, out, _ = run_cli(
            capsys, "moment", "--m", "1", "--n", "1", "--x", "1", "--mu", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3 + (1)*x^1*mu^-4"
        assert lines[1] == "value,2.5"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "m.txt"
        code, out, _ = run_cli(capsys, "moment", "--m", "2", "--n", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == V21_TEXT + "\n"

    def test_argument_errors(self, capsys):
        code, _, err = run_cli(capsys, "moment", "--m", "-1", "--n", "0")
        assert code == 2
        assert "error:" in err and "usage:" in err
        code, _, err = run_cli(capsys, "moment", "--m", "1", "--n", "0", "--x", "1")
        assert code == 2
        code, _, err = run_cli(capsys, "moment", "--m", "1", "--n", "0", "--x", "0", "--mu", "1")
        assert code == 2

    def test_readout_past_float_powers(self, capsys):
        # mu**-35 overflows a double, the moment itself does not
        code, out, _ = run_cli(
            capsys, "moment", "--m", "7", "--n", "7", "--x", "1e-100", "--mu", "1e-10"
        )
        assert code == 0
        label, value = out.splitlines()[1].split(",")
        exact = joint_moment(7, 7).evaluate(Fraction(1e-100), Fraction(1e-10))
        assert label == "value"
        assert float(value) == float(exact)
        assert 1e257 < float(value) < 1e258
        # mu**-4 underflows, the moment does not
        code, out, _ = run_cli(
            capsys, "moment", "--m", "1", "--n", "1", "--x", "1e200", "--mu", "1e200"
        )
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == 5e199

    def test_readout_out_of_float_range(self, capsys):
        for m, n, x, mu in (
            ("7", "7", "1", "1e-20"),
            ("7", "7", "1e300", "1"),
            ("2", "3", "1e120", "1e120"),  # the powers underflow, the value overflows
        ):
            code, out, err = run_cli(
                capsys, "moment", "--m", m, "--n", n, "--x", x, "--mu", mu
            )
            assert code == 2
            assert out == ""
            assert "error:" in err and "exceeds the float range" in err

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["moment", "--m", "1"])
        assert exc.value.code == 2


class TestCorrelation:
    def test_exact_rows(self, capsys):
        code, out, _ = run_cli(capsys, "correlation", "--x", "10", "--mu-list", "0.5,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma,rho_exact"
        assert lines[1].startswith("5,0.91651513899116")
        g10 = lines[2].split(",")
        assert float(g10[0]) == 10.0
        assert float(g10[1]) == rho_exact(10.0)

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlation", "--x", "1", "--mu-list", "2", "--format", "text"
        )
        assert code == 0
        assert "gamma" in out.splitlines()[0]
        assert math.isclose(float(out.splitlines()[1].split()[1]), rho_exact(2.0))

    def test_simulated_overlay(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "correlation",
            "--x", "2", "--mu-list", "1.5",
            "--simulate", "--paths", "1500", "--dt", "0.01", "--seed", "12",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma,rho_exact,rho_mc,rho_mc_stderr"
        gamma, exact, mc_est, mc_se = (float(v) for v in lines[1].split(","))
        assert gamma == 3.0
        assert exact == rho_exact(3.0)
        assert abs(mc_est - exact) < 0.1
        assert 0.0 < mc_se < 0.1

    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["correlation", "--x", "2", "--mu-list", "1.5", "--simulate",
                "--paths", "800", "--dt", "0.01", "--seed", "3"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_drift_lists(self, capsys):
        for bad in ("", "0", "-1", "abc", "1,,0"):
            code, _, err = run_cli(capsys, "correlation", "--x", "1", "--mu-list", bad)
            assert code == 2, bad
            assert "error:" in err


class TestSimulate:
    def test_dump_and_summary(self, capsys, tmp_path):
        target = tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--x", "1", "--mu", "1",
            "--paths", "300", "--seed", "5", "--out", str(target),
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "path_index,tau,area,steps,censored"
        assert len(lines) == 301
        assert "mean_tau" in err and "censored 0" in err

    def test_stdout_dump(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--x", "1", "--mu", "2", "--paths", "3", "--seed", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "path_index,tau,area,steps,censored"
        assert len(out.splitlines()) == 4

    def test_single_path(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--x", "1", "--mu", "1", "--paths", "1", "--seed", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 2
        assert "mean_tau" not in err

    def test_repeat_same_seed_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--x", "1", "--mu", "1", "--paths", "250", "--seed", "77"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_censoring_exit_code(self, capsys, tmp_path):
        # coarse steps, nearly driftless: a few percent of paths reach the
        # horizon, tripping the statistical-quality gate
        code, _, err = run_cli(
            capsys, "simulate", "--x", "1", "--mu", "0.02", "--dt", "50",
            "--paths", "600", "--seed", "99", "--no-bridge",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 3
        assert "censored fraction" in err

    def test_validation(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--x", "-1", "--mu", "1")
        assert code == 2
        code, _, _ = run_cli(capsys, "simulate", "--x", "1", "--mu", "1", "--paths", "0")
        assert code == 2
        code, _, _ = run_cli(capsys, "simulate", "--x", "1", "--mu", "1", "--dt", "0")
        assert code == 2
        code, _, err = run_cli(capsys, "simulate", "--x", "1", "--mu", "1", "--dt", "inf", "--paths", "2")
        assert code == 2
        assert "error:" in err and "finite" in err
        # the default horizon 50*x/mu overflows
        code, _, err = run_cli(capsys, "simulate", "--x", "1", "--mu", "1e-320", "--paths", "2")
        assert code == 2
        assert "error:" in err and "must be finite" in err


class TestDensity:
    def test_single_histogram_normalized(self, capsys, tmp_path):
        target = tmp_path / "h.csv"
        code, _, _ = run_cli(
            capsys, "density", "--x", "1", "--mu", "1", "--paths", "2000",
            "--bins", "30", "--seed", "3", "--out", str(target),
        )
        assert code == 0
        rows = np.loadtxt(str(target), delimiter=",", skiprows=1)
        assert rows.shape == (30, 3)
        mass = float(np.sum((rows[:, 1] - rows[:, 0]) * rows[:, 2]))
        np.testing.assert_allclose(mass, 1.0, rtol=1e-9)

    def test_figure_preset_writes_seven_files(self, capsys, tmp_path):
        outdir = tmp_path / "fig"
        code, _, err = run_cli(
            capsys, "density", "--figure1", "--paths", "1200", "--bins", "25",
            "--seed", "3", "--out", str(outdir),
        )
        assert code == 0
        names = [f"fpa_density_mu_{mu:g}.csv" for mu in cli.FIGURE_DRIFTS]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(names)

        def peak(name):
            rows = np.loadtxt(str(outdir / name), delimiter=",", skiprows=1)
            np.testing.assert_allclose(
                float(np.sum((rows[:, 1] - rows[:, 0]) * rows[:, 2])), 1.0, rtol=1e-9
            )
            return float(rows[:, 2].max())

        assert peak("fpa_density_mu_3.csv") > peak("fpa_density_mu_1.csv")

    def test_figure_preset_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "density", "--figure1")
        assert code == 2
        assert "requires --out" in err

    def test_validation(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--x", "1", "--mu", "1", "--bins", "1")
        assert code == 2
        code, _, _ = run_cli(capsys, "density", "--x", "1")  # no --mu, no preset
        assert code == 2


class TestTimeAverage:
    def test_exact_line(self, capsys):
        code, out, _ = run_cli(capsys, "time-average", "--x", "1", "--mu", "100")
        assert code == 0
        label, value = out.strip().split(",")
        assert label == "exact"
        assert float(value) == expected_time_average(ModelParams(1.0, 100.0))
        assert abs(float(value) - 0.50495) < 1e-4

    def test_simulated_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "time-average", "--x", "1", "--mu", "1",
            "--simulate", "--paths", "1500", "--seed", "8",
        )
        assert code == 0
        lines = dict(line.split(",") for line in out.splitlines())
        assert set(lines) == {"exact", "mc_estimate", "mc_stderr"}
        exact = float(lines["exact"])
        est = float(lines["mc_estimate"])
        se = float(lines["mc_stderr"])
        assert abs(est - exact) <= 6.0 * se
        assert est >= 0.5

    def test_validation(self, capsys):
        code, _, _ = run_cli(capsys, "time-average", "--x", "1", "--mu", "-2")
        assert code == 2


class TestParserShell:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--x", "1", "--mu", "1", "--paths", "2", "--out", "{missing}"],
            ["moment", "--m", "1", "--n", "1", "--out", "{missing}"],
            # a directory is wanted where a file already stands
            ["density", "--figure1", "--out", "{file}"],
        ],
        ids=["simulate", "moment", "density-figure1"],
    )
    def test_unwritable_out_is_an_argument_error(self, capsys, tmp_path, argv):
        taken = tmp_path / "taken"
        taken.write_text("")
        paths = {"missing": str(tmp_path / "missing" / "x.csv"), "file": str(taken)}
        code, _, err = run_cli(capsys, *[arg.format(**paths) for arg in argv])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.usefixtures("console_scripts")
    def test_console_script_entry_point(self):
        proc = subprocess.run(
            ["fparea", "moment", "--m", "2", "--n", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == V21_TEXT + "\n"

    def test_no_scipy_on_the_import_path(self):
        # scipy loads with the quadrature helpers only, which no command calls
        script = (
            "import sys\n"
            "import fparea\n"
            "from fparea import cli\n"
            "cli._build_parser()\n"
            "fparea.expected_time_average(fparea.ModelParams(1.0, 1.0))\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
            "p = fparea.ModelParams(2.0, 0.5)\n"
            "print(round(fparea.integrate_density(lambda t: fparea.fpt_density(p, t)).value, 6))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "1.0"]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fparea.cli", "moment", "--m", "0", "--n", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1\n"
