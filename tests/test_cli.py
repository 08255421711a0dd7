"""Command-line surface: golden outputs, exit codes, file handling."""

import hashlib
import math
import os
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
        for x, mu in (("1", "inf"), ("inf", "1")):
            code, out, err = run_cli(capsys, "moment", "--m", "1", "--n", "1", "--x", x, "--mu", mu)
            assert code == 2
            assert out == ""
            assert "error:" in err and "must be finite" in err

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

    def test_readout_out_of_float_range_leaves_no_file(self, capsys, tmp_path):
        # --out is opened before the moment is computed; a failed readout
        # removes it rather than leave it empty
        target = tmp_path / "mo.txt"
        code, out, err = run_cli(
            capsys, "moment", "--m", "7", "--n", "7", "--x", "1", "--mu", "1e-20", "--out", str(target)
        )
        assert code == 2
        assert out == "" and "exceeds the float range" in err
        assert not target.exists()

    def test_failed_readout_keeps_an_out_path_it_did_not_create(self, capsys, tmp_path):
        # only a file this call created is removed: an existing file, or a
        # link to one, is opened (and emptied) as before but stays
        kept = tmp_path / "kept.txt"
        kept.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(kept)
        for path in (kept, link):
            code, out, err = run_cli(
                capsys, "moment", "--m", "7", "--n", "7", "--x", "1", "--mu", "1e-20", "--out", str(path)
            )
            assert code == 2 and "exceeds the float range" in err
            assert path.exists()
        assert link.is_symlink()

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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="splits runs by os.fork")
    def test_split_run_prints_the_same_bytes(self):
        # The header sits unflushed in stdout's buffer when the run forks; a
        # child that exited normally would flush its copy and print it twice.
        script = (
            "import sys\n"
            "from fparea import cli, mc\n"
            "if sys.argv[1] == 'split':\n"
            "    mc._WORKER_STEPS, mc._cpus = 1, lambda: 3\n"
            "sys.exit(cli.main(['correlation', '--x', '2', '--mu-list', '1,1.5', '--simulate',\n"
            "                   '--paths', '300', '--dt', '0.01', '--seed', '4']))\n"
        )
        outs = {}
        for mode in ("serial", "split"):
            proc = subprocess.run(
                [sys.executable, "-c", script, mode], capture_output=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outs[mode] = proc.stdout
        assert outs["split"].count(b"gamma") == 1
        assert outs["split"] == outs["serial"]

    def test_simulated_censoring_exit_code(self, capsys):
        # the configuration of TestSimulate.test_censoring_exit_code
        code, out, err = run_cli(
            capsys, "correlation", "--x", "1", "--mu-list", "0.02", "--simulate",
            "--dt", "50", "--paths", "600", "--seed", "99", "--no-bridge",
        )
        assert code == 3
        assert "censored fraction" in err
        assert out.splitlines()[0] == "gamma,rho_exact,rho_mc,rho_mc_stderr"

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
        # horizons of 2^63 steps and more overflow the step counters
        for argv in (
            ("--x", "1", "--mu", "1", "--paths", "2", "--dt", "1e-300"),
            ("--x", "1e300", "--mu", "1", "--paths", "2"),
        ):
            code, _, err = run_cli(capsys, "simulate", *argv)
            assert code == 2, argv
            assert "error:" in err and "max_time/dt" in err


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


class TestPinnedOutputs:
    """Exit code, stdout, stderr and every file written by a successful
    run of each simulating command, byte for byte."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["simulate", "--x", "1", "--mu", "1", "--paths", "300", "--seed", "5",
              "--out", "{tmp}/s.csv"],
             "c6bac58abf6fdd63b77b4e6fe2604fbe7ce3bb4d3d4a340a4f4c7c117fea3caa"),
            (["density", "--x", "1", "--mu", "1.5", "--paths", "400", "--bins", "20",
              "--seed", "7", "--out", "{tmp}/h.csv"],
             "b1e4c99ce9d617dd5ec3c2a8d8031759184e3e47e33e6be5287f9fd3fdefd6ec"),
            (["density", "--figure1", "--paths", "150", "--bins", "10", "--seed", "3",
              "--out", "{tmp}/fig"],
             "a3ae973b4ddd2b2689ce447d34da007ba9fd9cc5b92d09bfafbbb9cd74018d63"),
            (["correlation", "--x", "2", "--mu-list", "1,1.5", "--simulate",
              "--paths", "300", "--dt", "0.01", "--seed", "4"],
             "b1e55cba053fe848896473d98063e738514e1cccb3fe2a3e74058ec129a0167f"),
            (["correlation", "--x", "2", "--mu-list", "1,1.5", "--simulate",
              "--paths", "300", "--dt", "0.01", "--seed", "4", "--format", "text"],
             "dea8f404c29e9704f2c93b7ab06c6a46ffffaafa1396b5f656d6bd030963f4e6"),
            (["time-average", "--x", "1", "--mu", "1", "--simulate",
              "--paths", "300", "--seed", "8"],
             "5d34f4a8539a4b557a3d37551bf4214b82d1ecf2dc9ad27c287d76fc8aa6c993"),
        ],
        ids=["simulate", "density", "density-figure1", "correlation-csv",
             "correlation-text", "time-average"],
    )
    def test_bytes(self, capsys, tmp_path, argv, digest):
        code, out, err = run_cli(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
        text = f"{code}\n{out}\0{err}\0".replace(str(tmp_path), "{tmp}")
        h = hashlib.sha256(text.encode())
        for f in sorted(tmp_path.rglob("*")):
            if f.is_file():
                h.update(f.relative_to(tmp_path).as_posix().encode() + b"\0" + f.read_bytes())
        assert h.hexdigest() == digest


class TestParserShell:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--x", "1", "--mu", "1", "--paths", "2", "--out", "{missing}"],
            ["moment", "--m", "1", "--n", "1", "--out", "{missing}"],
            # a directory is wanted where a file already stands
            ["density", "--figure1", "--out", "{file}"],
            ["density", "--x", "1", "--mu", "1", "--out", "{missing}"],
            ["correlation", "--x", "1", "--mu-list", "1", "--simulate", "--out", "{missing}"],
            ["time-average", "--x", "1", "--mu", "1", "--simulate", "--out", "{missing}"],
        ],
        ids=["simulate", "moment", "density-figure1", "density", "correlation-simulate",
             "time-average-simulate"],
    )
    def test_unwritable_out_is_an_argument_error(self, capsys, monkeypatch, tmp_path, argv):
        # the output is opened before any path is simulated or moment computed
        def no_run(*args):
            raise AssertionError("computed before opening the output")

        monkeypatch.setattr("fparea.mc.run", no_run)
        monkeypatch.setattr("fparea.moments.joint_moment", no_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        paths = {"missing": str(tmp_path / "missing" / "x.csv"), "file": str(taken)}
        code, _, err = run_cli(capsys, *[arg.format(**paths) for arg in argv])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--x", "1", "--mu", "inf"],
            ["density", "--x", "1", "--mu", "inf"],
            ["time-average", "--x", "1", "--mu", "inf", "--simulate"],
            ["correlation", "--x", "1", "--mu-list", "inf", "--simulate"],
        ],
        ids=["simulate", "density", "time-average-simulate", "correlation-simulate"],
    )
    def test_zero_horizon_is_an_argument_error(self, capsys, argv):
        # the default horizon 50*x/mu is 0 at mu = inf
        code, out, err = run_cli(capsys, *argv, "--paths", "10")
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["correlation", "--x", "1", "--mu-list", "1,2", "--simulate", "--paths", "3"],
            ["time-average", "--x", "1", "--mu", "1", "--simulate", "--paths", "1"],
            ["density", "--x", "1", "--mu", "1", "--paths", "1", "--out", "{out}"],
            ["density", "--figure1", "--paths", "1", "--out", "{out}"],
        ],
        ids=["correlation", "time-average", "density", "density-figure1"],
    )
    def test_too_few_paths_is_an_argument_error(self, capsys, monkeypatch, tmp_path, argv):
        # the estimator's minimum is checked with the other flags, before any output
        def no_run(*args):
            raise AssertionError("simulated before --paths was checked")

        monkeypatch.setattr("fparea.mc.run", no_run)
        target = tmp_path / "out"
        code, out, err = run_cli(capsys, *[arg.format(out=target) for arg in argv])
        assert code == 2
        assert out == "" and err.startswith("error: --paths must be at least") and "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            # gamma = mu*x underflows to 0.0
            (["correlation", "--x", "1e-320", "--mu-list", "1e-10"], "gamma must be positive"),
            (["time-average", "--x", "1e-320", "--mu", "1e-10", "--out", "{out}"], "underflows to zero"),
        ],
        ids=["correlation", "time-average"],
    )
    def test_exact_values_checked_before_output(self, capsys, tmp_path, argv, message):
        target = tmp_path / "out"
        code, out, err = run_cli(capsys, *[arg.format(out=target) for arg in argv])
        assert code == 2
        assert out == "" and err.startswith("error:") and message in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["correlation", "--x", "1", "--mu-list", "0.02", "--simulate", "--paths", "4", "--seed", "8"], 1),
            (["simulate", "--x", "1", "--mu", "0.02", "--paths", "2", "--seed", "57"], 3),
        ],
        ids=["correlation", "simulate"],
    )
    def test_too_few_uncensored_samples_exit_3(self, capsys, argv, rows):
        # censoring leaves fewer uncensored samples than an estimator needs:
        # a statistical-quality failure, and the output already written stays
        code, out, err = run_cli(capsys, *argv, "--dt", "50", "--no-bridge")
        assert code == 3
        assert len(out.splitlines()) == rows
        assert "censored fraction" in err and "uncensored samples, have" in err
        assert "usage:" not in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", [["--x", "-1", "--mu", "1"], ["--x", "1", "--mu", "0"]])
    def test_moment_checks_flags_before_computing(self, capsys, monkeypatch, bad):
        def no_fill(m, n):
            raise AssertionError("moment computed before its flags were checked")

        monkeypatch.setattr("fparea.moments.joint_moment", no_fill)
        code, out, err = run_cli(capsys, "moment", "--m", "30", "--n", "30", *bad)
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err

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
        # scipy is a test dependency only: with every import of it made to
        # fail, the exact commands and the simulator still run
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from fparea import cli\n"
            "sim = ['--paths', '200', '--dt', '0.01', '--seed', '3']\n"
            "codes = [cli.main(argv) for argv in (\n"
            "    ['moment', '--m', '2', '--n', '1', '--x', '1', '--mu', '1'],\n"
            "    ['time-average', '--x', '1', '--mu', '1'],\n"
            "    ['correlation', '--x', '1', '--mu-list', '1'],\n"
            "    ['correlation', '--x', '1', '--mu-list', '1', '--simulate', *sim],\n"
            "    ['simulate', '--x', '1', '--mu', '1', *sim],\n"
            ")]\n"
            "print(codes)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]", proc.stderr

    def test_no_numpy_on_the_exact_path(self):
        # numpy is loaded by the simulating commands only: with every import
        # of it made to fail, --help and the exact commands still run, and an
        # exact command's error is still an argument error
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from fparea import cli\n"
            "def code(argv):\n"
            "    try:\n"
            "        return cli.main(argv)\n"
            "    except SystemExit as exc:\n"
            "        return exc.code\n"
            "codes = [code(argv) for argv in (\n"
            "    ['--help'],\n"
            "    ['moment', '--m', '2', '--n', '1', '--x', '1', '--mu', '1'],\n"
            "    ['time-average', '--x', '1', '--mu', '1'],\n"
            "    ['correlation', '--x', '1', '--mu-list', '1'],\n"
            "    ['moment', '--m', '7', '--n', '7', '--x', '1', '--mu', '1e-20'],\n"
            ")]\n"
            "print(codes)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 2]", proc.stderr

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fparea.cli", "moment", "--m", "0", "--n", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1\n"
