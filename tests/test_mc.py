"""Simulator: determinism, backend equivalence, oracle batteries, censoring."""

import hashlib
import io
import math
import os
import pickle
import platform
import subprocess
import sys

import numpy as np
import pytest
from oracles import (
    BRIDGE_HIT,
    ENDPOINT_HIT,
    NO_EVENT,
    mean_fpa,
    mean_tau_a,
    scan_rows_one_pass,
    second_moment_fpa,
)

from fparea import kernels, mc
from fparea.closed_forms import (
    ModelParams,
    expected_time_average,
    fpa_density_zero_drift,
    rho_exact,
)
from fparea.mc import (
    DegenerateVarianceError,
    EstimatorSummary,
    HistogramDensity,
    InsufficientSamplesError,
    PassageSample,
    SimConfig,
    estimate_correlation,
    estimate_density,
    estimate_joint_moment,
    estimate_time_average,
    run,
    simulate_path,
    write_histogram_csv,
    write_samples_csv,
)

BATTERY = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=10_000, seed=777)
SMALL = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=25, seed=4)


@pytest.fixture(scope="module")
def battery():
    return run(BATTERY)


class TestConfig:
    def test_default_horizon(self):
        cfg = SimConfig(ModelParams(x=2.0, mu=0.5), dt=1e-3, paths=1, seed=0)
        assert cfg.max_time == 200.0
        assert cfg.max_steps == 200_000

    def test_max_steps_rounds_up(self):
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=0.3, paths=1, seed=0, max_time=1.0)
        assert cfg.max_steps == 4

    def test_default_horizon_must_be_finite(self):
        # 50*x/mu overflows to inf
        for x, mu in ((1.0, 1e-320), (1e308, 1e-10)):
            with pytest.raises(ValueError, match="must be finite"):
                SimConfig(ModelParams(x=x, mu=mu), dt=1e-3, paths=1, seed=0)

    def test_default_horizon_must_be_positive(self):
        # 50*x/mu is 0.0 at mu = inf, and underflows to 0.0 at 5e-324/1e10
        for x, mu in ((1.0, math.inf), (5e-324, 1e10)):
            with pytest.raises(ValueError, match="positive"):
                SimConfig(ModelParams(x=x, mu=mu), dt=1e-3, paths=1, seed=0)

    def test_zero_drift_needs_explicit_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(ModelParams(x=1.0, mu=0.0), dt=1e-3, paths=1, seed=0)
        cfg = SimConfig(ModelParams(x=1.0, mu=0.0), dt=1e-3, paths=1, seed=0, max_time=10.0)
        assert cfg.max_time == 10.0

    def test_validation(self):
        good = dict(params=ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=2, seed=1)
        SimConfig(**good)
        for field, value in [
            ("dt", 0.0),
            ("dt", -1.0),
            ("dt", math.inf),
            ("paths", 0),
            ("paths", 2.5),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", 2**64),
            ("max_time", -5.0),
            ("max_time", math.inf),
            # 5e301 and 1e303 steps overflow the int64 step counters
            ("dt", 1e-300),
            ("max_time", 1e300),
        ]:
            with pytest.raises(ValueError):
                SimConfig(**{**good, field: value})


class TestDeterminism:
    def test_rerun_is_identical(self):
        assert run(SMALL) == run(SMALL)

    def test_single_path_matches_run(self):
        samples = run(SMALL)
        assert len(samples) == SMALL.paths
        for i in (0, 1, 7, SMALL.paths - 1):
            assert simulate_path(SMALL, i) == samples[i]

    @pytest.mark.parametrize(
        "x, mu, dt, paths, bridge, digest",
        [
            (1.0, 1.0, 1e-3, 500, True, "2c91bb86e32f597a3ae117657f9c534fd648f874035d09bb88fbdfdbd6c4c77a"),
            (1.0, 1.0, 1e-3, 500, False, "9fcb22800193aac635d8d35c0fd41189f5058761b3a91817c54e20ff644b3fe5"),
            # rows far from zero for many rounds, then entering the bridge band
            (10.0, 0.5, 1e-3, 130, True, "ac765a0a1022c47e6de4721f4c122bdc5e652ed532bd8465ded8df0269c404a6"),
            # rows inside the band from column 0 of round 0
            (0.3, 1.0, 1e-3, 200, True, "347a20dbdf6a7840e635a9de40c1882022cd57538b8d1da3be4e456def88c0d0"),
            # a band (1.93) wider than x
            (1.0, 1.0, 1e-2, 200, True, "ba664ca8290c2d30bf5b38c59d041c8ed4c5ab7c95e697827d7cd6385a223775"),
        ],
        ids=["bridge", "no-bridge", "x10", "x0.3", "dt1e-2"],
    )
    def test_pinned_csv_bytes(self, x, mu, dt, paths, bridge, digest):
        # the CSVs as RNG scheme v1 and the one-path-per-call scan first
        # wrote them (500 paths through 64 row slots, each refilled ~7 times)
        cfg = SimConfig(ModelParams(x=x, mu=mu), dt=dt, paths=paths, seed=4, bridge_correction=bridge)
        buf = io.StringIO()
        write_samples_csv(run(cfg), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_stream_index_range_checked(self):
        for bad in (-1, SMALL.paths):
            with pytest.raises(ValueError):
                simulate_path(SMALL, bad)

    def test_single_path_run(self):
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=1, seed=9)
        assert len(run(cfg)) == 1

    def test_block_sizing_is_invisible(self, monkeypatch):
        want = run(SMALL)
        for sizing in (
            {"_CHUNK_PATHS": 1},  # one row, refilled path after path
            {"_BLOCK_MAX": 7},  # 7-step blocks
            {"_CHUNK_PATHS": 7, "_ROUND_BUDGET": 40},  # 7 slots, 5-step blocks
            # 3 slots refilled ~8 times each: rows started rounds apart,
            # so paths of very different lengths share every round
            {"_CHUNK_PATHS": 3, "_BLOCK_MAX": 50},
            # 256-step blocks from the budget, longer once the last rows leave
            {"_CHUNK_PATHS": 3, "_ROUND_BUDGET": 768},
        ):
            with monkeypatch.context() as patch:
                for name, value in sizing.items():
                    patch.setattr(mc, name, value)
                assert run(SMALL) == want, sizing

    def test_refilled_rows_meet_the_horizon_apart(self, monkeypatch):
        # mu = 0 from x = 0.3: about two paths in three cross before the
        # 500-step horizon, at any step.  Three slots refilled at different
        # rounds hold different bases, so in one round the horizon falls
        # mid-block for the oldest row (500 is no multiple of 64 or 7) and
        # past the block end for the rows refilled since.
        cfg = SimConfig(ModelParams(x=0.3, mu=0.0), dt=1e-3, paths=25, seed=12, max_time=0.5)
        with monkeypatch.context() as patch:
            patch.setattr(mc, "_CHUNK_PATHS", 1)
            want = run(cfg)
        assert 0 < sum(s.censored for s in want) < cfg.paths
        assert all(s.tau == 0.5 and s.steps == 500 for s in want if s.censored)
        assert [simulate_path(cfg, i) for i in range(cfg.paths)] == want
        for block in (64, 7):
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_CHUNK_PATHS", 3)
                patch.setattr(mc, "_BLOCK_MAX", block)
                assert run(cfg) == want, block

    def test_single_path_matches_run_across_chunks(self):
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=2 * mc._CHUNK_PATHS + 3, seed=21)
        samples = run(cfg)
        for i in (mc._CHUNK_PATHS - 1, mc._CHUNK_PATHS, 2 * mc._CHUNK_PATHS + 2):
            assert simulate_path(cfg, i) == samples[i]

    def test_long_path_survives_several_rounds(self, monkeypatch):
        # x=10: ~10000 steps a path against rounds of 4096 steps
        cfg = SimConfig(ModelParams(x=10.0, mu=1.0), dt=1e-3, paths=3, seed=8)
        block = 4096
        with monkeypatch.context() as patch:
            patch.setattr(mc, "_BLOCK_MAX", block)
            samples = run(cfg)
        steps = [s.steps for s in samples if not s.censored]
        assert len(steps) == 3 and min(steps) > block and max(steps) > 2 * block
        for i in range(cfg.paths):
            assert simulate_path(cfg, i) == samples[i]

    def test_no_bridge_deterministic_too(self):
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=30, seed=5, bridge_correction=False)
        assert run(cfg) == run(cfg)


BACKENDS = [
    pytest.param((kernels.walk_rows_reference, kernels.scan_rows_reference), id="reference"),
    pytest.param((kernels.walk_rows, kernels.scan_rows), id="numpy"),
]


def _random_rows(rng, rows, nsteps):
    """Per-row carries and draws: a row hit at j = 0, a row never near zero,
    and a row stepping in and out of the bridge band every few steps."""
    x0 = float(rng.uniform(0.02, 2.0))
    dt = float(rng.choice([1e-3, 1e-2, 0.1, 1.0]))
    drift, sqrt_dt = -0.5 * dt, math.sqrt(dt)
    s_carry = rng.normal(scale=0.2, size=rows)
    s_carry[x0 + s_carry <= 0] = 0.0
    area_carry = rng.uniform(0.0, 3.0, size=rows)
    z = rng.standard_normal((rows, nsteps))
    u = rng.random((rows, nsteps))
    # row 0 starts just above zero and steps far below it at once
    s_carry[0] = 1e-9 - x0
    z[0, 0] = -50.0
    if rows > 1:
        # the last row starts far above zero and rises every step
        s_carry[-1] = 1e3
        z[-1] = np.abs(z[-1]) + 3.0
    if rows > 2:
        # row 1 alternates runs of `period` steps at 3 and at 1/2 bands
        band = kernels.bridge_band(dt)
        period = int(rng.integers(1, 6))
        level = np.where(np.arange(-1, nsteps) // period % 2 == 0, 3.0, 0.5) * band
        s_carry[1] = level[0] - x0
        z[1] = (np.diff(level) - drift) / sqrt_dt
    return (x0, s_carry, area_carry, drift, sqrt_dt, dt), z, u


def _bitwise(result):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in result]


def _split_scan(backend, x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z, u):
    """One block through a backend's two phases, as the driver runs it.

    The normals go into columns 1.. of the block; column 0 holds NaN,
    which a walk that read it would carry into every result.  Only the
    rows with entry < stop are scanned, with the uniforms the driver
    would draw for them (from entry to stop - 1); every other slot, those
    at and past stop included, holds -1.0, which any read would turn into
    a hit.  The other rows take stop, as in the driver.  Returns the walk
    and, gathered from it at the scanned column, the per-row tuple of
    `scan_rows_one_pass`.
    """
    walk, scan = backend
    rows, size = z.shape
    block = np.full((rows, size + 1), np.nan)
    block[:, 1:] = z
    walked = walk(x0, s_carry, area_carry, drift, sqrt_dt, dt, band, block)
    s, x, area, entry, stop = walked
    near = np.flatnonzero(entry < stop)
    drawn = np.full((near.size, size), -1.0)
    for k, r in enumerate(near):
        drawn[k, entry[r] : stop[r]] = u[r, entry[r] : stop[r]]
    j = stop.copy()
    if near.size:
        j[near] = scan(dt, x[near], entry[near], stop[near], drawn)
    status = np.where(j == size, NO_EVENT, np.where(j == stop, ENDPOINT_HIT, BRIDGE_HIT))
    r = np.arange(rows)
    return walked, (status, j, x[r, j], x[r, np.minimum(j + 1, size)], area[r, j])


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bridge", [True, False])
    def test_samples_bitwise_identical(self, monkeypatch, backend, bridge):
        cfg = SimConfig(ModelParams(x=1.0, mu=0.8), dt=1e-3, paths=40, seed=11, bridge_correction=bridge)
        want = run(cfg)
        monkeypatch.setattr(kernels, "walk_rows", backend[0])
        monkeypatch.setattr(kernels, "scan_rows", backend[1])
        assert run(cfg) == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_contract_on_random_blocks(self, backend):
        # two consecutive blocks of random draws through the split kernels,
        # the rows still running carried from the last column of the first
        # into the second, against the one-pass scan of both blocks as one
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(60):
            rows = int(rng.integers(1, 9))
            n1, n2 = (int(n) for n in rng.integers(1, 50, size=2))
            head, z, u = _random_rows(rng, rows, n1 + n2)
            x0, s_carry, area_carry, drift, sqrt_dt, dt = head
            for bridge in (True, False):
                band = kernels.bridge_band(dt) if bridge else 0.0
                want = scan_rows_one_pass(*head, bridge, z, u)
                walk1, got1 = _split_scan(
                    backend, x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z[:, :n1], u[:, :n1]
                )
                live = np.flatnonzero(got1[0] == NO_EVENT)
                s_end, area_end = walk1[0][live], walk1[2][live, -1]
                walk2, got2 = _split_scan(
                    backend, x0, s_end, area_end, drift, sqrt_dt, dt, band, z[live, n1:], u[live, n1:]
                )
                got = [a.copy() for a in got1]
                for a1, a2 in zip(got, got2):
                    a1[live] = a2
                got[1][live] += n1
                assert _bitwise(got) == _bitwise(want)
                status, j = want[0], want[1]
                assert status[0] == ENDPOINT_HIT and j[0] == 0
                seen.update(zip(status.tolist(), (j == 0).tolist(), [bridge] * rows))
                if not bridge:
                    # a band of 0: no step starts at zero, so entry is stop
                    assert all(np.array_equal(w[3], w[4]) for w in (walk1, walk2))
                    continue
                entries = []
                for (s, x, area, entry, stop), row1 in ((walk1, [1]), (walk2, np.flatnonzero(live == 1))):
                    # the band is necessary: no live bridge lane before entry
                    arg = ((-2.0 * x[:, :-1]) * x[:, 1:]) / dt
                    before = np.arange(x.shape[1] - 1) < entry[:, None]
                    assert not (arg >= kernels.BRIDGE_LOG_FLOOR)[before].any()
                    seen.add(("never", bool((entry == x.shape[1] - 1).any())))
                    if rows > 2 and len(row1):
                        # the times row 1 came into the band in this block
                        inside = x[row1[0]] <= band
                        entries.append(int(inside[0]) + int((~inside[:-1] & inside[1:]).sum()))
                if rows > 2 and 1 in live:
                    seen.add(("re-entry", max(entries) >= 2))
                    # row 1 left the band in block 1 and came back in block 2
                    out_at_end = walk1[1][1, -1] > band
                    seen.add(("boundary", bool(entries[0] and out_at_end and entries[1])))
        # every outcome occurred: hits at j = 0 and later, and rows without
        # a hit, with the bridge on and off
        for bridge in (True, False):
            assert (NO_EVENT, False, bridge) in seen
            assert (ENDPOINT_HIT, False, bridge) in seen
        assert {(BRIDGE_HIT, True, True), (BRIDGE_HIT, False, True)} <= seen
        assert {("re-entry", True), ("boundary", True), ("never", True)} <= seen


class TestOracleBattery:
    def test_passage_time_mean(self, battery):
        s = estimate_joint_moment(battery, 1, 0)
        assert s.censored_count == 0
        assert s.n_effective == BATTERY.paths
        assert abs(s.estimate - 1.0) <= 3.0 * s.std_error

    def test_area_mean(self, battery):
        s = estimate_joint_moment(battery, 0, 1)
        assert abs(s.estimate - mean_fpa(BATTERY.params)) <= 3.0 * s.std_error

    def test_second_moments_and_cross(self, battery):
        checks = [
            ((2, 0), 2.0),
            ((1, 1), mean_tau_a(BATTERY.params)),
            ((0, 2), second_moment_fpa(BATTERY.params)),
        ]
        for (m, n), exact in checks:
            s = estimate_joint_moment(battery, m, n)
            assert abs(s.estimate - exact) <= 3.0 * s.std_error, (m, n)

    def test_correlation(self, battery):
        # the sample correlation of the heavy-tailed pair converges slowly:
        # at this n its small-sample inflation (~ +0.014, shrinking with n)
        # dwarfs the Fisher width, and the dt bias adds ~ +0.002
        s = estimate_correlation(battery)
        assert abs(s.estimate - rho_exact(1.0)) <= 0.02

    def test_time_average(self, battery):
        s = estimate_time_average(battery)
        exact = expected_time_average(BATTERY.params)
        assert abs(s.estimate - exact) <= 3.0 * s.std_error
        assert s.estimate >= 0.5 * BATTERY.params.x

    def test_all_samples_strictly_positive(self, battery):
        assert all(s.tau > 0 and s.area > 0 for s in battery)

    def test_fast_drift_concentrates(self):
        cfg = SimConfig(ModelParams(x=1.0, mu=1000.0), dt=1e-6, paths=10_000, seed=31)
        s = estimate_joint_moment(run(cfg), 1, 0)
        assert s.censored_count == 0
        assert abs(s.estimate - 1e-3) <= 3.0 * s.std_error


class TestRounds:
    def test_slots_keep_most_draws(self, monkeypatch):
        # At the C6 point a path crosses after ~1000 steps.  Every normal
        # drawn past a crossing is discarded, so rounds that let rows idle
        # and stretch the block over the rest waste more: chunked rounds
        # consumed 0.67 of the draws here, slots refilled at once 0.78.
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=2000, seed=7)
        walk = kernels.walk_rows
        normals = 0

        def counted(x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z):
            nonlocal normals
            normals += z.shape[0] * (z.shape[1] - 1)
            return walk(x0, s_carry, area_carry, drift, sqrt_dt, dt, band, z)

        monkeypatch.setattr(kernels, "walk_rows", counted)
        steps = sum(s.steps for s in run(cfg))
        assert steps / normals >= 0.75

    def test_scan_only_rounds_with_near_rows(self, monkeypatch):
        # Without the bridge the band is 0, so no round scans.  At x = 10 a
        # path spends most of its ~20000 steps far from zero, so some rounds
        # have no row in the bridge band and skip the scan.
        def kernel_calls(x, bridge):
            cfg = SimConfig(ModelParams(x=x, mu=0.5), dt=1e-3, paths=20, seed=3, bridge_correction=bridge)
            want = run(cfg)
            calls = {"walk_rows": 0, "scan_rows": 0}
            with monkeypatch.context() as patch:
                for name in calls:
                    kernel = getattr(kernels, name)

                    def counted(*args, name=name, kernel=kernel):
                        calls[name] += 1
                        return kernel(*args)

                    patch.setattr(kernels, name, counted)
                assert run(cfg) == want
            return calls["walk_rows"], calls["scan_rows"]

        walks, scans = kernel_calls(1.0, bridge=False)
        assert scans == 0 < walks
        walks, scans = kernel_calls(10.0, bridge=True)
        assert 0 < scans < walks


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="splits runs by os.fork")
class TestWorkers:
    @staticmethod
    def _split(patch, cpus):
        """Split every run over up to `cpus` processes; count the forks."""
        forks = []
        fork = os.fork

        def counted():
            forks.append(None)
            return fork()

        patch.setattr(mc, "_WORKER_STEPS", 1)
        patch.setattr(mc, "_cpus", lambda: cpus)
        patch.setattr(os, "fork", counted)
        return forks

    @pytest.mark.parametrize(
        "config, cpus, workers",
        [
            (SMALL, 2, 2),
            (SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=25, seed=4, bridge_correction=False), 2, 2),
            # about a third of the paths censored at the 500-step horizon
            (SimConfig(ModelParams(x=0.3, mu=0.0), dt=1e-3, paths=25, seed=12, max_time=0.5), 2, 2),
            # ranges of 8, 8 and 9 paths
            (SMALL, 3, 3),
            # fewer paths than CPUs: one path a process
            (SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=3, seed=4), 8, 3),
            (SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=1, seed=4), 8, 1),
        ],
        ids=["bridge", "no-bridge", "censoring", "uneven", "few-paths", "one-path"],
    )
    def test_split_equals_serial(self, monkeypatch, config, cpus, workers):
        want = mc._scan_paths(config, 0, config.paths)
        with monkeypatch.context() as patch:
            forks = self._split(patch, cpus)
            assert mc._workers(config) == workers
            assert run(config) == want
        assert len(forks) == workers - 1
        _no_children()

    def test_failing_child_raises(self, monkeypatch):
        scan = mc._scan_paths

        def failing(config, first, count):
            if first:
                raise RuntimeError("a child fails")
            return scan(config, first, count)

        with monkeypatch.context() as patch:
            self._split(patch, 2)
            patch.setattr(mc, "_scan_paths", failing)
            with pytest.raises(RuntimeError, match=r"(?s)paths 12\.\.24 failed:.*RuntimeError: a child fails"):
                run(SMALL)
        _no_children()

    def test_short_read_raises(self, monkeypatch):
        # a child that dies while writing leaves its pickle cut short
        dumps = pickle.dumps
        with monkeypatch.context() as patch:
            self._split(patch, 3)
            patch.setattr(pickle, "dumps", lambda obj: dumps(obj)[:-1])
            with pytest.raises(RuntimeError, match=r"paths 8\.\.15 failed:\nits result could not be read"):
                run(SMALL)
        _no_children()

    def test_failing_caller_reaps_its_children(self, monkeypatch):
        # the caller's own range raises while the children still run
        scan = mc._scan_paths

        def interrupted(config, first, count):
            if not first:
                raise KeyboardInterrupt
            return scan(config, first, count)

        with monkeypatch.context() as patch:
            self._split(patch, 2)
            patch.setattr(mc, "_scan_paths", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run(SimConfig(ModelParams(x=10.0, mu=0.5), dt=1e-3, paths=20, seed=3))
        _no_children()

    @pytest.mark.parametrize(
        "config",
        [
            # the inputs of test_slots_keep_most_draws and
            # test_scan_only_rounds_with_near_rows, whose kernel counters
            # see only the calling process
            SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=2000, seed=7),
            SimConfig(ModelParams(x=1.0, mu=0.5), dt=1e-3, paths=20, seed=3, bridge_correction=False),
            SimConfig(ModelParams(x=10.0, mu=0.5), dt=1e-3, paths=20, seed=3),
            # test_paths_reuse_heap_pages, whose fault count sees one process
            SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=1000, seed=5),
            # [C11]
            SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=1500, seed=31),
        ],
        ids=["slots", "scan-no-bridge", "scan-x10", "heap-pages", "C11"],
    )
    def test_small_runs_never_fork(self, monkeypatch, config):
        def no_fork():
            raise AssertionError("a small run forked")

        monkeypatch.setattr(mc, "_cpus", lambda: 64)
        monkeypatch.setattr(os, "fork", no_fork)
        assert len(run(config)) == config.paths


class TestBridgeBias:
    def test_pathwise_ordering(self):
        # same Gaussian stream: the correction can only add crossings
        base = dict(params=ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=1500, seed=6)
        with_bridge = run(SimConfig(**base, bridge_correction=True))
        without = run(SimConfig(**base, bridge_correction=False))
        strict = 0
        for b, nb in zip(with_bridge, without):
            assert b.tau <= nb.tau
            assert b.area <= nb.area
            strict += b.tau < nb.tau
        assert strict > 0

    def test_uncorrected_battery_within_widened_tolerance(self):
        # endpoint-only detection carries a documented O(sqrt(dt)) tau bias
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=10_000, seed=777, bridge_correction=False)
        s = estimate_joint_moment(run(cfg), 1, 0)
        assert abs(s.estimate - 1.0) <= 5.0 * s.std_error

    def test_bias_measured_on_a_dt_ladder(self):
        # Broadie-Glasserman-Kou (1997): endpoint detection sees the barrier
        # shifted by beta*sqrt(dt), beta = -zeta(1/2)/sqrt(2*pi), so E[tau]
        # runs late by beta*sqrt(dt)/mu.  The bridge removes that term; its
        # remaining bias is below the noise here, so no order is claimed.
        beta = 1.4603545088095868 / math.sqrt(2.0 * math.pi)
        x, mu = 1.0, 1.0
        for dt in (0.04, 0.01):
            base = dict(params=ModelParams(x=x, mu=mu), dt=dt, paths=40_000, seed=99)
            plain = estimate_joint_moment(run(SimConfig(**base, bridge_correction=False)), 1, 0)
            bridged = estimate_joint_moment(run(SimConfig(**base)), 1, 0)
            plain_bias, bridged_bias = plain.estimate - x / mu, bridged.estimate - x / mu
            assert abs(plain_bias - beta * math.sqrt(dt) / mu) <= 4.0 * plain.std_error, dt
            assert abs(bridged_bias) <= 4.0 * bridged.std_error, dt
            assert abs(bridged_bias) <= plain_bias / 4.0, dt


class TestCensoring:
    def test_unreachable_horizon_censors_everything(self):
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=50, seed=3, max_time=0.01)
        samples = run(cfg)
        assert all(s.censored for s in samples)
        assert all(s.tau == 0.01 and s.steps == 10 for s in samples)
        for estimator in (
            lambda ss: estimate_joint_moment(ss, 1, 0),
            estimate_correlation,
            estimate_time_average,
            lambda ss: estimate_density(ss, 10),
        ):
            with pytest.raises(InsufficientSamplesError):
                estimator(samples)

    def test_horizon_ends_mid_round(self, monkeypatch):
        # max_steps = 300 against 256-step rounds: the second round cuts the
        # 64 first paths short at column 44 and runs the refilled rows on
        cfg = SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=70, seed=3, max_time=0.3)
        with monkeypatch.context() as patch:
            patch.setattr(mc, "_BLOCK_MAX", 256)
            samples = run(cfg)
        censored = [s for s in samples if s.censored]
        assert 0 < len(censored) < cfg.paths
        assert all(s.tau == cfg.max_steps * cfg.dt and s.steps == 300 for s in censored)
        assert all(s.steps <= 300 for s in samples)
        assert simulate_path(cfg, 69) == samples[69]
        assert run(cfg) == samples  # one 300-step round

    def test_zero_drift_with_explicit_horizon(self, monkeypatch):
        cfg = SimConfig(ModelParams(x=1.0, mu=0.0), dt=1e-3, paths=70, seed=54, max_time=2.0)
        samples = run(cfg)
        assert 0 < sum(s.censored for s in samples) < cfg.paths
        assert all(s.tau > 0 and s.area > 0 for s in samples)
        assert [simulate_path(cfg, i) for i in (0, 64, 69)] == [samples[i] for i in (0, 64, 69)]
        monkeypatch.setattr(mc, "_CHUNK_PATHS", 1)
        assert run(cfg) == samples

    def test_censored_samples_are_excluded(self):
        samples = [
            PassageSample(1.0, 2.0, 1000, False),
            PassageSample(3.0, 4.0, 3000, False),
            PassageSample(50.0, 99.0, 50_000, True),
        ]
        s = estimate_joint_moment(samples, 1, 0)
        assert s.estimate == 2.0
        assert s.n_effective == 2
        assert s.censored_count == 1

    def test_minimum_sample_counts(self):
        pool = [
            PassageSample(1.0, 1.0, 1, False),
            PassageSample(2.0, 2.0, 2, False),
            PassageSample(3.0, 1.5, 3, False),
        ]
        with pytest.raises(InsufficientSamplesError):
            estimate_joint_moment(pool[:1], 1, 0)
        # Fisher-z stderr needs n - 3 > 0, so three samples must still raise.
        with pytest.raises(InsufficientSamplesError):
            estimate_correlation(pool)

    def test_degenerate_variance(self):
        same = [PassageSample(1.0, 2.0, 10, False)] * 4
        with pytest.raises(DegenerateVarianceError):
            estimate_correlation(same)


class TestEstimators:
    def test_trivial_moment(self, battery):
        s = estimate_joint_moment(battery, 0, 0)
        assert s.estimate == 1.0
        assert s.std_error == 0.0

    def test_rejects_negative_orders(self, battery):
        with pytest.raises(ValueError):
            estimate_joint_moment(battery, -1, 0)

    def test_summary_counts_add_up(self, battery):
        for s in (
            estimate_joint_moment(battery, 1, 0),
            estimate_correlation(battery),
            estimate_time_average(battery),
        ):
            assert isinstance(s, EstimatorSummary)
            assert s.std_error >= 0.0
            assert s.n_effective + s.censored_count == BATTERY.paths


class TestDensity:
    def test_normalized_over_range(self, battery):
        hist = estimate_density(battery, bins=40)
        widths = np.diff(hist.bin_edges)
        assert np.all(widths > 0)
        np.testing.assert_allclose(float(np.sum(hist.mass * widths)), 1.0, rtol=1e-12)

    def test_default_range_is_trimmed_percentile(self, battery):
        hist = estimate_density(battery, bins=10)
        areas = np.array([s.area for s in battery if not s.censored])
        assert hist.bin_edges[0] == 0.0
        np.testing.assert_allclose(hist.bin_edges[-1], np.percentile(areas, 99.5))

    def test_bins_validated(self, battery):
        with pytest.raises(ValueError):
            estimate_density(battery, bins=1)

    def test_peak_grows_with_drift(self):
        def peak(mu):
            cfg = SimConfig(ModelParams(x=1.0, mu=mu), dt=1e-3, paths=4000, seed=88)
            return float(estimate_density(run(cfg), bins=40).mass.max())

        assert peak(3.0) > peak(1.0)

    def test_zero_drift_matches_closed_form_density(self):
        # generous horizon; censoring reported, shape compared on low areas
        # where horizon truncation is immaterial
        cfg = SimConfig(
            ModelParams(x=1.0, mu=0.0), dt=1e-3, paths=2000, seed=54, max_time=30.0
        )
        samples = run(cfg)
        censored = sum(s.censored for s in samples)
        assert 0 < censored < 0.4 * len(samples)
        # over [0, 1], not estimate_density's [0, 99.5th percentile], which
        # reaches far into the a^(-4/3) tail here
        areas = [s.area for s in samples if not s.censored]
        mass, edges = np.histogram(areas, bins=8, range=(0.0, 1.0), density=True)
        n_in = sum(
            1 for s in samples if not s.censored and 0.0 <= s.area <= 1.0
        )
        grid = np.linspace(1e-6, 1.0, 4001)
        f = np.array([fpa_density_zero_drift(1.0, a) for a in grid])
        total = float(np.trapezoid(f, grid))
        for left, right, m in zip(edges[:-1], edges[1:], mass):
            lo, hi = np.searchsorted(grid, [left, right])
            seg = slice(max(lo, 1) - 1, min(hi + 1, len(grid)))
            p = float(np.trapezoid(f[seg], grid[seg])) / total
            observed = float(m) * (right - left)
            tol = 5.0 * math.sqrt(max(p * (1.0 - p), 1e-6) / n_in) + 0.01
            assert abs(observed - p) <= tol, (left, right)


class TestCsv:
    def test_samples_golden(self):
        samples = [
            PassageSample(1.5, 2.25, 1500, False),
            PassageSample(0.5, 0.125, 500, True),
        ]
        buf = io.StringIO()
        write_samples_csv(samples, buf)
        assert buf.getvalue() == (
            "path_index,tau,area,steps,censored\n"
            "0,1.5,2.25,1500,0\n"
            "1,0.5,0.125,500,1\n"
        )

    def test_histogram_golden(self):
        hist = HistogramDensity(np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.5]))
        buf = io.StringIO()
        write_histogram_csv(hist, buf)
        assert buf.getvalue() == "bin_left,bin_right,density\n0,0.5,0.5\n0.5,1,1.5\n"

    def test_full_precision_round_trip(self, battery):
        buf = io.StringIO()
        write_samples_csv(battery[:100], buf)
        lines = buf.getvalue().splitlines()[1:]
        for i, line in enumerate(lines):
            idx, tau, area, steps, censored = line.split(",")
            assert int(idx) == i
            assert float(tau) == battery[i].tau
            assert float(area) == battery[i].area
            assert int(steps) == battery[i].steps
            assert censored in ("0", "1")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="measures glibc heap trimming")
def test_paths_reuse_heap_pages():
    # A fresh interpreter with nothing but fparea loaded: if glibc trimmed
    # the heap between paths, each path would fault about a dozen pages
    # back in (some 12000 for these 1000 paths).
    script = (
        "import resource\n"
        "from fparea import mc\n"
        "from fparea.closed_forms import ModelParams\n"
        "config = mc.SimConfig(ModelParams(x=1.0, mu=1.0), dt=1e-3, paths=1000, seed=5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "mc.run(config)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 3000
