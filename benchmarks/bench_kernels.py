"""Compare the row-scan kernel backends on identical inputs, then time them.

Two measurements: the kernel alone (`kernels.scan_rows_*`) on pre-drawn
(rows, block) normal/uniform blocks with per-row carries, and `mc.run` at
the C6 point (x=1, mu=1, dt=1e-3 by default) with the backend swapped
under `fparea.kernels.scan_rows`.  Backends: the scalar reference, the
numpy twin, and the numba build of the reference where numba is installed.
Every backend must agree bitwise with the reference before any timing is
taken; the reference itself is too slow to time and only witnesses.

Usage: python3 benchmarks/bench_kernels.py [--paths 8000] [--rows 64] ...
"""

import argparse
import time

import numpy as np

from fparea import kernels, mc
from fparea.closed_forms import ModelParams
from fparea.mc import SimConfig


def _best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fast_backends():
    backends = [("numpy", kernels.scan_rows_numpy)]
    if kernels.HAS_NUMBA:
        backends.append(("numba", kernels.scan_rows_compiled))
    return backends


def _bitwise(result):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in result]


def bench_rows(args):
    rng = np.random.default_rng(args.seed)
    shape = (args.rows, args.block)
    blocks = [
        (rng.normal(scale=0.1, size=args.rows), rng.uniform(0.0, 1.0, size=args.rows),
         rng.standard_normal(shape), rng.random(shape))
        for _ in range(args.blocks)
    ]
    sqrt_dt = args.dt ** 0.5
    drift = -args.mu * args.dt

    def sweep(kernel):
        return [
            kernel(args.x, s, a, drift, sqrt_dt, args.dt, True, z, u) for s, a, z, u in blocks
        ]

    want = [_bitwise(out) for out in sweep(kernels.scan_rows_reference)]
    backends = _fast_backends()
    for name, kernel in backends:  # also compiles the numba build before timing
        if [_bitwise(out) for out in sweep(kernel)] != want:
            raise SystemExit(f"{name} kernel differs from the reference on identical blocks")

    steps = args.blocks * args.rows * args.block
    print(f"row kernel, {args.blocks} blocks of {args.rows} rows x {args.block} steps:")
    times = {}
    for name, kernel in backends:
        t = _best_of(args.repeat, lambda k=kernel: sweep(k))
        times[name] = t
        print(f"  {name:>6}: {t * 1e3:8.2f} ms  ({t / steps * 1e9:6.1f} ns/step)")
    if len(times) == 2:
        print(f"  speedup numba/numpy: {times['numpy'] / times['numba']:.1f}x")


def bench_run(args):
    cfg = SimConfig(ModelParams(args.x, args.mu), dt=args.dt, paths=args.paths, seed=args.seed)
    witness = SimConfig(cfg.params, dt=cfg.dt, paths=min(args.paths, 2 * mc._CHUNK_PATHS), seed=cfg.seed)
    saved = kernels.scan_rows
    samples = {}
    times = {}
    try:
        kernels.scan_rows = kernels.scan_rows_reference
        want = mc.run(witness)
        for name, kernel in _fast_backends():
            kernels.scan_rows = kernel
            if mc.run(witness) != want:
                raise SystemExit(f"{name} samples differ from the reference for {witness}")
            samples[name] = mc.run(cfg)  # warm run, also the equality witness
            times[name] = _best_of(args.repeat, lambda: mc.run(cfg))
    finally:
        kernels.scan_rows = saved
    if len(samples) == 2 and samples["numpy"] != samples["numba"]:
        raise SystemExit("backend samples differ for identical configuration")

    print(f"\nmc.run, {args.paths} paths at x={args.x} mu={args.mu} dt={args.dt}:")
    for name, t in times.items():
        print(f"  {name:>6}: {t:8.2f} s   ({t / args.paths * 1e6:6.1f} us/path)")
    if len(times) == 2:
        print(f"  speedup numba/numpy: {times['numpy'] / times['numba']:.1f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--x", type=float, default=1.0)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--paths", type=int, default=8000)
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--rows", type=int, default=64)
    parser.add_argument("--block", type=int, default=256)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"active backend: {kernels.backend_name()}")
    bench_rows(args)
    bench_run(args)


if __name__ == "__main__":
    main()
