#!/usr/bin/env python3
"""Per-layer timings at fixed shapes, written to BENCH_layers.json.

For real and complex Gaussian n x n matrices (n = 4, 8, 16, 32, seed 0)
it times, as the median of 5 runs on a fresh matrix each (so no memo is
reused):

  best_norm_1.5_3   one-point best_norm at (1.5, 3)
  grid_pointwise    the 25-point grid {1, 1.5, 2, 3, inf}^2, one
                    best_norm call per point
  grid_stacked      the same grid in one best_norms call
  sweep             `pqnorm sweep FILE - -p 2 -q 2` over that grid, in-process
  verify            `pqnorm verify FILE`, in-process
  check_einf1_P_Q   check_Einf1 at (2, 2) and (1.5, 3) on a matrix whose
                    norm bracket and SVD are already memoised (the decider's
                    own work), median of 5 x reps runs; also for the
                    Sylvester Hadamard matrix of order 16 (row h16)

Run from the root of a source checkout (pqnorm is imported from ./src):

    python3 scripts/bench_layers.py [--out BENCH_layers.json] [--reps 5]

BLAS runs on one thread, as in bench/run.py.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import statistics
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pqnorm import MatrixValue, best_norm, check_Einf1, gen_hadamard, save_matrix  # noqa: E402
from pqnorm.cli import main as cli_main  # noqa: E402
from pqnorm.induced_norms import best_norms  # noqa: E402

SHAPES = [(kind, n) for n in (4, 8, 16, 32) for kind in ("real", "complex")]
GRID = [1, 1.5, 2, 3, "inf"]
GRID_ARG = "1,1.5,2,3,inf"
EINF1_PAIRS = [(2, 2), (1.5, 3)]


def _matrix(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    if kind == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    return A


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(argv)


def _einf1_row(M: MatrixValue, reps: int) -> dict:
    row = {}
    for p, q in EINF1_PAIRS:
        check_Einf1(M, p, q)  # memoises the bracket and the SVD
        row[f"check_einf1_{p}_{q}"] = _median_s(lambda: check_Einf1(M, p, q), 5 * reps)
    return row


def measure(kind: str, n: int, reps: int, workdir: str) -> dict:
    A = _matrix(kind, n)
    pairs = [(p, q) for p in GRID for q in GRID]
    path = os.path.join(workdir, f"{kind}{n}.json")
    save_matrix(MatrixValue(A, kind), path)
    sweep = ["sweep", path, "-", "-p", "2", "-q", "2", "--r-grid", GRID_ARG, "--s-grid", GRID_ARG]
    row = {
        "best_norm_1.5_3": _median_s(lambda: best_norm(MatrixValue(A, kind), 1.5, 3), reps),
        "grid_pointwise": _median_s(
            lambda: [best_norm(M, p, q) for M in [MatrixValue(A, kind)] for p, q in pairs], reps
        ),
        "grid_stacked": _median_s(lambda: best_norms(MatrixValue(A, kind), pairs), reps),
        "sweep": _median_s(lambda: _cli(sweep), reps),
        "verify": _median_s(lambda: _cli(["verify", path]), reps),
    }
    row["grid_speedup"] = row["grid_pointwise"] / row["grid_stacked"]
    row.update(_einf1_row(MatrixValue(A, kind), reps))
    return row


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        for kind, n in SHAPES:
            key = f"{kind[0]}{n}"
            results[key] = measure(kind, n, args.reps, workdir)
            cells = "  ".join(f"{k} {v:.4g}" for k, v in results[key].items())
            print(f"{key:4s} {cells}", flush=True)
        results["h16"] = _einf1_row(gen_hadamard(16), args.reps)
        print("h16  " + "  ".join(f"{k} {v:.4g}" for k, v in results["h16"].items()))
    payload = {
        "unit": "s (median of reps), grid_speedup is pointwise / stacked",
        "reps": args.reps,
        "seed": 0,
        "environment": environment(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")


if __name__ == "__main__":
    main()
