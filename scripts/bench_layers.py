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

Two more rows time the complex (inf, 1) bracket and extreme-point search:

  inf1_complex      bracket_norm at (inf, 1) on a fresh complex Gaussian
                    n x n (seed 0) for n = 4, 8, 16, 32: the ascent and
                    the certificate that sets its upper end
  check_einf1_dft   check_Einf1 at (2, 2) on DFT 2, 4 and 8, memoised as
                    check_einf1_P_Q is, median of 5 x reps runs

One row times the real sign enumeration and counts its page faults:

  inf1_real         norm_infty_one_exact on a fresh real Gaussian m x m
                    (seed 0) for m = 13, 16, 18, 20: seconds per call, and
                    (key suffix _minflt) the minor page faults per call
                    (ru_minflt), as medians over the reps

One row times the matrix-file writer:

  save_matrix       save_matrix to a file (dumps_matrix plus the write) of
                    a real and a complex Gaussian n x n (seed 0) for n = 32
                    and 128, median of 5 x reps runs

One row times the certified upper bound:

  upper_bound       norm_upper_bound at (1.5, 3) on the Gaussian of each
                    shape above, with its SVD already memoised and the
                    bound itself not, median of 5 x reps runs

Two rows time small-matrix ascents on a fresh Gaussian (seed 0) for r4,
c4, r8 and c8:

  best_norm_inf_2   one-point best_norm at (inf, 2), whose forward
                    half-step is the ascent's peak-free map at exponent
                    2, W passed on unchanged
  decide_equality   decide_equality(M, 3, 1.5, 1.5, 3), i.e. ||M||_{1.5,3}
                    against the factor times ||M||_{3,1.5}: an equality
                    decision whose two sides are both estimated

The reps are interleaved: each pass runs every cell once (five times for
the check_einf1 cells) before the next pass starts, so a slow spell of a
shared host spreads over all cells instead of landing on one.

Five rows are deterministic figures, not timings:

  ascent_iters      per shape, the iterations of every ascent one
                    best_norms call over the 25-point grid runs, summed
                    over its (p, q) points, with each point's stopping
                    rule (converged, settled, max_iter) counted; and the
                    same sum with the settling rule off
  grid_peak_mb      per shape r16, c16, r32, c32, the tracemalloc peak (MB)
                    of one best_norms call over the 25-point grid on a
                    fresh matrix: what the stacked ascent's element cap
                    costs in memory, free of allocator and host noise
  verify_calls      per shape, the best_norms calls (cProfile's call
                    count) of one in-process `pqnorm verify FILE`
  ascent_calls      per decide_equality shape, the ascents one
                    decide_equality call of that row runs
  map_rescales      the peak-scaled passes the ascent's peak-free map
                    takes (calls of induced_norms._by_peaks): per shape
                    in one best_norms call over the 25-point grid, and
                    (key h8c_3_1.5) in one best_norm of the Sylvester
                    Hadamard matrix of order 8 over the complex field
                    at (3, 1.5)

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
import cProfile
import functools
import io
import json
import platform
import pstats
import resource
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pqnorm import (  # noqa: E402
    MatrixValue,
    as_index,
    best_norm,
    bracket_norm,
    check_Einf1,
    decide_equality,
    gen_dft,
    gen_hadamard,
    norm_infty_one_exact,
    norm_upper_bound,
    save_matrix,
    svd,
)
from pqnorm.cli import main as cli_main  # noqa: E402
from pqnorm import induced_norms  # noqa: E402
from pqnorm.induced_norms import best_norms  # noqa: E402

SHAPES = [(kind, n) for n in (4, 8, 16, 32) for kind in ("real", "complex")]
GRID = [1, 1.5, 2, 3, "inf"]
GRID_ARG = "1,1.5,2,3,inf"
EINF1_PAIRS = [(2, 2), (1.5, 3)]
INF1_COMPLEX_SIZES = [4, 8, 16, 32]
INF1_REAL_SIZES = [13, 16, 18, 20]
PEAK_SHAPES = [("real", 16), ("complex", 16), ("real", 32), ("complex", 32)]
SMALL_SHAPES = [("real", 4), ("complex", 4), ("real", 8), ("complex", 8)]
SAVE_SHAPES = [(kind, n) for n in (32, 128) for kind in ("real", "complex")]
DECIDE_ARGS = (3, 1.5, 1.5, 3)  # (p, q, r, s): both sides estimated
EINF1_DFT_ORDERS = [2, 4, 8]


def _matrix(kind: str, n: int, m: int = 0) -> np.ndarray:
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, m or n))
    if kind == "complex":
        A = A + 1j * rng.standard_normal((n, m or n))
    return A


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(argv)


def _einf1_cells(M: MatrixValue) -> dict:
    cells = {}
    for p, q in EINF1_PAIRS:
        check_Einf1(M, p, q)  # memoises the bracket and the SVD
        cells[f"check_einf1_{p}_{q}"] = (lambda p=p, q=q: check_Einf1(M, p, q), 5)
    return cells


def shape_cells(kind: str, n: int, workdir: str) -> dict:
    """The timed cells of one shape: name -> (callable, runs per pass)."""
    A = _matrix(kind, n)
    pairs = [(p, q) for p in GRID for q in GRID]
    path = os.path.join(workdir, f"{kind}{n}.json")
    save_matrix(MatrixValue(A, kind), path)
    sweep = ["sweep", path, "-", "-p", "2", "-q", "2", "--r-grid", GRID_ARG, "--s-grid", GRID_ARG]
    cells = {
        "best_norm_1.5_3": (lambda: best_norm(MatrixValue(A, kind), 1.5, 3), 1),
        "grid_pointwise": (
            lambda: [best_norm(M, p, q) for M in [MatrixValue(A, kind)] for p, q in pairs],
            1,
        ),
        "grid_stacked": (lambda: best_norms(MatrixValue(A, kind), pairs), 1),
        "sweep": (lambda: _cli(sweep), 1),
        "verify": (lambda: _cli(["verify", path]), 1),
    }
    cells.update(_einf1_cells(MatrixValue(A, kind)))
    return cells


def _upper_bound_cell(kind: str, n: int) -> tuple:
    M = MatrixValue(_matrix(kind, n), kind)
    svd(M)  # memoised: the cell times the anchors and the comparison factors

    def bound():
        M._memo.pop(("upper_bound", as_index(1.5), as_index(3)), None)  # the bound's own memo
        return norm_upper_bound(M, 1.5, 3)

    return (bound, 5)


def _save_cell(kind: str, n: int, workdir: str) -> tuple:
    M = MatrixValue(_matrix(kind, n), kind)
    path = os.path.join(workdir, f"save_{kind}{n}.json")
    return (lambda: save_matrix(M, path), 5)


def _inf2_cell(kind: str, n: int) -> tuple:
    A = _matrix(kind, n)
    return (lambda: best_norm(MatrixValue(A, kind), "inf", 2), 1)


def _decide_cell(kind: str, n: int) -> tuple:
    A = _matrix(kind, n)
    return (lambda: decide_equality(MatrixValue(A, kind), *DECIDE_ARGS), 1)


def ascent_calls(kind: str, n: int) -> int:
    """Ascents run by one decide_equality call of the decide_equality row."""
    ascent, calls = induced_norms._ascent, []

    def counting(*args, **kwargs):
        calls.append(1)
        return ascent(*args, **kwargs)

    induced_norms._ascent = counting
    try:
        decide_equality(MatrixValue(_matrix(kind, n), kind), *DECIDE_ARGS)
    finally:
        induced_norms._ascent = ascent
    return len(calls)


def verify_calls(kind: str, n: int, workdir: str) -> int:
    """best_norms calls of one in-process verify of the shape's matrix."""
    path = os.path.join(workdir, f"calls_{kind}{n}.json")
    save_matrix(MatrixValue(_matrix(kind, n), kind), path)
    prof = cProfile.Profile()
    prof.runcall(_cli, ["verify", path])
    return sum(
        calls
        for (file, _, name), (_, calls, *_) in pstats.Stats(prof).stats.items()
        if name == "best_norms" and file.endswith("induced_norms.py")
    )


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def interleaved_medians(rows: dict, reps: int, faults=()) -> dict:
    """{row: {cell: median seconds}} over reps passes, each pass running
    every cell of every row (a cell `runs` times in a row); the rows named
    in faults also get {cell_minflt: median minor page faults per run}."""
    times = {row: {cell: [] for cell in cells} for row, cells in rows.items()}
    flts = {row: {cell: [] for cell in rows[row]} for row in faults}
    for _ in range(reps):
        for row, cells in rows.items():
            for cell, (fn, runs) in cells.items():
                for _ in range(runs):
                    f0, t0 = _minflt(), time.perf_counter()
                    fn()
                    times[row][cell].append(time.perf_counter() - t0)
                    if row in flts:
                        flts[row][cell].append(_minflt() - f0)
    out = {row: {cell: statistics.median(ts) for cell, ts in cells.items()} for row, cells in times.items()}
    for row, cells in flts.items():
        out[row].update({f"{cell}_minflt": statistics.median(fs) for cell, fs in cells.items()})
    return out


def ascent_iterations(kind: str, n: int) -> dict:
    """Iterations of the ascents of one best_norms call over the grid,
    summed over its points, with and without the settling rule."""
    pairs = [(p, q) for p in GRID for q in GRID]
    ascent, runs = induced_norms._ascent, []

    def recording(*args, **kwargs):
        runs.append(ascent(*args, **kwargs))
        return runs[-1]

    row = {}
    for label, settle in (("", True), ("_rule_off", False)):
        runs.clear()
        induced_norms._ascent = functools.partial(recording, settle=settle)
        try:
            best_norms(MatrixValue(_matrix(kind, n), kind), pairs)
        finally:
            induced_norms._ascent = ascent
        row["iterations" + label] = sum(sum(run.iters) for run in runs)
        if settle:
            stops = [why for run in runs for why in run.stop]
            row.update({why: stops.count(why) for why in ("converged", "settled", "max_iter")})
    return row


def map_rescales() -> dict:
    """Peak-scaled passes of the peak-free map: per shape in one best_norms
    call over the grid, and in one best_norm of complex Hadamard 8 at (3, 1.5)."""
    pairs = [(p, q) for p in GRID for q in GRID]
    by_peaks, calls = induced_norms._by_peaks, []

    def counting(W):
        calls.append(1)
        return by_peaks(W)

    runs = {
        f"{kind[0]}{n}": functools.partial(best_norms, MatrixValue(_matrix(kind, n), kind), pairs)
        for kind, n in SHAPES
    }
    runs["h8c_3_1.5"] = functools.partial(best_norm, MatrixValue(gen_hadamard(8).entries, "complex"), 3, 1.5)
    row = {}
    induced_norms._by_peaks = counting
    try:
        for key, run in runs.items():
            calls.clear()
            run()
            row[key] = len(calls)
    finally:
        induced_norms._by_peaks = by_peaks
    return row


def grid_peak_mb(kind: str, n: int) -> float:
    """tracemalloc peak (MB) of one best_norms call over the grid."""
    pairs = [(p, q) for p in GRID for q in GRID]
    M = MatrixValue(_matrix(kind, n), kind)
    tracemalloc.start()
    try:
        best_norms(M, pairs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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


def _print_row(key: str, row: dict) -> None:
    print(f"{key:4s} " + "  ".join(f"{k} {v:.4g}" for k, v in row.items()), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        rows = {f"{kind[0]}{n}": shape_cells(kind, n, workdir) for kind, n in SHAPES}
        rows["h16"] = _einf1_cells(gen_hadamard(16))
        rows["inf1_complex"] = {
            f"c{n}": (lambda n=n: bracket_norm(MatrixValue(_matrix("complex", n), "complex"), "inf", 1), 1)
            for n in INF1_COMPLEX_SIZES
        }
        rows["inf1_real"] = {
            f"m{m}": (lambda m=m: norm_infty_one_exact(MatrixValue(_matrix("real", m), "real")), 1)
            for m in INF1_REAL_SIZES
        }
        rows["save_matrix"] = {f"{kind[0]}{n}": _save_cell(kind, n, workdir) for kind, n in SAVE_SHAPES}
        rows["upper_bound"] = {f"{kind[0]}{n}": _upper_bound_cell(kind, n) for kind, n in SHAPES}
        rows["best_norm_inf_2"] = {f"{kind[0]}{n}": _inf2_cell(kind, n) for kind, n in SMALL_SHAPES}
        rows["decide_equality"] = {f"{kind[0]}{n}": _decide_cell(kind, n) for kind, n in SMALL_SHAPES}
        rows["check_einf1_dft"] = {}
        for k in EINF1_DFT_ORDERS:
            M = gen_dft(k)
            check_Einf1(M, 2, 2)  # memoises the bracket and the SVD
            rows["check_einf1_dft"][f"dft{k}"] = (lambda M=M: check_Einf1(M, 2, 2), 5)
        results = interleaved_medians(rows, args.reps, faults=("inf1_real",))
        results["verify_calls"] = {
            f"{kind[0]}{n}": verify_calls(kind, n, workdir) for kind, n in SHAPES
        }
        results["ascent_calls"] = {f"{kind[0]}{n}": ascent_calls(kind, n) for kind, n in SMALL_SHAPES}
        results["map_rescales"] = map_rescales()
    for kind, n in SHAPES:
        row = results[f"{kind[0]}{n}"]
        row["grid_speedup"] = row["grid_pointwise"] / row["grid_stacked"]
    for key, row in results.items():
        _print_row(key, row)
    results["ascent_iters"] = {f"{kind[0]}{n}": ascent_iterations(kind, n) for kind, n in SHAPES}
    for key, row in results["ascent_iters"].items():
        _print_row(key, row)
    results["grid_peak_mb"] = {f"{kind[0]}{n}": grid_peak_mb(kind, n) for kind, n in PEAK_SHAPES}
    _print_row("grid_peak_mb", results["grid_peak_mb"])
    payload = {
        "unit": (
            "s (median of reps), grid_speedup is pointwise / stacked; *_minflt, ascent_iters, "
            "verify_calls, ascent_calls, map_rescales are counts; grid_peak_mb is MB"
        ),
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
