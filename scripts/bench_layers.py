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

The sweep and verify cells read a file of their own on every run, written
before timing starts: a command on the file read last, unchanged, would
reuse that matrix and its memo (load_matrix), and time a memo hit.

Two more rows time the complex (inf, 1) bracket and extreme-point search:

  inf1_complex      bracket_norm at (inf, 1) on a fresh complex Gaussian
                    n x n (seed 0) for n = 4, 8, 16, 32: the ascent and
                    the certificate that sets its upper end
  check_einf1_dft   check_Einf1 at (2, 2) on DFT 2, 4 and 8, memoised as
                    check_einf1_P_Q is, median of 5 x reps runs

One row times the real sign enumeration and counts its page faults:

  inf1_real         norm_infty_one_exact on a fresh real Gaussian m x m
                    (seed 0) for m = 13, 16, 18, 20, 24, on the real
                    Sylvester Hadamard matrix of order 16 (h16) and on the
                    identity of order 24 (id24, where all 2^23 sign vectors
                    tie, so none can be skipped): seconds per call, and
                    (key suffix _minflt) the minor page faults per call
                    (ru_minflt), as medians over the reps

One row times the matrix-file writer:

  save_matrix       save_matrix to a file (dumps_matrix plus the write) of
                    a real and a complex Gaussian n x n (seed 0) for n = 32
                    and 128, median of 5 x reps runs

One row times the commands the grid-shared benchmark workload sends to each
of its files, in-process and in its order, on a fresh file per run:

  cli_session       verify, sweep over the grid, check of the four classes
                    and of (1.5, 3) at (2, 2), norm at (inf, 1), and for
                    n <= 8 norm at (1.5, 3) with --budget 10000, for r8,
                    c8, c16 and c32: one run is the whole sequence

One row times the certified upper bound:

  upper_bound       norm_upper_bound at (1.5, 3) on the Gaussian of each
                    shape above, with its SVD already memoised and the
                    bound itself not, median of 5 x reps runs

Three rows time small-matrix points on a fresh Gaussian (seed 0) for r4,
c4, r8 and c8:

  best_norm_inf_2   one-point best_norm at (inf, 2): over the reals one
                    sign enumeration (within SIGN_CAP), over the complex
                    field an ascent whose forward half-step is the
                    peak-free map at exponent 2, W passed on unchanged
  best_norm_2_1     one-point best_norm at (2, 1): over the reals the sign
                    enumeration of ||M^T||_{inf,2}, over the complex field
                    an ascent
  decide_equality   decide_equality(M, 3, 1.5, 1.5, 3), i.e. ||M||_{1.5,3}
                    against the factor times ||M||_{3,1.5}: an equality
                    decision whose two sides are both estimated

One row times the sampling oracle on a fresh Gaussian (seed 0) for r4, c4,
r8 and c8:

  bruteforce        norm_bruteforce(M, 1.5, 3, budget=10000): 10^4 columns
                    of the ascent's start block, their (1.5, 3) ratios and
                    the polish of the ten best

One row times a budget's fresh restart rounds, on a fresh Gaussian (seed 0)
per run whose budget-free estimates are memoised before timing starts:

  budget            best_norm(M, 1.5, 3, budget=10000) for r4, c4, r8 and
                    c8, and (cells r32_grid7, c32_grid7) best_norms over
                    the grid {1, 1.2, 1.5, 2, 3, 4, inf}^2 with budget
                    10000 at order 32, where some points run many rounds

The reps are interleaved: each pass runs every cell once (five times for
the check_einf1 cells) before the next pass starts, so a slow spell of a
shared host spreads over all cells instead of landing on one.  Beside the
medians, `spread` holds each timed cell's quartiles [q1, q3] over the same
runs, so a cell that moves by a third between runs shows as such, and
`cpu` each timed cell's median process CPU time: CPU well below wall
time means the host was busy elsewhere.

Five rows are deterministic figures, not timings:

  ascent_iters      per shape, the iterations of every ascent one
                    best_norms call over the 25-point grid runs, summed
                    over its (p, q) points, with each point's stopping
                    rule (converged, settled, max_iter) counted; the
                    column-iterations (column_iters: block width times
                    iterations, summed over blocks); the points that ran
                    a second round of restarts (round1_points: blocks of an
                    ascent narrower than the call's first one, which only
                    complex points take); and the iteration sum with the
                    settling rule off
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
    python3 scripts/bench_layers.py --cells c32.verify,c32.sweep --out cells.json

--cells ROW.CELL[,ROW.CELL] times only the named cells, with the same
interleaving, and skips the deterministic rows; scripts/ab.py --layers
runs it that way.

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
    norm_bruteforce,
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
INF1_REAL_SIZES = [13, 16, 18, 20, 24]
PEAK_SHAPES = [("real", 16), ("complex", 16), ("real", 32), ("complex", 32)]
SMALL_SHAPES = [("real", 4), ("complex", 4), ("real", 8), ("complex", 8)]
SESSION_SHAPES = [("real", 8), ("complex", 8), ("complex", 16), ("complex", 32)]
SAVE_SHAPES = [(kind, n) for n in (32, 128) for kind in ("real", "complex")]
DECIDE_ARGS = (3, 1.5, 1.5, 3)  # (p, q, r, s): both sides estimated
EINF1_DFT_ORDERS = [2, 4, 8]
BUDGET_GRID = [1, 1.2, 1.5, 2, 3, 4, "inf"]
BUDGET_PAIRS = [(p, q) for p in BUDGET_GRID for q in BUDGET_GRID]


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


def _fresh_files(kind: str, n: int, workdir: str, name: str, count: int):
    """An iterator over count paths, each holding the shape's matrix in a
    file of its own, all written now."""
    M = MatrixValue(_matrix(kind, n), kind)
    paths = [os.path.join(workdir, f"{name}_{kind}{n}_{i}.json") for i in range(count)]
    for path in paths:
        save_matrix(M, path)
    return iter(paths)


def _sweep_argv(path: str) -> list:
    return ["sweep", path, "-", "-p", "2", "-q", "2", "--r-grid", GRID_ARG, "--s-grid", GRID_ARG]


def shape_cells(kind: str, n: int, workdir: str, reps: int) -> dict:
    """The timed cells of one shape: name -> (callable, runs per pass)."""
    A = _matrix(kind, n)
    pairs = [(p, q) for p in GRID for q in GRID]
    sweeps = _fresh_files(kind, n, workdir, "sweep", reps)
    verifies = _fresh_files(kind, n, workdir, "verify", reps)
    cells = {
        "best_norm_1.5_3": (lambda: best_norm(MatrixValue(A, kind), 1.5, 3), 1),
        "grid_pointwise": (
            lambda: [best_norm(M, p, q) for M in [MatrixValue(A, kind)] for p, q in pairs],
            1,
        ),
        "grid_stacked": (lambda: best_norms(MatrixValue(A, kind), pairs), 1),
        "sweep": (lambda: _cli(_sweep_argv(next(sweeps))), 1),
        "verify": (lambda: _cli(["verify", next(verifies)]), 1),
    }
    cells.update(_einf1_cells(MatrixValue(A, kind)))
    return cells


def _session_cell(kind: str, n: int, workdir: str, reps: int) -> tuple:
    files = _fresh_files(kind, n, workdir, "session", reps)

    def session():
        path = next(files)
        argvs = [["verify", path], _sweep_argv(path)]
        for cls in ("E_1inf", "E_11", "E_infinf", "E_inf1"):
            argvs.append(["check", path, cls, "-p", "2", "-q", "2"])
        argvs.append(["check", path, "1.5,3", "-p", "2", "-q", "2", "--json"])
        argvs.append(["norm", path, "-p", "inf", "-q", "1"])
        if n <= 8:
            argvs.append(["norm", path, "-p", "1.5", "-q", "3", "--budget", "10000"])
        for argv in argvs:
            _cli(argv)

    return (session, 1)


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


def _point_cell(kind: str, n: int, p, q) -> tuple:
    A = _matrix(kind, n)
    return (lambda: best_norm(MatrixValue(A, kind), p, q), 1)


def _decide_cell(kind: str, n: int) -> tuple:
    A = _matrix(kind, n)
    return (lambda: decide_equality(MatrixValue(A, kind), *DECIDE_ARGS), 1)


def _bruteforce_cell(kind: str, n: int) -> tuple:
    A = _matrix(kind, n)
    return (lambda: norm_bruteforce(MatrixValue(A, kind), 1.5, 3, budget=10_000), 1)


def _budget_cell(kind: str, n: int, pairs: list, reps: int) -> tuple:
    """best_norms(M, pairs, budget=10000), one fresh matrix per run, its
    budget-free estimates memoised now."""
    A = _matrix(kind, n)
    matrices = [MatrixValue(A, kind) for _ in range(reps)]
    for M in matrices:
        best_norms(M, pairs)
    fresh = iter(matrices)
    return (lambda: best_norms(next(fresh), pairs, budget=10_000), 1)


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


def interleaved_medians(rows: dict, reps: int, faults=()) -> tuple:
    """({row: {cell: median seconds}}, {row: {cell: [q1, q3] seconds}},
    {row: {cell: median CPU seconds}}) over reps passes, each pass running
    every cell of every row (a cell `runs` times in a row); the rows named in
    faults also get {cell_minflt: median minor page faults per run} among the
    medians."""
    times = {row: {cell: [] for cell in cells} for row, cells in rows.items()}
    cpus = {row: {cell: [] for cell in cells} for row, cells in rows.items()}
    flts = {row: {cell: [] for cell in rows[row]} for row in faults if row in rows}
    for _ in range(reps):
        for row, cells in rows.items():
            for cell, (fn, runs) in cells.items():
                for _ in range(runs):
                    f0, c0, t0 = _minflt(), time.process_time(), time.perf_counter()
                    fn()
                    times[row][cell].append(time.perf_counter() - t0)
                    cpus[row][cell].append(time.process_time() - c0)
                    if row in flts:
                        flts[row][cell].append(_minflt() - f0)
    out = {row: {cell: statistics.median(ts) for cell, ts in cells.items()} for row, cells in times.items()}
    spread = {
        row: {cell: np.percentile(ts, [25, 75]).tolist() for cell, ts in cells.items()}
        for row, cells in times.items()
    }
    cpu = {row: {cell: statistics.median(ts) for cell, ts in cells.items()} for row, cells in cpus.items()}
    for row, cells in flts.items():
        out[row].update({f"{cell}_minflt": statistics.median(fs) for cell, fs in cells.items()})
    return out, spread, cpu


def ascent_iterations(kind: str, n: int) -> dict:
    """Iterations of the ascents of one best_norms call over the grid,
    summed over its points, with and without the settling rule; the
    column-iterations, and the points that ran a second round (blocks
    narrower than the first call's)."""
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
            widths = [run.X.shape[1] // len(run.best) for run in runs]
            row["column_iters"] = sum(k * sum(run.iters) for k, run in zip(widths, runs))
            row["round1_points"] = sum(len(run.best) for k, run in zip(widths, runs) if k < widths[0])
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
    ap.add_argument("--cells", help="ROW.CELL[,ROW.CELL]: time only these cells, and no deterministic row")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        rows = {f"{kind[0]}{n}": shape_cells(kind, n, workdir, args.reps) for kind, n in SHAPES}
        rows["h16"] = _einf1_cells(gen_hadamard(16))
        rows["inf1_complex"] = {
            f"c{n}": (lambda n=n: bracket_norm(MatrixValue(_matrix("complex", n), "complex"), "inf", 1), 1)
            for n in INF1_COMPLEX_SIZES
        }
        rows["inf1_real"] = {
            f"m{m}": (lambda m=m: norm_infty_one_exact(MatrixValue(_matrix("real", m), "real")), 1)
            for m in INF1_REAL_SIZES
        }
        rows["inf1_real"]["h16"] = (lambda: norm_infty_one_exact(gen_hadamard(16)), 1)
        rows["inf1_real"]["id24"] = (lambda: norm_infty_one_exact(MatrixValue(np.eye(24), "real")), 1)
        rows["save_matrix"] = {f"{kind[0]}{n}": _save_cell(kind, n, workdir) for kind, n in SAVE_SHAPES}
        rows["cli_session"] = {
            f"{kind[0]}{n}": _session_cell(kind, n, workdir, args.reps) for kind, n in SESSION_SHAPES
        }
        rows["upper_bound"] = {f"{kind[0]}{n}": _upper_bound_cell(kind, n) for kind, n in SHAPES}
        for p, q in (("inf", 2), (2, 1)):
            rows[f"best_norm_{p}_{q}"] = {
                f"{kind[0]}{n}": _point_cell(kind, n, p, q) for kind, n in SMALL_SHAPES
            }
        rows["decide_equality"] = {f"{kind[0]}{n}": _decide_cell(kind, n) for kind, n in SMALL_SHAPES}
        rows["bruteforce"] = {f"{kind[0]}{n}": _bruteforce_cell(kind, n) for kind, n in SMALL_SHAPES}
        rows["budget"] = {f"{kind[0]}{n}": _budget_cell(kind, n, [(1.5, 3)], args.reps) for kind, n in SMALL_SHAPES}
        for kind in ("real", "complex"):
            rows["budget"][f"{kind[0]}32_grid7"] = _budget_cell(kind, 32, BUDGET_PAIRS, args.reps)
        rows["check_einf1_dft"] = {}
        for k in EINF1_DFT_ORDERS:
            M = gen_dft(k)
            check_Einf1(M, 2, 2)  # memoises the bracket and the SVD
            rows["check_einf1_dft"][f"dft{k}"] = (lambda M=M: check_Einf1(M, 2, 2), 5)
        if args.cells:
            rows = only_cells(rows, args.cells, ap)
        results, spread, cpu = interleaved_medians(rows, args.reps, faults=("inf1_real",))
        if args.cells:
            for key, row in results.items():
                _print_row(key, row)
            write(args, results, spread, cpu)
            return
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
    write(args, results, spread, cpu)


def only_cells(rows: dict, names: str, ap: argparse.ArgumentParser) -> dict:
    """The cells named ROW.CELL in the comma-separated names, by row."""
    out = {}
    for name in names.split(","):
        row, _, cell = name.partition(".")
        if cell not in rows.get(row, {}):
            ap.error(f"no timed cell {name!r}")
        out.setdefault(row, {})[cell] = rows[row][cell]
    return out


def write(args: argparse.Namespace, results: dict, spread: dict, cpu: dict) -> None:
    payload = {
        "unit": (
            "s (median of reps), grid_speedup is pointwise / stacked; *_minflt, ascent_iters, "
            "verify_calls, ascent_calls, map_rescales are counts; grid_peak_mb is MB; "
            "spread is each timed cell's [q1, q3] in s; cpu is each timed cell's median CPU s"
        ),
        "reps": args.reps,
        "seed": 0,
        "environment": environment(),
        "results": results,
        "spread": spread,
        "cpu": cpu,
    }
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")


if __name__ == "__main__":
    main()
