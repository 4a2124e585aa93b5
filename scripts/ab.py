#!/usr/bin/env python3
"""A/B pairs of bench/run.py or of per-layer cells: this checkout against a
parent source tree.

    python3 scripts/ab.py --against PARENT_ROOT --pairs 10 --seed 41 \\
        -- --workload stream-small --seconds 20
    python3 scripts/ab.py --against PARENT_ROOT --pairs 10 \\
        --layers c32.verify,c32.sweep [--reps 5]

Everything after `--` goes to bench/run.py, which must not get --seed.
Pair i runs the benchmark with seed SEED + i twice: once in this checkout
and once in a temporary root that holds a copy of this checkout's bench/
and scripts/ and of PARENT_ROOT's src/, so both sides run the same
benchmark code on their own program.  The side that runs first alternates
from pair to pair.  Compiled bytecode of both sides goes to one temporary
cache (PYTHONPYCACHEPREFIX), so neither side writes under bench/ or reads a
stale cache the other does not.

With --layers ROW.CELL[,ROW.CELL], a pair instead runs
scripts/bench_layers.py --cells on each side (same seed-0 matrices, --reps
interleaved passes, its output in a temporary file), and the report gives,
per cell, each side's median and quartiles of the per-run medians (wall
seconds), how many pairs the change wins (lower is better) and ties,
whether the gain is resolved, and each side's median CPU time beside its
median wall time.

The script only reads each run's last output line, the JSON object with
the end-to-end metrics; it changes no metric, bound or oracle.  For every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles over the pairs, how many pairs the change wins and ties, whether
a gain is resolved (better in at least 9 of every 10 pairs, and medians
further apart than the parent's quartiles), and whether the change's
median is worse than the parent's by more than the metric's bound
(relative).  Below that it prints each side's wall and CPU time per run
(CPU of the child and its own children): CPU well below wall means the
host was busy elsewhere.  Exit status: 0, or 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def end_to_end() -> list:
    """BENCHMARK.json's end-to-end metrics: [{name, unit, better, bound}]."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)["end_to_end"]


def parent_root(src_root: str, workdir: str) -> str:
    """A root under workdir with this checkout's bench/ and scripts/ and
    src_root's src/."""
    root = os.path.join(workdir, "parent")
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("bench", "scripts"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(root, name), ignore=skip)
    shutil.copytree(os.path.join(src_root, "src"), os.path.join(root, "src"), ignore=skip)
    return root


def run_once(root: str, bench_args: list, seed: int, env: dict) -> dict:
    """One benchmark run in root: its metrics, wall and CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *bench_args, "--seed", str(seed)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {root} exited {done.returncode}: {done.stderr[-2000:]}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return {"metrics": metrics, "wall_s": wall, "cpu_s": cpu}


def run_layers(root: str, cells: str, reps: int, env: dict, out: str) -> dict:
    """One scripts/bench_layers.py run of the cells in root: {"metrics":
    {cell: wall seconds}, "cpu": {cell: CPU seconds}}, medians over its reps."""
    done = subprocess.run(
        [sys.executable, os.path.join("scripts", "bench_layers.py"), "--cells", cells,
         "--reps", str(reps), "--out", out],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"bench_layers.py in {root} exited {done.returncode}: {done.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fp:
        payload = json.load(fp)

    def by_cell(table: dict) -> dict:
        return {f"{row}.{cell}": value for row, cells in table.items() for cell, value in cells.items()}

    return {"metrics": by_cell(payload["results"]), "cpu": by_cell(payload["cpu"])}


def quartiles(values: list) -> tuple:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def judge(metric: dict, parent: list, change: list) -> dict:
    """The A/B reading of one metric over paired runs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    wins, ties = sum(d > 0 for d in diffs), sum(d == 0 for d in diffs)
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    gain = sign * (cmed - pmed)
    worse = -gain / abs(pmed) if pmed else (0.0 if gain >= 0 else float("inf"))
    return {
        "parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3), "wins": wins, "ties": ties,
        "resolved": 10 * wins >= 9 * len(diffs) and gain > pq3 - pq1,
        "worse_than_bound": worse > metric["bound"], "relative": (cmed - pmed) / abs(pmed) if pmed else 0.0,
    }


def report(metrics: list, runs: list) -> None:
    n = len(runs)
    print(f"{'metric':20s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'change':>8s} {'wins':>5s} {'ties':>4s}  resolved gain  worse than bound")
    for metric in metrics:
        name = metric["name"]
        got = judge(metric, [r["parent"]["metrics"][name] for r in runs],
                    [r["change"]["metrics"][name] for r in runs])
        cells = [f"{m:.6g} [{a:.6g}, {b:.6g}]" for m, a, b in (got["parent"], got["change"])]
        print(f"{name:20s} {cells[0]:>34s} {cells[1]:>34s} {100 * got['relative']:+7.2f}% "
              f"{got['wins']:>2d}/{n:<2d} {got['ties']:>4d}  {'yes' if got['resolved'] else 'no':13s}  "
              f"{'YES (bound ' + str(metric['bound']) + ')' if got['worse_than_bound'] else 'no'}")
    for side in SIDES:
        wall = statistics.median(r[side]["wall_s"] for r in runs)
        cpu = statistics.median(r[side]["cpu_s"] for r in runs)
        print(f"{side:6s} per run: wall {wall:.2f} s, cpu {cpu:.2f} s (medians over {n} runs)")


def report_layers(cells: list, runs: list) -> None:
    n = len(runs)
    lower = {"better": "lower", "bound": math.inf}
    print(f"{'cell':24s} {'parent median [q1, q3] s':>36s} {'change median [q1, q3] s':>36s} "
          f"{'change':>8s} {'wins':>5s} {'ties':>4s}  resolved gain  cpu parent -> change s")
    for cell in cells:
        got = judge(lower, *([r[side]["metrics"][cell] for r in runs] for side in SIDES))
        cpus = {side: statistics.median(r[side]["cpu"][cell] for r in runs) for side in SIDES}
        text = [f"{m:.4g} [{a:.4g}, {b:.4g}]" for m, a, b in (got["parent"], got["change"])]
        print(f"{cell:24s} {text[0]:>36s} {text[1]:>36s} {100 * got['relative']:+7.2f}% "
              f"{got['wins']:>2d}/{n:<2d} {got['ties']:>4d}  {'yes' if got['resolved'] else 'no':13s}  "
              f"{cpus['parent']:.4g} -> {cpus['change']:.4g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="root of the parent source tree (holds src/)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, help="seed of the first pair; pair i takes SEED + i")
    ap.add_argument("--layers", metavar="ROW.CELL[,ROW.CELL]", help="A/B these bench_layers.py cells")
    ap.add_argument("--reps", type=int, default=5, help="bench_layers.py passes per run (with --layers)")
    ap.add_argument("bench_args", nargs=argparse.REMAINDER, help="-- then bench/run.py's arguments")
    args = ap.parse_args(argv)
    bench_args = args.bench_args[1:] if args.bench_args[:1] == ["--"] else args.bench_args
    if args.pairs < 1:
        ap.error("give --pairs >= 1")
    if args.layers is None and (args.seed is None or "--seed" in bench_args):
        ap.error("the pairs set the seeds; give --seed, and no --seed after --")
    if args.layers is not None and (args.seed is not None or bench_args or args.reps < 1):
        ap.error("--layers takes --reps >= 1, and neither --seed nor bench/run.py arguments")
    metrics = end_to_end()
    names = [m["name"] for m in metrics] if args.layers is None else args.layers.split(",")
    with tempfile.TemporaryDirectory(prefix="pqnorm-ab-") as workdir:
        roots = {"parent": parent_root(os.path.abspath(args.against), workdir), "change": ROOT}
        env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"))
        out = os.path.join(workdir, "layers.json")
        runs = []
        try:
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    if args.layers is None:
                        pair[side] = run_once(roots[side], bench_args, args.seed + i, env)
                    else:
                        pair[side] = run_layers(roots[side], args.layers, args.reps, env, out)
                runs.append(pair)
                head = "" if args.layers else f"seed {args.seed + i}, "
                print(f"pair {i + 1}/{args.pairs} {head}{order[0]} first: " + "  ".join(
                    f"{name} {pair['parent']['metrics'][name]:.5g} -> "
                    f"{pair['change']['metrics'][name]:.5g}" for name in names), flush=True)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    if args.layers is None:
        report(metrics, runs)
    else:
        report_layers(names, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
