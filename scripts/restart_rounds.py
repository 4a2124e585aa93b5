#!/usr/bin/env python3
"""Value study of the complex field's two restart rounds.

Over the complex field, best_norms runs each estimated point's start block
in two rounds: about half the starts first, the rest only for points whose
first round did not end with enough restarts at its best.  This script
compares that with one round of the whole block, the ascent as it ran
before the rounds: the same stacked ascents (induced_norms._stacked) over
the whole unit start block of every estimated point.

Shapes: complex Gaussians of order 4, 8, 16 and 32 (four matrices each)
and 64 (one), complex DFT matrices of order 4 to 32, and Sylvester Hadamard
matrices of order 8 to 32 marked complex, on the grid {1, 1.2, 1.5, 2, 3,
4, inf}^2 at seed 0.  Matrix i of Gaussian order n is drawn by
default_rng([3607, n, i]), a seed sequence the benchmark's workloads do not
use.  Per shape it prints the estimated points, the share of them that ran
a second round, the ratio of column-iterations (block width times
iterations, summed over the ascents' blocks) of the two rounds to one
round, and the counts of points whose two-round value lies below the
one-round value by more than 1e-9 and 1e-6 relative, with the worst drop;
then every drop above 1e-9.  Exit status 1 when a drop exceeds 1e-6, or
when a shape's two rounds cost more column-iterations than one round.

    python3 scripts/restart_rounds.py [--tiny]

--tiny runs one Gaussian of order 4, DFT 4 and Hadamard 8 only.  BLAS runs
on one thread.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pqnorm import MatrixValue, as_index, best_norms, gen_dft, gen_hadamard  # noqa: E402
from pqnorm import induced_norms  # noqa: E402

SEED = 3607
GRID = [1, 1.2, 1.5, 2, 3, 4, "inf"]
PAIRS = [(p, q) for p in GRID for q in GRID]
DROP_BARS = (1e-9, 1e-6)


def shapes(tiny: bool) -> list:
    """(label, [complex MatrixValue, ...]) per shape."""
    def gaussians(n, count):
        out = []
        for i in range(count):
            rng = np.random.default_rng([SEED, n, i])
            out.append(MatrixValue(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), "complex"))
        return out

    def hadamard(k):
        return MatrixValue(gen_hadamard(k).entries, "complex")

    if tiny:
        return [("c4", gaussians(4, 1)), ("dft4", [gen_dft(4)]), ("h8", [hadamard(8)])]
    return (
        [(f"c{n}", gaussians(n, 4)) for n in (4, 8, 16, 32)]
        + [("c64", gaussians(64, 1))]
        + [(f"dft{k}", [gen_dft(k)]) for k in (4, 8, 16, 32)]
        + [(f"h{k}", [hadamard(k)]) for k in (8, 16, 32)]
    )


def recorded(fn):
    """fn() with every ascent it runs recorded: (fn's result, [_Ascent, ...])."""
    ascent, runs = induced_norms._ascent, []

    def recording(*args, **kwargs):
        runs.append(ascent(*args, **kwargs))
        return runs[-1]

    induced_norms._ascent = recording
    try:
        return fn(), runs
    finally:
        induced_norms._ascent = ascent


def column_iters(runs: list) -> tuple:
    """(column-iterations, blocks narrower than the first ascent's) of runs."""
    widths = [run.X.shape[1] // len(run.best) for run in runs]
    total = sum(k * sum(run.iters) for k, run in zip(widths, runs))
    return total, sum(len(run.best) for k, run in zip(widths, runs) if k < widths[0])


def study(M: MatrixValue) -> tuple:
    """(estimated pairs, [(two-round value, one-round value)], round-1
    points, two-round and one-round column-iterations) on one matrix."""
    results, runs = recorded(lambda: best_norms(MatrixValue(M.entries, "complex"), PAIRS))
    todo = [(pair, res.value) for pair, res in zip(PAIRS, results) if not res.certainty.is_exact]
    two, round1 = column_iters(runs)
    pairs = [(as_index(p), as_index(q)) for (p, q), _ in todo]
    starts = functools.partial(induced_norms._unit_start_block, M.m, M.field, induced_norms.RESTARTS + M.m, 0)
    whole, runs = recorded(lambda: induced_norms._stacked(M, pairs, starts))
    one, _ = column_iters(runs)
    return [pair for pair, _ in todo], [(v, w[0]) for (_, v), w in zip(todo, whole)], round1, two, one


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true", help="one small matrix of each kind")
    args = ap.parse_args(argv)
    print(f"{'shape':6s} {'points':>6s} {'round1':>7s} {'col-iter':>8s} {'>1e-9':>6s} {'>1e-6':>6s} {'worst drop':>10s}")
    drops, failed = [], False
    for label, matrices in shapes(args.tiny):
        points = round1 = two = one = 0
        worst, over = 0.0, [0] * len(DROP_BARS)
        for i, M in enumerate(matrices):
            pairs, values, r1, c2, c1 = study(M)
            points, round1, two, one = points + len(pairs), round1 + r1, two + c2, one + c1
            for (p, q), (got, want) in zip(pairs, values):
                drop = (want - got) / want if want > 0 else 0.0
                worst = max(worst, drop)
                over = [c + (drop > bar) for c, bar in zip(over, DROP_BARS)]
                if drop > DROP_BARS[0]:
                    drops.append(f"{label} #{i} ({p}, {q}): {drop:.2e}")
        failed |= over[-1] > 0 or two > one
        print(f"{label:6s} {points:6d} {round1 / points:7.3f} {two / one:8.3f} {over[0]:6d} {over[1]:6d} {worst:10.2e}",
              flush=True)
    print("drops above 1e-9:" + "".join(f"\n  {d}" for d in drops) if drops else "drops above 1e-9: none")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
