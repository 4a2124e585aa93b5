#!/usr/bin/env python3
"""Value study of the ascent's settling window.

A block of ascent restarts stops once its best rose by at most
SETTLE_RTOL (relative) over the last SETTLE_WINDOW iterations.  This script
runs best_norms on every shape below with the library's window and with
windows of 10 (the reference: the window before it was lowered) and 4 (a
window that stops a real 32 x 32 point 8e-4 low), all else equal, and
compares each window's values and cost with the reference's.

Shapes: real and complex Gaussians of order 4, 8, 16 and 32 (four matrices
each), rectangular real and complex Gaussians 3x6, 6x3, 5x9, 12x8 and 16x24
(two each), complex DFT matrices of order 4 to 16, and Sylvester Hadamard
matrices of order 8 to 32 in both fields, on the grid {1, 1.2, 1.5, 2, 3,
4, inf}^2 at seed 0.  Gaussian i of shape n x m is drawn by
default_rng([4049, n, m, i, c]) with c = 1 over the complex field, a seed
sequence the benchmark's workloads do not use.  Per shape and window it
prints the estimated points, the counts of points whose value lies below
the reference's by more than 1e-9 and 1e-6 relative, the worst drop, and
the ratio of column-iterations (block width times iterations, summed over
every ascent best_norms runs) to the reference's; then every drop of the
library's window above 1e-9.  Exit status 1 when a drop of the library's
window exceeds 1e-6.

    python3 scripts/settle_window.py [--tiny]

--tiny runs one real and one complex Gaussian of order 4, a real 3x6
Gaussian, DFT 4 and real Hadamard 8 only.  BLAS runs on one thread.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from restart_rounds import PAIRS, column_iters, recorded  # noqa: E402

from pqnorm import MatrixValue, best_norms, gen_dft, gen_hadamard  # noqa: E402
from pqnorm import induced_norms  # noqa: E402

SEED = 4049
REFERENCE = 10
WINDOWS = (induced_norms.SETTLE_WINDOW, 4)
DROP_BARS = (1e-9, 1e-6)


def shapes(tiny: bool) -> list:
    """(label, [MatrixValue, ...]) per shape."""
    def gaussians(n, m, cplx, count):
        out = []
        for i in range(count):
            rng = np.random.default_rng([SEED, n, m, i, int(cplx)])
            A = rng.standard_normal((n, m))
            out.append(MatrixValue(A + 1j * rng.standard_normal((n, m)), "complex") if cplx else MatrixValue(A))
        return out

    def hadamard(k, field):
        return MatrixValue(gen_hadamard(k).entries, field)

    if tiny:
        return [
            ("r4", gaussians(4, 4, False, 1)),
            ("c4", gaussians(4, 4, True, 1)),
            ("r3x6", gaussians(3, 6, False, 1)),
            ("dft4", [gen_dft(4)]),
            ("h8", [hadamard(8, "real")]),
        ]
    out = []
    for cplx, f in ((False, "r"), (True, "c")):
        out += [(f"{f}{n}", gaussians(n, n, cplx, 4)) for n in (4, 8, 16, 32)]
        out += [(f"{f}{n}x{m}", gaussians(n, m, cplx, 2)) for n, m in ((3, 6), (6, 3), (5, 9), (12, 8), (16, 24))]
    out += [(f"dft{k}", [gen_dft(k)]) for k in range(4, 17)]
    out += [(f"{f}h{k}", [hadamard(k, field)]) for k in (8, 16, 32) for f, field in (("r", "real"), ("c", "complex"))]
    return out


def at_window(M: MatrixValue, window: int) -> tuple:
    """([value or None for an exact point, per pair], column-iterations) of
    best_norms on a fresh copy of M with the settling window set to window."""
    saved = induced_norms.SETTLE_WINDOW
    induced_norms.SETTLE_WINDOW = window
    try:
        results, runs = recorded(lambda: best_norms(MatrixValue(M.entries, M.field), PAIRS))
    finally:
        induced_norms.SETTLE_WINDOW = saved
    values = [None if res.certainty.is_exact else res.value for res in results]
    return values, column_iters(runs)[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true", help="one small matrix of each kind")
    args = ap.parse_args(argv)
    print(f"{'shape':7s} {'W':>2s} {'points':>6s} {'col-iter':>8s} {'>1e-9':>6s} {'>1e-6':>6s} {'worst drop':>10s}")
    drops, failed = [], False
    for label, matrices in shapes(args.tiny):
        points, ref_cost = 0, 0
        cost, worst = [0] * len(WINDOWS), [0.0] * len(WINDOWS)
        over = [[0] * len(DROP_BARS) for _ in WINDOWS]
        for i, M in enumerate(matrices):
            want, c = at_window(M, REFERENCE)
            ref_cost += c
            points += sum(v is not None for v in want)
            for w, window in enumerate(WINDOWS):
                got, c = at_window(M, window)
                cost[w] += c
                for (p, q), v, ref in zip(PAIRS, got, want):
                    if ref is None:
                        continue
                    drop = (ref - v) / ref if ref > 0 else 0.0
                    worst[w] = max(worst[w], drop)
                    over[w] = [n + (drop > bar) for n, bar in zip(over[w], DROP_BARS)]
                    if w == 0 and drop > DROP_BARS[0]:
                        drops.append(f"{label} #{i} ({p}, {q}): {drop:.2e}")
        failed |= over[0][-1] > 0
        for w, window in enumerate(WINDOWS):
            ratio = cost[w] / ref_cost if ref_cost else 1.0
            print(f"{label:7s} {window:2d} {points:6d} {ratio:8.3f} {over[w][0]:6d} {over[w][1]:6d} {worst[w]:10.2e}",
                  flush=True)
    print("drops above 1e-9:" + "".join(f"\n  {d}" for d in drops) if drops else "drops above 1e-9: none")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
