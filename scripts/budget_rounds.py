#!/usr/bin/env python3
"""Value study of best_norm's budgeted restart rounds.

With a budget N, best_norms tops up each estimated point's budget-free
estimate with fresh rounds of RESTARTS + m random restarts until a round
passes the rediscovery test, or one more round would take the point past N
starts.  Before that rule, a budget ran norm_bruteforce as well and kept the
larger value: max(plain, norm_bruteforce(budget=N)), called "sampled" below.
This script compares the two on the grid {1, 1.2, 1.5, 2, 3, 4, inf}^2 at
seed 0, and both with a long-ascent reference: 8 RESTARTS + m starts
(_start_block at seed 1), 1000 iterations, no settling.

Shapes: real and complex Gaussians of order 16, 24 and 32, two each, matrix
i of order n drawn by default_rng([7001, n, i]) (standard normal entries,
over the complex field real plus i times imaginary parts).  The complex
order-32 shape also holds the matrix of default_rng([7002, 32, 2]).  On
default_rng([7001, 32, 0]) at (1.2, 2) and on default_rng([7002, 32, 2]) at
(1.2, 3) the budget-free estimate passes its test on rediscoveries of a
lower maximum.

Per shape it prints the estimated points; the points stopped by the budget
rather than the test; the wall time of the budgeted calls, with the
budget-free estimates already memoised; the count of budgeted values below
the sampled value by more than 1e-9 relative; the counts of plain and of
budgeted values more than 1e-4 below the reference (the largest of the
long ascent and the other three values); and how many points were still
open after each round (round 0 is the budget-free estimate, so its count is
every estimated point; a run of k rounds with c open points each reads
c*k).  Then it lists every drop and every miss.  Exit status 1 when a
budgeted value lies more than 1e-9 below the sampled one.

    python3 scripts/budget_rounds.py [--budget N] [--tiny]

--budget defaults to 10000.  --tiny runs one real and one complex Gaussian
of order 8 and of order 16 only.  BLAS runs on one thread.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pqnorm import MatrixValue, as_index, best_norms, norm_bruteforce  # noqa: E402
from pqnorm import induced_norms  # noqa: E402

SEED = 7001
GRID = [1, 1.2, 1.5, 2, 3, 4, "inf"]
PAIRS = [(p, q) for p in GRID for q in GRID]
DROP_BAR = 1e-9
MISS_BAR = 1e-4
REF_ITERS = 1000


def gaussian(kind: str, key: list) -> MatrixValue:
    rng = np.random.default_rng(key)
    n = key[1]
    A = rng.standard_normal((n, n))
    if kind == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    return MatrixValue(A, kind)


def shapes(tiny: bool) -> list:
    """(label, [MatrixValue, ...]) per shape."""
    orders = (8, 16) if tiny else (16, 24, 32)
    count = 1 if tiny else 2
    out = []
    for n in orders:
        for kind in ("real", "complex"):
            matrices = [gaussian(kind, [SEED, n, i]) for i in range(count)]
            if kind == "complex" and n == 32:
                matrices.append(gaussian(kind, [SEED + 1, 32, 2]))
            out.append((f"{kind[0]}{n}", matrices))
    return out


def reference(M: MatrixValue, p, q) -> float:
    """The best of a long ascent without settling from 8 RESTARTS + m starts."""
    pi, qi = as_index(p), as_index(q)
    starts = induced_norms._start_block.__wrapped__(M.m, M.field, 8 * induced_norms.RESTARTS + M.m, 1)
    X0 = induced_norms._normalize_cols(starts, pi)
    [(val, _)] = induced_norms._ascent(M.entries, pi, qi, X0, REF_ITERS, induced_norms.ASCENT_TOL, settle=False).best
    return val


def budgeted(M: MatrixValue, pairs: list, budget: int) -> tuple:
    """(results, open points per fresh round, seconds) of one budgeted
    best_norms call on M, whose budget-free estimates are memoised."""
    stacked, rounds = induced_norms._stacked, []

    def recording(M, pairs, *args, **kwargs):
        rounds.append(len(pairs))
        return stacked(M, pairs, *args, **kwargs)

    induced_norms._stacked = recording
    try:
        t0 = time.perf_counter()
        results = best_norms(M, pairs, budget=budget)
        return results, rounds, time.perf_counter() - t0
    finally:
        induced_norms._stacked = stacked


def squeezed(counts: list) -> str:
    """The counts space-separated, a run of k equal counts c as c*k."""
    runs = [(c, len(list(g))) for c, g in itertools.groupby(counts)]
    return " ".join(f"{c}*{k}" if k > 1 else str(c) for c, k in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=10_000, help="starts per point (default 10000)")
    ap.add_argument("--tiny", action="store_true", help="one Gaussian per field of order 8 and 16")
    args = ap.parse_args(argv)
    print(f"{'shape':6s} {'points':>6s} {'capped':>6s} {'seconds':>7s} {'<sampled':>8s} {'plain>1e-4':>11s} "
          f"{'budget>1e-4':>11s}  open after round 0, 1, ...")
    drops, misses = [], []
    for label, matrices in shapes(args.tiny):
        points = capped = below = plain_miss = budget_miss = 0
        seconds, per_round = 0.0, []
        for i, M in enumerate(matrices):
            plain = best_norms(M, PAIRS)
            todo = [(pq, res) for pq, res in zip(PAIRS, plain) if not res.certainty.is_exact]
            pairs = [pq for pq, _ in todo]
            results, rounds, secs = budgeted(M, pairs, args.budget)
            seconds += secs
            points += len(pairs)
            counts = rounds or [len(pairs)]  # the points that ran each fresh round
            if len(rounds) == args.budget // (induced_norms.RESTARTS + M.m) - 1:
                capped += counts[-1]  # open when the budget ran out
            else:
                counts.append(0)
            per_round = [a + b for a, b in itertools.zip_longest(per_round, counts, fillvalue=0)]
            for ((p, q), res), got in zip(todo, results):
                sampled = max(res.value, norm_bruteforce(M, p, q, budget=args.budget).value)
                ref = max(reference(M, p, q), sampled, got.value)
                drop = (sampled - got.value) / sampled
                if drop > DROP_BAR:
                    below += 1
                    drops.append(f"{label} #{i} ({p}, {q}): budgeted {got.value!r} sampled {sampled!r} ({drop:.2e})")
                for name, val in (("plain", res.value), ("budgeted", got.value)):
                    miss = (ref - val) / ref
                    if miss > MISS_BAR:
                        plain_miss += name == "plain"
                        budget_miss += name == "budgeted"
                        misses.append(f"{label} #{i} ({p}, {q}): {name} {miss:.2e} below the reference")
        print(
            f"{label:6s} {points:6d} {capped:6d} {seconds:7.3f} {below:8d} {plain_miss:11d} {budget_miss:11d}  "
            + squeezed(per_round),
            flush=True,
        )
    for title, lines in ((f"budgeted values more than {DROP_BAR:g} below the sampled value:", drops),
                         (f"values more than {MISS_BAR:g} below the reference:", misses)):
        print(title + "".join(f"\n  {line}" for line in lines or ["none"]))
    return 1 if drops else 0


if __name__ == "__main__":
    sys.exit(main())
