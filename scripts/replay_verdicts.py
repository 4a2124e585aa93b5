#!/usr/bin/env python3
"""Replay stream-small queries and compare the answers of two source trees.

Replay: run the first N queries of the benchmark's stream-small workload
for each seed, in-process, against the pqnorm sources in --src (default:
this checkout's src/), and write one record per query to a JSON file: its
decision (yes / no / undetermined, or null for a norm query), a class
verdict's certainty (exact / estimate-backed, or null), whether each norm
bracket or result in the answer is exact, the relative widths of its
estimated brackets, and the reasons the benchmark's oracle check failed it.
The queries and checks come from bench/workloads.py, imported without
writing anything under bench/.

With --scale K, every query runs on 2^K' A instead of A, for K' the
largest value <= K that keeps every entry finite (a rescaled query and its
unscaled reference share the smaller of their two), with the oracle's
reference values scaled alike.  Verdicts do not change under positive
scaling, so a diff against the unscaled replay must show no moves.  Values
past the float range fail the oracle's finiteness checks there, so a
scaled replay reports oracle failures of its own; the decision of a query
is recorded from its answer, whatever its check found.

Diff: read two such files and list every yes <-> no flip, apart from them
every move between a decision and undetermined, and apart from both every
certainty move (the same decision, but a different certainty or
exactness); print both files' oracle failures and bracket width means (the
mean over queries without a failure, as the benchmark reports it).  Exits 1
when a query flipped or the files hold different queries.

Run:
    python3 scripts/replay_verdicts.py --seeds 31,911,4242 -n 4000 -o new.json
    python3 scripts/replay_verdicts.py --src ../parent/src --seeds 31 -n 4000 -o old.json
    python3 scripts/replay_verdicts.py --diff old.json new.json
    python3 scripts/replay_verdicts.py --seeds 31 -n 4000 --scale 1020 -o big.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads(src: str):
    """bench/workloads.py with pqnorm imported from src, writing no bytecode."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "bench")]
    import pqnorm
    import workloads

    where = os.path.dirname(os.path.dirname(os.path.abspath(pqnorm.__file__)))
    if where != os.path.abspath(src):
        sys.exit(f"error: pqnorm imported from {where}, not from {src}")
    return workloads


def _certainty(res) -> tuple:
    """(a class verdict's certainty or None, the exactness of each norm
    bracket or result in the answer, in a fixed order)."""
    if isinstance(res, tuple):  # decide_equality: (verdict, details)
        return None, [res[1]["lhs"].is_exact, res[1]["rhs"].is_exact]
    if hasattr(res, "member"):
        return res.certainty, []
    if hasattr(res, "is_exact"):
        return None, [res.is_exact]
    return None, [res.certainty.is_exact]  # a NormResult


def _rescale(workloads, K: int) -> None:
    """Make workloads build every library query on 2^K' A, see --scale."""
    build, shared = workloads._library_query, {}

    def room(X) -> int:  # the largest k with 2^k X finite
        return min(1024 - math.frexp(float(np.abs(x).max()))[1] for x in (X.real, X.imag))

    def scaled(qid, call, A, truth, *args, **kwargs):
        # a rescaled query and its unscaled reference hold the same truth.A,
        # kept alive here so that its id is not reused
        k = min(K, room(np.asarray(A)), room(truth.A))
        k = shared.setdefault(id(truth.A), (truth.A, k))[1]
        X = np.ldexp(A.real, k) + (1j * np.ldexp(A.imag, k) if np.iscomplexobj(A) else 0.0)
        truth = workloads.Truth(truth.A, truth.k + k, truth.known)
        return build(qid, call, X, truth, *args, **kwargs)

    workloads._library_query = scaled


def replay(src: str, seeds: list, n: int, scale=None) -> list:
    workloads = _workloads(src)
    if scale is not None:
        _rescale(workloads, scale)
    records = []
    for seed in seeds:
        wl = workloads.StreamSmall(seed)
        rounds = wl.setup()
        while sum(map(len, rounds)) < n:
            rounds += wl.more()
        for q in itertools.islice(itertools.chain.from_iterable(rounds), n):
            out, decision, certainty, exact = workloads.Outcome(), None, None, []
            try:
                res = q.run()
                decision = workloads._verdict_of(res)
                certainty, exact = _certainty(res)
                q.check(res, out)
            except Exception as exc:  # a failed query is a record, as in the benchmark
                out.fail(f"raised {type(exc).__name__}: {exc}")
            records.append({
                "seed": seed, "query": q.qid, "desc": q.desc, "decision": decision,
                "certainty": certainty, "exact": exact, "widths": out.widths,
                "failures": out.reasons,
            })
    return records


def width_mean(records: list) -> float:
    widths = [w for r in records if not r["failures"] for w in r["widths"]]
    return statistics.fmean(widths) if widths else 0.0


def diff(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as fp:
        a = json.load(fp)
    with open(b_path, encoding="utf-8") as fp:
        b = json.load(fp)
    keys = [(r["seed"], r["query"], r["desc"]) for r in a]
    if keys != [(r["seed"], r["query"], r["desc"]) for r in b]:
        print("the two files hold different queries")
        return 1
    flips, moves, certain = [], [], []
    for ra, rb in zip(a, b):
        da, db = ra["decision"], rb["decision"]
        where = f"  seed {ra['seed']} {ra['query']} {ra['desc']}"
        if da != db:
            (flips if {da, db} == {"yes", "no"} else moves).append(f"{where}: {da} -> {db}")
            continue
        was, now = ((r.get("certainty"), r.get("exact")) for r in (ra, rb))
        if was != now:
            certain.append(f"{where}: {da} {was} -> {now}")
    print(f"queries: {len(a)}")
    for name, recs in ((a_path, a), (b_path, b)):
        failed = sum(1 for r in recs if r["failures"])
        print(f"{name}: oracle failures {failed}, bracket width mean {width_mean(recs):.9f}")
    print(f"yes <-> no flips: {len(flips)}", *flips, sep="\n")
    print(f"decided <-> undetermined moves: {len(moves)}", *moves, sep="\n")
    print(f"certainty moves: {len(certain)}", *certain, sep="\n")
    return 1 if flips else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two replay files")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="pqnorm source tree")
    ap.add_argument("--seeds", default="31", help="comma-separated stream-small seeds")
    ap.add_argument("-n", type=int, default=4000, help="queries per seed")
    ap.add_argument("-o", "--out", help="replay file to write")
    ap.add_argument("--scale", type=int, metavar="K", help="run each query on 2^K' A, K' <= K")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.out:
        ap.error("a replay needs -o/--out")
    seeds = [int(s) for s in args.seeds.split(",")]
    records = replay(args.src, seeds, args.n, args.scale)
    with open(args.out, "w", encoding="utf-8") as fp:  # one record per line
        fp.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    failed = sum(1 for r in records if r["failures"])
    print(f"{len(records)} queries, oracle failures {failed}, bracket width mean {width_mean(records):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
