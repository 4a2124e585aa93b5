#!/usr/bin/env python3
"""Replay benchmark queries and compare the answers of two source trees.

Replay: run the first N queries of a benchmark workload for each seed,
in-process, against the pqnorm sources in --src (default: this checkout's
src/), and write one record per query to a JSON file.  A stream-small
record holds the query's decision (yes / no / undetermined, or null for a
norm query), a class verdict's certainty (exact / estimate-backed, or
null), whether each norm bracket or result in the answer is exact, the
relative widths of its estimated brackets, and the reasons the benchmark's
oracle check failed it.  A grid-shared record (--workload grid-shared: the
CLI on matrix files, 93 queries a pass) holds the command's exit code, a
digest of its stdout, the widths and the oracle's failures; the matrix
files are written to a temporary directory, which the records name $TMP.
The queries and checks come from bench/workloads.py, imported without
writing anything under bench/.  --tiny runs the workload's tiny mode.

With --scale K, every query runs on 2^K' A instead of A, for K' the
largest value <= K that keeps every entry finite (a rescaled query and its
unscaled reference share the smaller of their two), with the oracle's
reference values scaled alike.  Verdicts do not change under positive
scaling, so a diff against the unscaled replay must show no moves.  Values
past the float range fail the oracle's finiteness checks there, so a
scaled replay reports oracle failures of its own; the decision of a query
is recorded from its answer, whatever its check found.

With --isometry, every query runs on D1 P A Q D2 instead of A: P and Q
are permutations, D1 and D2 diagonal with entries +-1 over the reals and
unit phases over the complex field, all drawn from a generator seeded by
the query id, so a rescaled query and its unscaled reference share one
transform.  Every lp norm is invariant under these maps, so the oracle's
reference values stay those of A and a diff against the plain replay must
show no moves.  --isometry and --scale may be combined.

With --adjoint, every query runs on A* at the conjugate exponents: a norm
query at (q*, p*), decide_equality at (q*, p*, s*, r*), check_class at
(q*, p*) with E_11 and E_inf,inf swapped (E_1inf and E_inf1 are their own
mirrors), check_svd_equality at (s*, r*).  ||A*||_{q*,p*} = ||A||_{p,q},
so every answer is the same question; the oracle reads A* with its known
norms mirrored alike, and each record keeps the original query's
description, so a diff against the plain replay must show no moves.  It
combines with --scale and --isometry.

With --region, every decide_equality query with (r,s) != (p,q) runs at
another point of its sign region, the signs of r - p and s - q kept.  It
goes to the region's exact representative where one exists and differs
from (r,s): an open quadrant's far corner (r and s each 1 or inf), or on
an axis the closed-form ends (1, q) and (p, inf), and over the reals the
enumerated (inf, q), (p, 1) and (inf, 1).  Elsewhere the free exponents
are drawn from a generator seeded by the query id, so a rescaled query and
its unscaled reference move alike.  For a fixed A, attainment depends on
the region alone, so each record keeps the original query's description
and a diff against the plain replay lists every yes <-> no flip as a
defect; moves to or from undetermined and certainty moves are expected.
It combines with the other maps.

Diff: read two such files and list every yes <-> no flip, apart from them
every move between a decision and undetermined, and apart from both every
certainty move (the same decision, but a different certainty or
exactness); for grid-shared files, every exit-code move and apart from
them every stdout change.  Print both files' oracle failures and bracket
width means (the mean over queries without a failure, as the benchmark
reports it).  Exits 1 when a query flipped, an exit code moved or the
files hold different queries.

Run:
    python3 scripts/replay_verdicts.py --seeds 31,911,4242 -n 4000 -o new.json
    python3 scripts/replay_verdicts.py --src ../parent/src --seeds 31 -n 4000 -o old.json
    python3 scripts/replay_verdicts.py --diff old.json new.json
    python3 scripts/replay_verdicts.py --seeds 31 -n 4000 --scale 1020 -o big.json
    python3 scripts/replay_verdicts.py --seeds 31 -n 4000 --isometry -o iso.json
    python3 scripts/replay_verdicts.py --seeds 31 -n 4000 --adjoint -o adj.json
    python3 scripts/replay_verdicts.py --seeds 31 -n 4000 --region -o region.json
    python3 scripts/replay_verdicts.py --workload grid-shared --seeds 5,77 -n 186 -o grid.json
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import tempfile

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


def _isometry(workloads) -> None:
    """Make workloads build every library query on D1 P A Q D2, see --isometry."""
    build = workloads._library_query

    def moved(qid, call, A, *args, **kwargs):
        rng = np.random.default_rng(list(qid.encode()))
        n, m = A.shape
        if np.iscomplexobj(A):
            d1, d2 = (np.exp(2j * np.pi * rng.random(k)) for k in (n, m))
        else:
            d1, d2 = (rng.choice([-1.0, 1.0], k) for k in (n, m))
        X = d1[:, None] * A[rng.permutation(n)][:, rng.permutation(m)] * d2
        return build(qid, call, X, *args, **kwargs)

    workloads._library_query = moved


def _adjoint(workloads) -> None:
    """Make workloads build every library query on A* at the conjugate
    exponents, see --adjoint."""
    build, dual = workloads._library_query, workloads.oracle.dual
    C = workloads.P.ClassId
    mirror = {C.E_11: C.E_INFINF, C.E_INFINF: C.E_11}

    def adjoint(qid, call, A, truth, exps, cls, *args, **kwargs):
        p, q, r, s = exps
        known = truth.known and (lambda P, Q: truth.known(dual(Q), dual(P)))
        star = build(qid, call, A.conj().T, workloads.Truth(truth.A.conj().T, truth.k, known),
                     (dual(q), dual(p), dual(s), dual(r)), mirror.get(cls, cls), *args, **kwargs)
        # the record keeps the original description, so it diffs against a plain replay
        star.desc = build(qid, call, A, truth, exps, cls, *args, **kwargs).desc
        return star

    workloads._library_query = adjoint


def _region_exponent(rng, p: float, r: float) -> float:
    """An exponent strictly on r's side of p (p itself when r = p), drawn
    uniformly in 1/r and rounded to two decimals."""
    if r == p:
        return p
    lo, hi = (1.0 / p, 1.0) if r < p else (0.0, 1.0 / p)  # that side's range of 1/r
    while True:
        u = rng.uniform(lo, hi)
        x = math.inf if u == 0.0 else round(1.0 / u, 2)
        if (x < p) == (r < p) and x != p:
            return x


def _region(workloads) -> None:
    """Make workloads build every decide_equality query with (r,s) != (p,q)
    at another point of its sign region, see --region."""
    build = workloads._library_query

    def moved(qid, call, A, truth, exps, *args, **kwargs):
        p, q, r, s = exps
        if call != "decide_equality" or (r, s) == (p, q):
            return build(qid, call, A, truth, exps, *args, **kwargs)
        rep = (r if r == p else 1.0 if r < p else math.inf,
               s if s == q else 1.0 if s < q else math.inf)
        # (1, .) and (., inf) are closed forms; real (inf, .) and (., 1) enumerate
        exact = rep[0] == 1.0 or rep[1] == math.inf or not np.iscomplexobj(A)
        if rep == (r, s) or not exact:
            rng = np.random.default_rng(list(qid.encode()))
            rep = (_region_exponent(rng, p, r), _region_exponent(rng, q, s))
        there = build(qid, call, A, truth, (p, q, *rep), *args, **kwargs)
        there.desc = build(qid, call, A, truth, exps, *args, **kwargs).desc
        return there

    workloads._library_query = moved


def _stream_answer(workloads, res) -> dict:
    certainty, exact = (None, []) if res is None else _certainty(res)
    decision = None if res is None else workloads._verdict_of(res)
    return {"decision": decision, "certainty": certainty, "exact": exact}


def _grid_answer(workloads, res) -> dict:
    """A CLI query's (exit code, stdout, stderr): the code and a stdout digest."""
    if res is None:
        return {"exit": None, "stdout": None}
    return {"exit": res[0], "stdout": hashlib.sha256(res[1].encode()).hexdigest()[:16]}


def replay(src: str, seeds: list, n: int, scale=None, workload="stream-small", tiny=False,
           isometry=False, adjoint=False, region=False) -> list:
    workloads = _workloads(src)
    if adjoint:  # innermost: --scale pairs queries by their truth.A
        _adjoint(workloads)
    if region:  # moves the original exponents, before any adjoint mirrors them
        _region(workloads)
    if scale is not None:
        _rescale(workloads, scale)
    if isometry:
        _isometry(workloads)
    grid = workload == "grid-shared"
    answer = _grid_answer if grid else _stream_answer
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            if grid:
                wl = workloads.GridShared(seed, os.path.join(tmp, str(seed)), tiny)
            else:
                wl = workloads.StreamSmall(seed, tiny)
            rounds = wl.setup()
            while sum(map(len, rounds)) < n:
                rounds += wl.more()
            for q in itertools.islice(itertools.chain.from_iterable(rounds), n):
                out, res = workloads.Outcome(), None
                try:
                    res = q.run()
                    q.check(res, out)
                except Exception as exc:  # a failed query is a record, as in the benchmark
                    out.fail(f"raised {type(exc).__name__}: {exc}")
                records.append({
                    "seed": seed, "query": q.qid, "desc": q.desc.replace(tmp, "$TMP"),
                    **answer(workloads, res), "widths": out.widths, "failures": out.reasons,
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
    grid = bool(a) and "exit" in a[0]
    for ra, rb in zip(a, b):
        where = f"  seed {ra['seed']} {ra['query']} {ra['desc']}"
        if grid:
            if ra["exit"] != rb["exit"]:
                flips.append(f"{where}: exit {ra['exit']} -> {rb['exit']}")
            elif ra["stdout"] != rb["stdout"]:
                moves.append(f"{where}: exit {ra['exit']}")
            continue
        da, db = ra["decision"], rb["decision"]
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
    if grid:
        print(f"exit-code moves: {len(flips)}", *flips, sep="\n")
        print(f"stdout changes: {len(moves)}", *moves, sep="\n")
        return 1 if flips else 0
    print(f"yes <-> no flips: {len(flips)}", *flips, sep="\n")
    print(f"decided <-> undetermined moves: {len(moves)}", *moves, sep="\n")
    print(f"certainty moves: {len(certain)}", *certain, sep="\n")
    return 1 if flips else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two replay files")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="pqnorm source tree")
    ap.add_argument("--workload", choices=("stream-small", "grid-shared"), default="stream-small")
    ap.add_argument("--tiny", action="store_true", help="the workload's tiny mode")
    ap.add_argument("--seeds", default="31", help="comma-separated workload seeds")
    ap.add_argument("-n", type=int, default=4000, help="queries per seed")
    ap.add_argument("-o", "--out", help="replay file to write")
    ap.add_argument("--scale", type=int, metavar="K", help="run each query on 2^K' A, K' <= K")
    ap.add_argument("--isometry", action="store_true", help="run each query on D1 P A Q D2")
    ap.add_argument("--adjoint", action="store_true", help="run each query on A* at (q*, p*)")
    ap.add_argument("--region", action="store_true",
                    help="run each decide_equality query at another point of its sign region")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.out:
        ap.error("a replay needs -o/--out")
    maps = args.scale is not None or args.isometry or args.adjoint or args.region
    if maps and args.workload == "grid-shared":
        ap.error("--scale, --isometry, --adjoint and --region map stream-small queries only")
    seeds = [int(s) for s in args.seeds.split(",")]
    records = replay(args.src, seeds, args.n, args.scale, args.workload, args.tiny, args.isometry,
                     args.adjoint, args.region)
    with open(args.out, "w", encoding="utf-8") as fp:  # one record per line
        fp.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    failed = sum(1 for r in records if r["failures"])
    print(f"{len(records)} queries, oracle failures {failed}, bracket width mean {width_mean(records):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
