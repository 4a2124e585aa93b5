"""pqnorm benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload stream-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pqnorm is imported from ./src.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Details
(every failure by query id, the environment, and in traced runs every
span) go to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the load is generated by one process, and the sweep's
# THREADS=nproc pool must not multiply with a BLAS pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 5
# Upper limit on the timed loop of one run, well inside the 180 s a run may take.
MAX_MEASURE_S = 140.0
WORKLOADS = ("stream-small", "grid-shared")


def _import_program():
    """Import pqnorm from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "pqnorm", "__init__.py")):
        sys.exit(f"error: no pqnorm sources under {SRC}")
    sys.path.insert(0, SRC)
    import pqnorm

    if os.path.dirname(os.path.dirname(os.path.abspath(pqnorm.__file__))) != SRC:
        sys.exit(f"error: pqnorm imported from {pqnorm.__file__}, not from {SRC}")


def child_import_seconds() -> float:
    """Time `import pqnorm` in a fresh interpreter (startup excluded)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import pqnorm; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip())


def make_workload(name: str, seed: int, tiny: bool = False):
    import workloads

    if name == "stream-small":
        return workloads.StreamSmall(seed, tiny)
    return workloads.GridShared(seed, os.path.join(WORK, f"grid-{seed}-{os.getpid()}"), tiny)


def timed_setup(name: str, seed: int, tiny: bool) -> tuple:
    """Set up SETUP_REPS times; returns (workload, pool, median set-up seconds)."""
    totals = []
    for _ in range(SETUP_REPS):
        imp = child_import_seconds()
        wl = make_workload(name, seed, tiny)
        t0 = time.perf_counter()
        pool = wl.setup()
        totals.append(imp + time.perf_counter() - t0)
    return wl, pool, statistics.median(totals)


def timed_call(q) -> tuple:
    """Run one query untraced: (result, error, latency_s)."""
    err = res = None
    t0 = time.perf_counter()
    try:
        res = q.run()
    except Exception as exc:  # a failed query is a result, not a crash
        err = exc
    return res, err, time.perf_counter() - t0


def rounds_for(wl, seconds: float) -> int:
    """Rounds in a run: `seconds` worth at the workload's nominal round time.

    The count depends only on the workload and `seconds`, never on how fast
    the rounds go, so every run of a seed executes the same queries and
    `attempted` and `failed` repeat exactly."""
    return max(1, round(seconds / wl.round_seconds))


def run_loop(wl, rounds: list, n_rounds: int, run_query=timed_call) -> tuple:
    """Closed loop, one client: run the first `n_rounds` rounds of queries,
    in order.

    Returns (records, elapsed) with records (query, result, error,
    latency_s).  When the pool runs out, more rounds are made with the
    clock stopped.  A run that is still going after MAX_MEASURE_S stops
    early, so that it ends in time even on a much slower program.
    """
    records = []
    paused = 0.0
    start = time.perf_counter()
    for done in range(n_rounds):
        if time.perf_counter() - start - paused > MAX_MEASURE_S:
            print(f"warning: stopped after {done} of {n_rounds} rounds ({MAX_MEASURE_S} s)",
                  file=sys.stderr)
            break
        if done == len(rounds):
            t0 = time.perf_counter()
            rounds.extend(wl.more())
            paused += time.perf_counter() - t0
        for q in rounds[done]:
            records.append((q,) + run_query(q))
    return records, time.perf_counter() - start - paused


def check_records(records) -> list:
    """Untimed output checks; returns one Outcome per record."""
    from pqnorm import SvdConvergenceError
    from workloads import Outcome

    outcomes = []
    for q, res, err, _ in records:
        out = Outcome()
        if err is not None:
            defect = "jacobi-svd" if isinstance(err, SvdConvergenceError) else None
            out.fail(f"raised {type(err).__name__}: {err}", defect)
        else:
            try:
                q.check(res, out)
            except Exception as exc:  # a malformed answer fails its query
                out.fail(f"check raised {type(exc).__name__}: {exc}")
        if q.category is not None:
            out.defects = [q.category] * len(out.reasons)
        outcomes.append(out)
    return outcomes


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics around rank p*n.  Unlike a single order statistic it
    does not jump across gaps between clusters of latencies when samples
    are few, as in the tail of a grid-shared run."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    if n == 1 or a <= 1.0 or b <= 1.0:
        return float(x[min(int(p * n), n - 1)])
    t = np.linspace(0.0, 1.0, 200_001)[1:-1]
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(logpdf - logpdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t)), cdf)
    return float(np.dot(np.diff(edges), x))


def tail_rank(n: int) -> tuple:
    """(percentile, samples beyond): the highest percentile with at least
    ten samples beyond it."""
    idx = max(n - 11, 0)
    return 100.0 * (idx + 1) / n, n - 1 - idx


def summarize(records, outcomes, elapsed: float) -> dict:
    lat = [r[3] for r in records]
    attempted = len(records)
    failed = sum(1 for o in outcomes if o.reasons)
    decisions = [o.decision for o in outcomes if o.decision is not None]
    undetermined = sum(1 for d in decisions if d == "undetermined")
    widths = [w for o in outcomes if not o.reasons for w in o.widths]
    tail_pct, beyond = tail_rank(len(lat))
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": sum(1 for o in outcomes if o.unexpected),
        "queries_per_s": attempted / elapsed,
        "query_p50_ms": 1e3 * hd_quantile(lat, 0.5),
        "query_tail_ms": 1e3 * hd_quantile(lat, tail_pct / 100.0),
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "failed_ratio": failed / attempted,
        "undetermined_ratio": undetermined / len(decisions) if decisions else 0.0,
        "decisions": len(decisions),
        "bracket_width_mean": statistics.fmean(widths) if widths else 0.0,
        "brackets": len(widths),
    }


def failures(records, outcomes) -> list:
    return [
        {"query": q.qid, "desc": q.desc, "unexpected": o.unexpected,
         "reasons": [f"[{d or 'UNEXPECTED'}] {r}" for r, d in zip(o.reasons, o.defects)]}
        for (q, *_), o in zip(records, outcomes) if o.reasons
    ]


def environment(seed: int) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    env["cpu_model"] = _cpu_model()
    env["git_commit"] = _git_commit()
    return env


def _blas_threads():
    """OpenBLAS's own thread count, from the library numpy bundles."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fp:
            ref = fp.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fp:
                return fp.read().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "bracket_width_mean": "ratio", "peak_rss_mb": "MB", "pass_ratio": "ratio",
    "decided_ratio": "ratio",
}
# Reported in the final JSON line: the BENCHMARK.json end_to_end metrics.
END_TO_END = ("setup_s", "queries_per_s", "query_p50_ms", "query_tail_ms", "pass_ratio",
              "decided_ratio", "bracket_width_mean", "peak_rss_mb")


def measure(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """An untraced run: the end-to-end metrics, checked answers, failures."""
    wl, pool, setup_s = timed_setup(name, seed, tiny)
    try:
        records, elapsed = run_loop(wl, pool, rounds_for(wl, seconds))
    finally:
        _cleanup(wl)
    outcomes = check_records(records)
    s = summarize(records, outcomes, elapsed)
    s["setup_s"] = setup_s
    s["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s["pass_ratio"] = 1.0 - s["failed_ratio"]
    s["decided_ratio"] = 1.0 - s["undetermined_ratio"]
    metrics = {k: {"value": s[k], "unit": UNITS[k]} for k in END_TO_END}
    return {"summary": s, "metrics": metrics, "failures": failures(records, outcomes)}


def measure_traced(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """A traced run.  Set-up is traced; then every query runs traced, and
    every other query also runs untraced just before or after (alternating),
    so the tracing overhead is measured on identical work and machine drift
    cancels out."""
    from tracing import Tracer

    tracer = Tracer()
    wl = make_workload(name, seed, tiny)
    tracer.install()
    try:
        pool, err, _ = tracer.run_root("bench.setup", "setup", wl.setup)
    finally:
        tracer.uninstall()
    if err is not None:
        raise err
    pairs = []  # (traced latency, untraced latency)
    count = 0

    def traced_call(q) -> tuple:
        tracer.install()
        try:
            return tracer.run_root("bench.query", q.qid, q.run)
        finally:
            tracer.uninstall()

    def paired(q) -> tuple:
        nonlocal count
        count += 1
        if count % 2:
            return traced_call(q)
        if count % 4 == 0:
            plain = timed_call(q)[2]
            out = traced_call(q)
        else:
            out = traced_call(q)
            plain = timed_call(q)[2]
        pairs.append((out[2], plain))
        return out

    try:
        traced, _ = run_loop(wl, pool, rounds_for(wl, seconds), paired)
    finally:
        _cleanup(wl)
    outcomes = check_records(traced)
    s = summarize(traced, outcomes, sum(r[3] for r in traced))
    metrics = tracer.layer_metrics()
    overhead = sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0 if pairs else 0.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    s["trace_overhead_queries"] = len(pairs)
    s["trace_accounting_errors"] = tracer.accounting_errors()
    return {"summary": s, "metrics": metrics, "failures": failures(traced, outcomes),
            "tracer": tracer}


def _cleanup(wl) -> None:
    workdir = getattr(wl, "workdir", None)
    if workdir:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, seed: int, seconds: float, trace: bool, result: dict, env: dict) -> None:
    s = result["summary"]
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          "closed loop, 1 client")
    if not trace:
        for k in ("setup_s", "queries_per_s", "query_p50_ms"):
            print(f"  {k:20s} {s[k]:.6g} {UNITS[k]}")
        print(f"  {'query_tail_ms':20s} {s['query_tail_ms']:.6g} ms  "
              f"(p{s['tail_percentile']:.2f}, {s['tail_beyond']} of {s['attempted']} samples beyond)")
        print(f"  {'failed_ratio':20s} {s['failed_ratio']:.6g} ratio  ({s['failed']} of {s['attempted']})")
        print(f"  {'undetermined_ratio':20s} {s['undetermined_ratio']:.6g} ratio  "
              f"(of {s['decisions']} three-state decisions)")
        print(f"  {'bracket_width_mean':20s} {s['bracket_width_mean']:.6g} ratio  "
              f"(over {s['brackets']} non-exact brackets)")
        for k in ("peak_rss_mb", "pass_ratio", "decided_ratio"):
            print(f"  {k:20s} {s[k]:.6g} {UNITS[k]}")
    else:
        for k, v in result["metrics"].items():
            print(f"  {k:52s} {v['value']:.6g} {v['unit']}")
        print(f"  trace overhead measured over {s['trace_overhead_queries']} identical queries; "
              f"accounting mismatches: {len(s['trace_accounting_errors'])}")
    fails = result["failures"]
    print(f"failures: {len(fails)} ({s['unexpected_failures']} outside the known defects)")
    for f in fails[:25]:
        print(f"  {f['query']} {f['desc']}: {'; '.join(f['reasons'])[:240]}")
    if len(fails) > 25:
        print(f"  ... {len(fails) - 25} more in .bench_out/")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    sys.path.insert(0, BENCH)
    import workloads

    env = environment(args.seed)
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    s = result["summary"]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        result.pop("tracer").dump(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fp:
        json.dump({"env": env, "summary": s, "metrics": result["metrics"],
                   "known_defects": workloads.KNOWN_DEFECTS, "failures": result["failures"]},
                  fp, indent=1)
    report(args.workload, args.seed, args.seconds, bool(args.trace), result, env)
    correct = s["unexpected_failures"] == 0 and not s.get("trace_accounting_errors")
    print(json.dumps({"correct": correct, "attempted": s["attempted"], "failed": s["failed"],
                      "metrics": result["metrics"]}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
