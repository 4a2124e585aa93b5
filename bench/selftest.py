"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit, that a second run
of the same seed attempts and fails the same queries, that the traced
self times add up to each query's wall time, and that an answer made to
disagree with the oracle is counted as failed.  Exits 1 on the first
problem.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys

import run


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selftest FAILED: {what}")


def expect_metrics(got: dict, declared: list, where: str) -> None:
    names = {m["name"]: m["unit"] for m in declared}
    expect(set(got) == set(names), f"{where}: metrics {sorted(set(got) ^ set(names))} differ")
    for name, unit in names.items():
        expect(got[name]["unit"] == unit, f"{where}: {name} has unit {got[name]['unit']}")
        expect(isinstance(got[name]["value"], (int, float)), f"{where}: {name} is not a number")


def skew_closed_forms():
    """Make every closed-form value 1e-6 too large, in every namespace."""
    original = importlib.import_module("pqnorm.induced_norms").norm_closed_form

    def skewed(*args, **kwargs):
        res = original(*args, **kwargs)
        return None if res is None else dataclasses.replace(res, value=res.value * (1 + 1e-6))

    patched = []
    for name in ("pqnorm",) + tuple(f"pqnorm.{m}" for m in ("induced_norms", "bounds", "equality_classes")):
        mod = importlib.import_module(name)
        if getattr(mod, "norm_closed_form", None) is original:
            setattr(mod, "norm_closed_form", skewed)
            patched.append(mod)
    return lambda: [setattr(mod, "norm_closed_form", original) for mod in patched]


def main() -> int:
    run._import_program()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    for name in run.WORKLOADS:
        plain = run.measure(name, seed=1, seconds=0.2, tiny=True)
        expect_metrics(plain["metrics"], spec["end_to_end"], f"{name} trace 0")
        expect(plain["summary"]["attempted"] >= 1, f"{name}: no query ran")
        traced = run.measure_traced(name, seed=1, seconds=0.2, tiny=True)
        expect_metrics(traced["metrics"], spec["per_layer"], f"{name} trace 1")
        errors = traced["summary"]["trace_accounting_errors"]
        expect(not errors, f"{name}: self times miss wall time: {errors[:3]}")
        again = run.measure(name, seed=1, seconds=0.2, tiny=True)
        expect([f["query"] for f in again["failures"]] == [f["query"] for f in plain["failures"]]
               and again["summary"]["attempted"] == plain["summary"]["attempted"],
               f"{name}: a second run of the same seed attempted or failed other queries")
        print(f"{name}: {plain['summary']['attempted']} queries, metrics and units ok, "
              f"same queries and failures on a second run, {len(traced['tracer'].spans)} spans add up")
    restore = skew_closed_forms()
    try:
        skewed = run.measure("stream-small", seed=1, seconds=0.2, tiny=True)
    finally:
        restore()
    s = skewed["summary"]
    expect(s["failed_ratio"] > 0 and s["unexpected_failures"] > 0,
           "an answer 1e-6 off the oracle was not counted as failed")
    print(f"skewed closed forms: {s['failed']} of {s['attempted']} queries failed, as they should")
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
