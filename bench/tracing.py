"""Spans around pqnorm's public functions, recorded from the benchmark only.

`Tracer.install` replaces each listed function, in every pqnorm module
namespace that binds it, with a wrapper that records a span (name, start,
end, parent, query id) or, for the cheapest helpers, only a call count.
`uninstall` puts the originals back.  Spans stay in memory until `dump`.

A span opened on a thread with no open span of its own (the sweep's pool
threads) takes the open `cli.cmd_sweep` span as its parent, or else the
query's root span.  Self time is a span's duration minus the union of its
children's intervals; children that run in parallel overlap, and that
overlap is reported so that per query
    sum(self times) - overlap == root duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

MODULES = ("core", "induced_norms", "bounds", "equality_classes", "generators", "matrixio", "cli")


def _exact(args, kwargs, res):
    return res.certainty.is_exact


def _width(args, kwargs, res):
    """Relative width of a well-formed, non-exact bracket, else None."""
    if res.is_exact or not (0.0 <= res.lower <= res.upper < math.inf and res.upper > 0.0):
        return None
    return (res.upper - res.lower) / res.upper


def _decision(args, kwargs, res):
    return res[0]


def _member(args, kwargs, res):
    return res.member


def _truth(args, kwargs, res):
    return bool(res)


def _file_bytes(args, kwargs, res):
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path) if isinstance(path, str) else 0


# (module, function, observer).  The observer turns the return value into
# the number a ratio metric needs; it runs after the span has closed.
SPANNED = (
    ("core", "vector_norm", None),
    ("induced_norms", "norm_closed_form", None),
    ("induced_norms", "svd", None),
    ("induced_norms", "norm_estimate", None),
    ("induced_norms", "norm_infty_one_exact", None),
    ("induced_norms", "norm_bruteforce", None),
    ("induced_norms", "best_norm", _exact),
    ("bounds", "norm_upper_bound", None),
    ("bounds", "bracket_norm", _width),
    ("bounds", "decide_equality", _decision),
    ("bounds", "check_inequality", None),
    ("bounds", "duality_check", _truth),
    ("bounds", "monotonicity_check", _truth),
    ("bounds", "monotonicity_check_in_s", _truth),
    ("equality_classes", "check_E1inf", _member),
    ("equality_classes", "check_E11", _member),
    ("equality_classes", "check_Einfinf", _member),
    ("equality_classes", "check_Einf1", _member),
    ("equality_classes", "check_svd_equality", _member),
    ("equality_classes", "maximizer_eigencheck", None),
    ("generators", "unitary_with_first_column", None),
    ("generators", "kclass_unit_vector", None),
    ("generators", "gen_svd_extremal", None),
    ("generators", "gen_hadamard", None),
    ("generators", "gen_dft", None),
    ("generators", "gen_tensor_product", None),
    ("generators", "gen_single_entry", None),
    ("generators", "build_generator", None),
    ("matrixio", "save_matrix", None),
    ("matrixio", "load_matrix", _file_bytes),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_sweep", None),
    ("cli", "cmd_check", None),
    ("cli", "cmd_norm", None),
)
# Called so often (and so cheaply) that a span would dwarf them.
COUNTED = (("core", "as_index"), ("induced_norms", "as_matrix"))

SWEEP = "cli.cmd_sweep"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "qid", "thread", "note")

    def __init__(self, sid, name, start, end, parent, qid, thread, note):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.qid, self.thread, self.note = parent, qid, thread, note


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self._root: Optional[tuple] = None  # (sid, qid) of the open query
        self._sweep: Optional[tuple] = None  # (sid, qid) of the open cmd_sweep

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module("pqnorm")] + [
            importlib.import_module(f"pqnorm.{m}") for m in MODULES
        ]
        for module, name, observe in SPANNED:
            self._patch(mods, module, name, self._span_wrapper(f"{module}.{name}", observe))
        for module, name in COUNTED:
            self._patch(mods, module, name, self._count_wrapper(f"{module}.{name}"))

    def _patch(self, mods, module: str, name: str, make: Callable) -> None:
        original = getattr(importlib.import_module(f"pqnorm.{module}"), name)
        wrapper = make(original)
        for mod in mods:
            if getattr(mod, name, None) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, key: str, observe) -> Callable:
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent, qid = stack[-1] if stack else (tracer._sweep or tracer._root or (0, None))
                sid = next(tracer._ids)
                stack.append((sid, qid))
                if key == SWEEP:
                    tracer._sweep = (sid, qid)
                start = time.perf_counter()
                try:
                    res = fn(*args, **kwargs)
                except BaseException as exc:
                    end = time.perf_counter()
                    tracer._close(stack, key, sid, start, end, parent, qid, f"raised {type(exc).__name__}")
                    raise
                end = time.perf_counter()
                tracer._close(stack, key, sid, start, end, parent, qid,
                              observe(args, kwargs, res) if observe else None)
                return res
            return wrapper
        return make

    def _close(self, stack, key, sid, start, end, parent, qid, note) -> None:
        stack.pop()
        if key == SWEEP:
            self._sweep = None
        self.spans.append(Span(sid, key, start, end, parent, qid, threading.get_ident(), note))

    def _count_wrapper(self, key: str) -> Callable:
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer._lock:
                    tracer.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def run_root(self, name: str, qid: str, fn: Callable):
        """Run fn under a root span for query qid: (result, error, seconds)."""
        sid = next(self._ids)
        stack = self._stack()
        self._root = (sid, qid)
        stack.append((sid, qid))
        start = time.perf_counter()
        res = err = None
        try:
            res = fn()
        except Exception as exc:  # the benchmark records failures, it does not stop
            err = exc
        end = time.perf_counter()
        stack.pop()
        self._root = None
        self.spans.append(Span(sid, name, start, end, 0, qid, threading.get_ident(), None))
        return res, err, end - start

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple:
        """(self time by span id, parallel overlap by span id)."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        self_t, overlap = {}, {}
        for s in self.spans:
            kids = sorted(((max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]))
            covered = 0.0
            cur_start = cur_end = None
            total = 0.0
            for a, b in kids:
                if b <= a:
                    continue
                total += b - a
                if cur_end is None or a > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = a, b
                else:
                    cur_end = max(cur_end, b)
            if cur_end is not None:
                covered += cur_end - cur_start
            self_t[s.sid] = (s.end - s.start) - covered
            overlap[s.sid] = total - covered
        return self_t, overlap

    def accounting_errors(self) -> List[str]:
        """Queries whose self times (less parallel overlap) miss the root's wall time."""
        self_t, overlap = self.self_times()
        per_query = defaultdict(float)
        roots = {}
        for s in self.spans:
            per_query[s.qid] += self_t[s.sid] - overlap[s.sid]
            if s.parent == 0:
                roots[s.qid] = s.end - s.start
        return [
            f"{qid}: self sum {per_query[qid]!r} != wall {wall!r}"
            for qid, wall in roots.items()
            if abs(per_query[qid] - wall) > 1e-9 * max(wall, 1e-6)
        ]

    def layer_metrics(self) -> Dict[str, dict]:
        """The per-layer metrics of BENCHMARK.json from the recorded spans."""
        self_t, _ = self.self_times()
        calls = defaultdict(int)
        selfs = defaultdict(float)
        notes = defaultdict(list)
        for s in self.spans:
            calls[s.name] += 1
            selfs[s.name] += self_t[s.sid]
            if s.note is not None and not isinstance(s.note, str):
                notes[s.name].append(s.note)
        m: Dict[str, dict] = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        def ratio(key, pred):
            vals = notes[key]
            return sum(1 for v in vals if pred(v)) / len(vals) if vals else 0.0

        for module, name in COUNTED:
            put(f"{module}.{name}.calls", self.counts[f"{module}.{name}"], "count")
        for module, name, observe in SPANNED:
            key = f"{module}.{name}"
            if module in ("generators", "cli") or key == "matrixio.save_matrix":
                continue
            put(f"{key}.calls", calls[key], "count")
            put(f"{key}.self_s", selfs[key], "s")
            if observe is _exact:
                put(f"{key}.exact_ratio", ratio(key, bool), "ratio")
            elif observe is _width:
                widths = notes[key]
                put(f"{key}.rel_width_mean", sum(widths) / len(widths) if widths else 0.0, "ratio")
            elif observe in (_decision, _member):
                put(f"{key}.undetermined_ratio", ratio(key, lambda v: v == "undetermined"), "ratio")
            elif observe is _truth:
                put(f"{key}.false_ratio", ratio(key, lambda v: not v), "ratio")
            elif observe is _file_bytes:
                put(f"{key}.bytes", sum(notes[key]), "bytes")
        put("generators.self_s", sum((v for k, v in selfs.items() if k.startswith("generators.")), 0.0), "s")
        put("matrixio.save_matrix.self_s", selfs["matrixio.save_matrix"], "s")
        for cmd in ("cmd_verify", "cmd_sweep", "cmd_check", "cmd_norm"):
            put(f"cli.{cmd}.self_s", selfs[f"cli.{cmd}"], "s")
        return m

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        self_t, _ = self.self_times()
        with open(path, "w", encoding="utf-8") as fp:
            for s in self.spans:
                fp.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "query": s.qid, "thread": s.thread,
                    "self_s": self_t[s.sid], "note": s.note,
                }) + "\n")
