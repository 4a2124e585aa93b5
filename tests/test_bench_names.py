"""The benchmark's tracer wraps library functions by name: every name it
lists must exist, or every benchmark run fails at install time."""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_exist(monkeypatch):
    # tracing.py imports only the standard library; no bytecode is written
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [entry[:2] for entry in tracing.SPANNED + tracing.COUNTED]
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"pqnorm.{module}"), name)
    ]
    assert not missing
