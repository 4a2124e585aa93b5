"""scripts/ab.py: one short pair of this checkout against itself prints
every end-to-end metric (or, with --layers, every named layer cell),
writes nothing under bench/ or scripts/, and its gain rule needs both the
pair wins and the quartile gap."""

import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab.py"


def _module():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_one_pair_against_itself():
    bench_before = sorted(p.name for p in (ROOT / "bench").iterdir())
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", str(ROOT), "--pairs", "1", "--seed", "1",
         "--", "--workload", "stream-small", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    table = done.stdout.splitlines()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for name in names:
        assert any(line.startswith(name + " ") for line in table), name
    for side in ("parent", "change"):
        assert any(line.startswith(f"{side:6s} per run: wall") and ", cpu " in line for line in table)
    assert sorted(p.name for p in (ROOT / "bench").iterdir()) == bench_before


def test_layer_cells_against_itself():
    before = {d: sorted(p.name for p in (ROOT / d).iterdir()) for d in ("bench", "scripts")}
    cells = ["r4.best_norm_1.5_3", "c4.grid_stacked"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", str(ROOT), "--pairs", "1",
         "--layers", ",".join(cells), "--reps", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    table = done.stdout.splitlines()
    assert table[0].startswith("pair 1/1 parent first: ")
    assert "cpu parent -> change" in table[1]
    for cell in cells:
        [row] = [line for line in table[2:] if line.startswith(cell + " ")]
        assert " 0/1 " in row or " 1/1 " in row
        parent_cpu, change_cpu = row.rsplit(None, 3)[1::2]
        assert float(parent_cpu) > 0.0 and float(change_cpu) > 0.0
    assert {d: sorted(p.name for p in (ROOT / d).iterdir()) for d in before} == before


def test_gain_rule():
    ab = _module()
    lower = {"name": "query_p50_ms", "better": "lower", "bound": 0.25}
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    # better in 10 of 10 pairs and far below the parent's quartiles
    got = ab.judge(lower, parent, [v - 0.1 for v in parent])
    assert got["wins"] == 10 and got["resolved"] and not got["worse_than_bound"]
    # better in 8 of 10 pairs: not resolved, however large the gain
    change = [v - 0.1 for v in parent[:8]] + [v + 0.1 for v in parent[8:]]
    assert ab.judge(lower, parent, change)["resolved"] is False
    # better in every pair, but by less than the parent's quartile spread
    assert ab.judge(lower, parent, [v - 0.001 for v in parent])["resolved"] is False
    # a higher-is-better metric 30% down is worse than a 0.25 bound
    higher = {"name": "queries_per_s", "better": "higher", "bound": 0.25}
    got = ab.judge(higher, [100.0] * 3, [70.0] * 3)
    assert got["worse_than_bound"] and got["wins"] == 0 and got["ties"] == 0
    assert ab.judge(higher, [100.0] * 3, [100.0] * 3)["ties"] == 3
