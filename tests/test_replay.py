"""scripts/replay_verdicts.py: a replay diffed against itself shows no moves,
planted flips and moves are listed, rescaled, isometric and adjoint replays
move nothing, a sign-region replay flips nothing, and nothing is written
under bench/."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "replay_verdicts.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )


def test_replay_diffed_against_itself(tmp_path):
    bench_before = sorted(p.name for p in (ROOT / "bench").iterdir())
    out = tmp_path / "replay.json"
    done = _run("--seeds", "31", "-n", "20", "-o", str(out))
    assert done.returncode == 0, done.stderr
    records = json.loads(out.read_text())
    assert len(records) == 20
    keys = {"seed", "query", "desc", "decision", "certainty", "exact", "widths", "failures"}
    assert keys <= set(records[0])
    assert any(r["decision"] is not None for r in records)
    assert {r["certainty"] for r in records if r["desc"].startswith("check_")} <= {
        "exact", "estimate-backed"
    }
    assert any(r["exact"] for r in records)
    done = _run("--diff", str(out), str(out))
    assert done.returncode == 0, done.stderr
    assert "yes <-> no flips: 0\n" in done.stdout
    assert "decided <-> undetermined moves: 0\n" in done.stdout
    assert "certainty moves: 0\n" in done.stdout
    assert sorted(p.name for p in (ROOT / "bench").iterdir()) == bench_before
    # a planted yes <-> no flip, a decided -> undetermined move, and a
    # certainty move and an exactness move with the decision kept
    flipped = [dict(r) for r in records]
    decided = [r for r in flipped if r["decision"] in ("yes", "no")]
    decided[0]["decision"] = {"yes": "no", "no": "yes"}[decided[0]["decision"]]
    decided[1]["decision"] = "undetermined"
    decided[2]["certainty"] = "planted"
    decided[3]["exact"] = decided[3]["exact"] + [False]
    other = tmp_path / "flipped.json"
    other.write_text(json.dumps(flipped))
    done = _run("--diff", str(out), str(other))
    assert done.returncode == 1
    assert "yes <-> no flips: 1\n" in done.stdout
    assert "decided <-> undetermined moves: 1\n" in done.stdout
    assert "certainty moves: 2\n" in done.stdout


def test_scaled_replay_moves_nothing(tmp_path):
    # the same queries on 2^K' A, K' <= 1020: norms past the float range
    # fail the oracle's finiteness checks, but no decision or certainty moves
    plain, big = tmp_path / "plain.json", tmp_path / "big.json"
    assert _run("--seeds", "31", "-n", "40", "-o", str(plain)).returncode == 0
    done = _run("--seeds", "31", "-n", "40", "--scale", "1020", "-o", str(big))
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    done = _run("--diff", str(plain), str(big))
    assert done.returncode == 0, done.stdout
    assert "yes <-> no flips: 0\n" in done.stdout
    assert "decided <-> undetermined moves: 0\n" in done.stdout
    assert "certainty moves: 0\n" in done.stdout


def test_isometry_replay_moves_nothing(tmp_path):
    # the same queries on D1 P A Q D2 (seeded permutations, signs or unit
    # phases): every lp norm is invariant, so the oracle passes every query
    # against A's reference values and no decision or certainty moves
    plain, moved = tmp_path / "plain.json", tmp_path / "moved.json"
    assert _run("--seeds", "31", "-n", "40", "-o", str(plain)).returncode == 0
    done = _run("--seeds", "31", "-n", "40", "--isometry", "-o", str(moved))
    assert done.returncode == 0, done.stderr
    assert "oracle failures 0," in done.stdout
    # the map is applied: some bracket widths move in their last bits
    assert json.loads(plain.read_text()) != json.loads(moved.read_text())
    done = _run("--diff", str(plain), str(moved))
    assert done.returncode == 0, done.stdout
    assert "yes <-> no flips: 0\n" in done.stdout
    assert "decided <-> undetermined moves: 0\n" in done.stdout
    assert "certainty moves: 0\n" in done.stdout


def test_adjoint_replay_moves_nothing(tmp_path):
    # the same questions asked of A* at the conjugate exponents, with E_11
    # and E_inf,inf swapped: the oracle passes every query against A*'s
    # reference values and no decision or certainty moves
    plain, star = tmp_path / "plain.json", tmp_path / "star.json"
    assert _run("--seeds", "31", "-n", "40", "-o", str(plain)).returncode == 0
    done = _run("--seeds", "31", "-n", "40", "--adjoint", "-o", str(star))
    assert done.returncode == 0, done.stderr
    assert "oracle failures 0," in done.stdout
    assert json.loads(plain.read_text()) != json.loads(star.read_text())
    done = _run("--diff", str(plain), str(star))
    assert done.returncode == 0, done.stdout
    assert "yes <-> no flips: 0\n" in done.stdout
    assert "decided <-> undetermined moves: 0\n" in done.stdout
    assert "certainty moves: 0\n" in done.stdout
    refused = _run("--workload", "grid-shared", "--adjoint", "-o", str(star))
    assert refused.returncode == 2 and "stream-small queries only" in refused.stderr


def test_grid_shared_tiny_replay(tmp_path):
    # the CLI queries of the tiny grid-shared pass: exit codes and stdout
    # digests, the matrix files in a temporary directory, not under bench/
    bench_before = sorted(p.name for p in (ROOT / "bench").iterdir())
    out = tmp_path / "grid.json"
    done = _run("--workload", "grid-shared", "--tiny", "--seeds", "5", "-n", "12", "-o", str(out))
    assert done.returncode == 0, done.stderr
    records = json.loads(out.read_text())
    assert len(records) == 12
    assert {"seed", "query", "desc", "exit", "stdout", "widths", "failures"} <= set(records[0])
    assert all(r["desc"].startswith("pqnorm ") and "$TMP/" in r["desc"] for r in records)
    assert {r["exit"] for r in records} >= {0, 3}
    assert not any(r["failures"] for r in records)
    assert sorted(p.name for p in (ROOT / "bench").iterdir()) == bench_before
    done = _run("--diff", str(out), str(out))
    assert done.returncode == 0, done.stderr
    assert "exit-code moves: 0\n" in done.stdout
    assert "stdout changes: 0\n" in done.stdout
    # a planted exit-code move and a planted stdout change
    planted = [dict(r) for r in records]
    planted[0]["exit"] = 5
    planted[1]["stdout"] = "0" * 16
    other = tmp_path / "planted.json"
    other.write_text(json.dumps(planted))
    done = _run("--diff", str(out), str(other))
    assert done.returncode == 1
    assert "exit-code moves: 1\n" in done.stdout
    assert "stdout changes: 1\n" in done.stdout


def test_region_replay_flips_nothing(tmp_path):
    # each decide_equality query moved to another point of its sign region
    # (an exact representative where one exists): attainment depends on the
    # region alone, so no decided verdict flips; undetermined moves and
    # certainty moves are allowed, as the point's brackets change
    plain, region = tmp_path / "plain.json", tmp_path / "region.json"
    assert _run("--seeds", "31", "-n", "40", "-o", str(plain)).returncode == 0
    done = _run("--seeds", "31", "-n", "40", "--region", "-o", str(region))
    assert done.returncode == 0, done.stderr
    assert "oracle failures 0," in done.stdout
    moved = json.loads(region.read_text())
    assert [r["desc"] for r in json.loads(plain.read_text())] == [r["desc"] for r in moved]
    assert json.loads(plain.read_text()) != moved
    done = _run("--diff", str(plain), str(region))
    assert done.returncode == 0, done.stdout
    assert "yes <-> no flips: 0\n" in done.stdout
    refused = _run("--workload", "grid-shared", "--region", "-o", str(region))
    assert refused.returncode == 2 and "stream-small queries only" in refused.stderr
