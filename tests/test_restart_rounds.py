"""scripts/restart_rounds.py --tiny: one small matrix of each kind, every
shape reported, no drop above 1e-6 against one round of the whole start
block, and no shape whose two rounds cost more column-iterations than one."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "restart_rounds.py"


def test_tiny_study():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--tiny"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["shape", "points", "round1", "col-iter", ">1e-9", ">1e-6", "worst", "drop"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:4]}
    assert sorted(rows) == ["c4", "dft4", "h8"]
    for points, share, ratio, over9, over6, _ in rows.values():
        assert int(points) == 35 and 0.0 <= float(share) <= 1.0 and 0.0 < float(ratio) <= 1.0
        assert int(over6) == 0 and int(over9) >= 0
    # complex Hadamard 8 sends some points to a second round
    assert float(rows["h8"][1]) > 0.0
    assert lines[-1].startswith("drops above 1e-9:") or lines[4] == "drops above 1e-9:"
