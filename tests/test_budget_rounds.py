"""scripts/budget_rounds.py --tiny: every shape reported, no budgeted value
below the value of the sampling pass it replaced, and on the real 16 x 16
shape fewer misses against the long-ascent reference than the plain
estimate, after more than one fresh round."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "budget_rounds.py"


def test_tiny_study():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--tiny"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split()[:7] == ["shape", "points", "capped", "seconds", "<sampled", "plain>1e-4", "budget>1e-4"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:5]}
    assert sorted(rows) == ["c16", "c8", "r16", "r8"]
    for points, capped, _, below, plain, budgeted, *rounds in rows.values():
        assert int(below) == 0 and int(budgeted) <= int(plain)
        assert rounds[0] == points  # every estimated point runs a fresh round
        assert int(capped) > 0 or rounds[-1] == "0"
    assert len(rows["r16"][6:]) > 2 and int(rows["r16"][4]) > int(rows["r16"][5])
    assert lines[5] == "budgeted values more than 1e-09 below the sampled value:" and lines[6] == "  none"
