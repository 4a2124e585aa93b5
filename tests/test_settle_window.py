"""scripts/settle_window.py --tiny: one small matrix of each kind, every
shape reported at the library's window and at 4, and no drop above 1e-6
of the library's window against a window of 10."""

import pathlib
import subprocess
import sys

from pqnorm.induced_norms import SETTLE_WINDOW

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "settle_window.py"


def test_tiny_study():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--tiny"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["shape", "W", "points", "col-iter", ">1e-9", ">1e-6", "worst", "drop"]
    rows = [line.split() for line in lines[1:11]]
    assert [(r[0], int(r[1])) for r in rows] == [
        (label, w) for label in ("r4", "c4", "r3x6", "dft4", "h8") for w in (SETTLE_WINDOW, 4)
    ]
    for label, window, points, ratio, over9, over6, _ in rows:
        assert int(points) > 0 and 0.0 < float(ratio) <= 1.0 and int(over9) >= 0
        if int(window) == SETTLE_WINDOW:
            assert int(over6) == 0, label
    assert lines[11].startswith("drops above 1e-9:")
