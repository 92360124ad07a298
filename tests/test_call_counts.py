"""``tools/call_counts.py`` on one figure-trial: the rows add up to the total."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "call_counts.py"


def test_rows_sum_to_total():
    done = subprocess.run([sys.executable, str(TOOL), "linear_zf", "--figure-trials", "1",
                           "--seed", "7"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload linear_zf, 1 figure-trials from seed 7, calls per figure-trial"
    rows = [line.split(None, 4) for line in lines[2:]]
    assert rows[0][4] == "total"
    total = [float(x) for x in rows[0][:3]]
    assert total[0] == total[1] + total[2] > 0
    counts = [[float(x) for x in row[:3]] for row in rows[1:]]
    assert [sum(column) for column in zip(*counts)] == total
    names = [row[4] for row in rows[1:]]
    assert len(set(names)) == len(names)
    assert "baseline._sweep_phases_linear" in names
    assert [row[0] for row in counts] == sorted((row[0] for row in counts), reverse=True)
