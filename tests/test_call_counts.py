"""``tools/call_counts.py`` on one figure-trial: the rows add up to the total,
and a function's entries are what a counter wrapped around it sees."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "call_counts.py"

# the tool's set-up, then the entries of gram.is_unit_modulus by a wrapping
# counter on the figure-trial the tool counts for --seed 7
WRAPPED = f"""
import sys
sys.path.insert(0, {str(TOOL.parent)!r})
import call_counts
from risthp import gram
workload = call_counts.WORKLOADS["linear_zf"]
call_counts.sim.run(call_counts.figure_trial_config(workload, 0))
calls, unit_modulus = [], gram.is_unit_modulus
gram.is_unit_modulus = lambda z: calls.append(z) or unit_modulus(z)
call_counts.sim.run(call_counts.figure_trial_config(workload, call_counts.trial_seed(7, 0)))
print(len(calls))
"""


def _run(args):
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rows_sum_to_total():
    lines = _run([str(TOOL), "linear_zf", "--figure-trials", "1", "--seed", "7"]).splitlines()
    assert lines[0] == "workload linear_zf, 1 figure-trials from seed 7, calls per figure-trial"
    assert lines[1].split() == ["calls", "python", "entries", "c", "share", "function"]
    rows = [line.split(None, 5) for line in lines[2:]]
    assert rows[0][5] == "total"
    total = [float(x) for x in rows[0][:4]]
    assert total[0] == total[1] + total[3] > 0
    counts = [[float(x) for x in row[:4]] for row in rows[1:]]
    assert [sum(column) for column in zip(*counts)] == total
    names = [row[5] for row in rows[1:]]
    assert len(set(names)) == len(names)
    assert "baseline._sweep_phases_linear" in names
    assert [row[0] for row in counts] == sorted((row[0] for row in counts), reverse=True)
    # a row's Python calls hold its own entries and the helpers it calls
    assert all(entered <= python for _, python, entered, _ in counts)
    entries = dict(zip(names, (row[2] for row in counts)))
    assert entries["(outside risthp)"] == 0
    assert entries["gram.is_unit_modulus"] == int(_run(["-c", WRAPPED])) > 0
