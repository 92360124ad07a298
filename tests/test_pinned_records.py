"""``tools/pinned_records.py diff`` on hand-written records; no simulation runs."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pinned_records.py"


def _record(method, n_allocated, se, seed=0):
    return {"seed": seed, "n_blocked": 3, "sweep_name": "n_ris", "sweep_value": 16.0,
            "trial": 0, "method": method, "n_allocated": n_allocated,
            "sum_se_bits": float.hex(se)}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def _diff(a, b):
    return subprocess.run([sys.executable, str(TOOL), "diff", a, b],
                          capture_output=True, text=True)


def test_diff_counts_equal_records_allocation_changes_and_largest_delta(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record("thp", 4, 40.0), _record("dpc_rate", 6, 50.5),
                                      _record("linear_zf", 3, 30.25)])
    # same records in another order: one equal, one SE moved, one allocation changed
    b = _write(tmp_path / "b.jsonl", [_record("linear_zf", 2, 30.0), _record("thp", 4, 40.0),
                                      _record("dpc_rate", 6, 50.5 + 2.0 ** -40)])
    done = _diff(a, b)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:3] == ["records: 3", "equal: 1", "n_allocated changes: 1"]
    assert "method=linear_zf" in lines[3] and lines[3].endswith(": 3 -> 2")
    assert lines[4] == "max |dSE| bits: 0.25"


def test_diff_rejects_files_with_different_records(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record("thp", 4, 40.0, seed=s) for s in range(3)])
    b = _write(tmp_path / "b.jsonl", [_record("thp", 4, 40.0, seed=s) for s in (0, 1, 5)])
    done = _diff(a, b)
    assert done.returncode != 0
    assert "1 only in the first, 1 only in the second" in done.stderr
