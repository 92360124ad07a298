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
    assert lines[5:] == ["per method: changed records, min and max dSE bits",
                         "  thp: 0 of 1, 0 .. 0",
                         "  dpc_rate: 1 of 1, 9.09e-13 .. 9.09e-13",
                         "  linear_zf: 1 of 1, -0.25 .. -0.25"]


def test_diff_per_method_counts_changes_and_delta_range(tmp_path):
    ses = (10.0, 20.0, 30.0, 40.0)
    a = _write(tmp_path / "a.jsonl",
               [_record(m, 4, se, seed=s) for s, se in enumerate(ses)
                for m in ("thp", "linear_zf")])
    # thp: two records move, one down and one up; linear_zf: all equal
    moved = {0: -0.5, 2: 0.125}
    b = _write(tmp_path / "b.jsonl",
               [_record(m, 4, se + (moved.get(s, 0.0) if m == "thp" else 0.0), seed=s)
                for s, se in enumerate(ses) for m in ("linear_zf", "thp")])
    done = _diff(a, b)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:3] == ["records: 8", "equal: 6", "n_allocated changes: 0"]
    assert lines[3:] == ["max |dSE| bits: 0.5",
                         "per method: changed records, min and max dSE bits",
                         "  thp: 2 of 4, -0.5 .. 0.125",
                         "  linear_zf: 0 of 4, 0 .. 0"]


def test_diff_rejects_files_with_different_records(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record("thp", 4, 40.0, seed=s) for s in range(3)])
    b = _write(tmp_path / "b.jsonl", [_record("thp", 4, 40.0, seed=s) for s in (0, 1, 5)])
    done = _diff(a, b)
    assert done.returncode != 0
    assert "1 only in the first, 1 only in the second" in done.stderr
