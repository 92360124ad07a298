"""``tools/pinned_records.py diff`` on hand-written records, and ``write`` on a tiny grid."""

import importlib.util
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


def test_diff_lists_nonfinite_records_and_reports_no_finite_maximum(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record("thp", 4, 40.0), _record("thp", 4, 41.0, seed=1),
                                      _record("linear_zf", 3, 30.25)])
    # the NaN delta comes after a finite one, where max() and min() would drop it
    b = _write(tmp_path / "b.jsonl", [_record("thp", 4, 40.5),
                                      _record("thp", 4, float("nan"), seed=1),
                                      _record("linear_zf", 3, 30.0)])
    done = _diff(a, b)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:4] == ["records: 3", "equal: 0", "n_allocated changes: 0",
                         "non-finite SE: 1"]
    assert "seed=1" in lines[4] and lines[4].endswith(": 41 -> nan")
    assert lines[5:] == ["max |dSE| bits: nan",
                         "per method: changed records, min and max dSE bits",
                         "  thp: 2 of 2, nan .. nan",
                         "  linear_zf: 1 of 1, -0.25 .. -0.25"]


def test_diff_counts_records_nonfinite_in_both_files(tmp_path):
    # a record NaN on both sides is not equal and is listed, not skipped
    records = [_record("thp", 4, float("nan"), seed=0), _record("thp", 4, 40.0, seed=1)]
    a = _write(tmp_path / "a.jsonl", records)
    b = _write(tmp_path / "b.jsonl", records[::-1])
    lines = _diff(a, b).stdout.splitlines()
    assert lines[:4] == ["records: 2", "equal: 1", "n_allocated changes: 0",
                         "non-finite SE: 1"]
    assert "seed=0" in lines[4] and lines[4].endswith(": nan -> nan")
    assert lines[5] == "max |dSE| bits: nan"


def _threads(threads):
    return {"blas_threads": threads}


def test_diff_refuses_files_written_at_different_thread_counts(tmp_path):
    records = [_record("thp", 4, 40.0)]
    a = _write(tmp_path / "a.jsonl", [_threads(1)] + records)
    b = _write(tmp_path / "b.jsonl", [_threads(2)] + records)
    done = _diff(a, b)
    assert done.returncode != 0
    assert f"{a} was written at 1 BLAS threads and {b} at 2" in done.stderr
    # one count, or a count not known on one side, is compared as before
    for header in ([_threads(1)], [_threads(None)], []):
        done = _diff(a, _write(tmp_path / "c.jsonl", header + records))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[:2] == ["records: 1", "equal: 1"]


def test_write_records_thread_count_first(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts bench/ on the path
    spec = importlib.util.spec_from_file_location("pinned_records", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SEEDS", (0,))
    monkeypatch.setattr(tool, "N_BLOCKED", (3,))
    monkeypatch.setattr(tool, "SWEEPS", (("n_ris", (4,), {}),))
    out = tmp_path / "grid.jsonl"
    tool.write(out)
    header, *records = [json.loads(line) for line in out.read_text().splitlines()]
    assert header == _threads(tool.benchenv._blas_threads_in_effect())
    from risthp.sim import METHODS
    assert sorted(r["method"] for r in records) == sorted(METHODS)
    assert all(r["sweep_value"] == 4 for r in records)
