"""The benchmark's self-test passes against the library in this checkout.

``bench/selftest.py`` fails when a function the benchmark traces is no
longer defined, so a library change cannot silently break the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
