"""Golden results: a pinned seeded run must reproduce the checked-in CSV.

The CSV was written by ``sim.emit_csv`` (``wall_time_ms`` zeroed) for all
methods, ``ScenarioConfig(seed=11)``, two trials and the N_R sweep {16, 64}.
It pins the allocation sizes exactly, the sum SE to 1e-9 bits and, through
the random methods, the per-method seed derivation in ``sim.run``.  A change
that moves these numbers must regenerate the file and say why:

    PYTHONPATH=src python tools/pinned_records.py golden tests/data/golden_n_ris.csv
"""

import importlib.util
from pathlib import Path

import pytest

from risthp import sim
from risthp.channel import ScenarioConfig

GOLDEN = Path(__file__).parent / "data" / "golden_n_ris.csv"
TOOL = Path(__file__).resolve().parents[1] / "tools" / "pinned_records.py"


def assert_matches_golden(got):
    expected = sim.parse_csv(GOLDEN)
    assert len(got) == len(expected) == 32
    for g, e in zip(got, expected):
        assert (g.trial, g.method, g.sweep_name, g.sweep_value, g.n_allocated) == \
            (e.trial, e.method, e.sweep_name, e.sweep_value, e.n_allocated)
        assert g.sum_se_bits == pytest.approx(e.sum_se_bits, rel=0, abs=1e-9), \
            (g.trial, g.method, g.sweep_value)


def test_golden_results():
    config = sim.RunConfig(ScenarioConfig(seed=11), trials=2, methods=sim.METHODS,
                           sweep_name="n_ris", sweep_values=(16, 64))
    assert_matches_golden(sim.run(config))


def test_tool_writes_the_golden_file(tmp_path):
    spec = importlib.util.spec_from_file_location("pinned_records", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.golden(tmp_path / "golden.csv")
    got = sim.parse_csv(tmp_path / "golden.csv")
    assert all(rec.wall_time_ms == 0 for rec in got)
    assert_matches_golden(got)
