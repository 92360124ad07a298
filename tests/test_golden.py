"""Golden results: a pinned seeded run must reproduce the checked-in CSV.

The CSV was written by ``sim.emit_csv`` (``wall_time_ms`` zeroed) for all
methods, ``ScenarioConfig(seed=11)``, two trials and the N_R sweep {16, 64}.
It pins the allocation sizes exactly, the sum SE to 1e-9 bits and, through
the random methods, the per-method seed derivation in ``sim.run``.  A change
that moves these numbers must regenerate the file and say why.
"""

from pathlib import Path

import pytest

from risthp import sim
from risthp.channel import ScenarioConfig

GOLDEN = Path(__file__).parent / "data" / "golden_n_ris.csv"


def test_golden_results():
    expected = sim.parse_csv(GOLDEN)
    config = sim.RunConfig(ScenarioConfig(seed=11), trials=2, methods=sim.METHODS,
                           sweep_name="n_ris", sweep_values=(16, 64))
    got = sim.run(config)
    assert len(got) == len(expected) == 32
    for g, e in zip(got, expected):
        assert (g.trial, g.method, g.sweep_name, g.sweep_value, g.n_allocated) == \
            (e.trial, e.method, e.sweep_name, e.sweep_value, e.n_allocated)
        assert g.sum_se_bits == pytest.approx(e.sum_se_bits, rel=0, abs=1e-9), \
            (g.trial, g.method, g.sweep_value)
