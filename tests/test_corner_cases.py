"""Degenerate scenarios: every method returns a defined, finite result.

Covers fully and mostly blocked users, more users than BS antennas, a
single user, a single RIS element, zero and tiny angular spreads (rank-one
and nearly rank-one covariances) and extreme transmit powers, one trial
each at N_R = 16.
"""

import math

import pytest

from risthp import sim
from risthp.channel import ScenarioConfig

CASES = {
    "all_blocked": dict(n_blocked=6),
    "five_of_six_blocked": dict(n_blocked=5),
    "more_users_than_antennas": dict(n_users=8, n_bs=4),
    "single_user": dict(n_users=1, n_blocked=0),
    "single_ris_element": dict(n_ris=1),
    "zero_asd": dict(asd=0.0),
    "tiny_asd": dict(asd=1e-6),
    "tx_minus_20_dbm": dict(tx_dbm=-20.0),
    "tx_60_dbm": dict(tx_dbm=60.0),
    "tx_150_dbm_more_users": dict(n_users=8, n_bs=4, tx_dbm=150.0),
    "tx_200_dbm_zero_asd": dict(asd=0.0, tx_dbm=200.0),
}


@pytest.mark.parametrize("case", CASES)
def test_all_methods_defined(case):
    scenario = ScenarioConfig(seed=3, **{"n_ris": 16, **CASES[case]})
    records = sim.run(sim.RunConfig(scenario, trials=1, methods=sim.METHODS))
    assert sorted(r.method for r in records) == sorted(sim.METHODS)
    k, max_users = scenario.n_users, min(scenario.n_users, scenario.n_bs)
    for r in records:
        assert math.isfinite(r.sum_se_bits) and r.sum_se_bits >= 0.0, r
        if r.method == "dpc_rate":
            # DPC serves every user; it has no zero-forcing rank limit
            assert r.n_allocated == k, r
        else:
            assert 1 <= r.n_allocated <= max_users, r
