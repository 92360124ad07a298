"""Methods that share a realization share its continuous phase solves.

The methods of one (sweep point, trial) cell of ``sim.run`` run on one
realization, which owns the table of their continuous phase solves
(``ChannelRealization.solves``, filled by ``alloc.optimize_phases``).
Reading a solve from it must give exactly what solving again gives, so one
run of all methods has to equal one run per method, record for record.
"""

import dataclasses

import numpy as np
import pytest

from risthp import alloc as A
from risthp import baseline as B
from risthp import phase_opt as P
from risthp import sim as S
from risthp.channel import ScenarioConfig, draw_realization

from conftest import random_realization


def _config(methods, **scenario):
    return S.RunConfig(ScenarioConfig(seed=0, **scenario), trials=1, methods=methods,
                       sweep_name="tx_dbm", sweep_values=(0.0, 50.0))


def _without_wall_time(records):
    return [dataclasses.replace(r, wall_time_ms=0.0) for r in records]


@pytest.mark.parametrize("n_blocked", [0, 3, 5])
@pytest.mark.parametrize("n_ris", [16, 64])
def test_joint_run_equals_one_run_per_method(n_ris, n_blocked):
    joint = _without_wall_time(S.run(_config(S.METHODS, n_ris=n_ris,
                                             n_blocked=n_blocked)))
    alone = _without_wall_time(sorted(
        (r for m in S.METHODS for r in S.run(_config((m,), n_ris=n_ris,
                                                      n_blocked=n_blocked))),
        key=lambda r: (r.sweep_value, r.trial, r.method)))
    assert joint == alone
    # at 50 dBm thp serves all users, so full-set subsets are in the table
    # under thp's greedy order as well as under dpc_rate's (0, ..., K-1)
    assert any(r.n_allocated == 6 for r in joint
               if (r.method, r.sweep_value) == ("thp", 50.0))


def test_shared_cell_solves_fewer_subsets(monkeypatch):
    calls = []
    refine = P.refine_elementwise

    def counted(*args, **kwargs):
        calls.append(args)
        return refine(*args, **kwargs)

    def count(methods):
        calls.clear()
        S.run(_config(methods, n_ris=16))
        return len(calls)

    monkeypatch.setattr(P, "refine_elementwise", counted)
    separate = count(("thp",)) + count(("thp_discrete",))
    assert count(("thp", "thp_discrete")) < separate


@pytest.mark.parametrize("phase_mode", ["continuous", "binary"])
def test_linear_step_reads_thp_solves(rng, monkeypatch, phase_mode):
    # linear ZF seeds its sweep from the table thp filled: no key is added
    # and no continuous or +-1 refinement runs again
    real = random_realization(rng, k=5, n_bs=4)
    subsets = [[2, 0, u] for u in (1, 3, 4)]
    A.evaluate_allocation(real, subsets, 3.0, "continuous")
    keys = list(real.solves)
    calls = []
    monkeypatch.setattr(P, "refine_elementwise", lambda *args: calls.append(args))
    step = B.evaluate_allocation_linear(real, subsets, 3.0, phase_mode)
    assert list(real.solves) == keys
    assert calls == []
    assert [sol.users for sol in step] == subsets


def test_stored_phases_are_read_only():
    scenario = ScenarioConfig(seed=0, n_ris=16)
    real = draw_realization(scenario, np.random.default_rng(0))
    out = A.greedy_allocate(real, scenario.tx_power / scenario.n_users, "continuous")
    assert real.solves
    for theta, g_mat in real.solves.values():
        with pytest.raises(ValueError):
            theta.theta[0] = 1.0
        with pytest.raises(ValueError):
            g_mat[0, 0] = 0.0
    with pytest.raises(ValueError):
        out.theta.theta[0] = 1.0


def test_replaced_realization_starts_empty_table():
    scenario = ScenarioConfig(seed=0, n_ris=16)
    real = draw_realization(scenario, np.random.default_rng(0))
    A.greedy_allocate(real, scenario.tx_power / scenario.n_users, "continuous")
    no_ris = dataclasses.replace(real, h_cascaded=np.zeros_like(real.h_cascaded))
    assert real.solves
    assert no_ris.solves == {}
    assert no_ris.solves is not real.solves


def test_solves_of_one_realization_do_not_reach_another():
    # the table is keyed by (users, p_bar), which does not name a channel:
    # a's solves read for b served b [5, 4, 3] for 57.76 bits
    scenario = ScenarioConfig(n_ris=16)
    p_bar = scenario.tx_power / scenario.n_users

    def draw(seed):
        return draw_realization(scenario, np.random.default_rng(seed))

    alone = A.greedy_allocate(draw(2), p_bar, "continuous")
    a, b = draw(1), draw(2)
    A.greedy_allocate(a, p_bar, "continuous")
    assert a.solves and not b.solves
    after = A.greedy_allocate(b, p_bar, "continuous")
    assert alone.users == after.users == [5, 4, 3, 1]
    assert after.se_exact == alone.se_exact


def test_continuous_solve_stored_under_users_and_power(rng):
    real = random_realization(rng, k=3, n_ris=8)
    theta, = A.optimize_phases(real, np.array([[2, 0]]), 10.0, "continuous")
    assert list(real.solves) == [((2, 0), 10.0)]
    stored, _ = real.solves[((2, 0), 10.0)]
    assert stored is theta
