"""Methods that share a realization share its continuous phase solves.

The methods of one (sweep point, trial) cell of ``sim.run`` run on one
realization, which owns the table of their continuous phase solves
(``ChannelRealization.solves``, filled by ``alloc.optimize_phases``).
Reading a solve from it must give exactly what solving again gives, so one
run of all methods has to equal one run per method, record for record.
"""

import dataclasses
import math

import numpy as np
import pytest

from risthp import alloc as A
from risthp import baseline as B
from risthp import gram as G
from risthp import phase_opt as P
from risthp import sim as S
from risthp import thp as T
from risthp.channel import ChannelRealization, ScenarioConfig, draw_realization

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


def _count_decompositions(monkeypatch):
    """The shapes of the user arguments of every later ``gram.decompose`` call."""
    calls = []
    decompose = G.decompose

    def counted(real, users):
        calls.append(np.shape(users))
        return decompose(real, users)

    monkeypatch.setattr(G, "decompose", counted)
    return calls


@pytest.mark.parametrize("phase_mode", ["continuous", "binary"])
def test_linear_step_reads_thp_solves(rng, monkeypatch, phase_mode):
    # linear ZF seeds its sweep from the table thp filled, and sweeps and
    # scores on the stored decompositions: no key is added, nothing is
    # decomposed and no continuous or +-1 refinement runs again
    real = random_realization(rng, k=5, n_bs=4)
    subsets = [[2, 0, u] for u in (1, 3, 4)]
    A.evaluate_allocation([real], [subsets], 3.0, ["continuous"])
    keys = list(real.solves)
    decompositions = _count_decompositions(monkeypatch)
    calls = []
    monkeypatch.setattr(P, "refine_elementwise", lambda *args: calls.append(args))
    step = B.evaluate_allocation_linear(real, subsets, 3.0, phase_mode)
    assert list(real.solves) == keys
    assert decompositions == []
    assert calls == []
    assert [sol.users for sol in step] == subsets


def test_dpc_decomposes_once(rng, monkeypatch):
    # the solve's stacked decomposition serves dpc_sum_se; a second run
    # reads the table and decomposes nothing
    real = random_realization(rng, k=4, n_bs=4)
    calls = _count_decompositions(monkeypatch)
    first = S.run_methods(["dpc_rate"], real, 3.0, [np.random.default_rng(0)])[0]
    assert calls == [(1, 4)]
    assert S.run_methods(["dpc_rate"], real, 3.0, [np.random.default_rng(0)])[0] == first
    assert calls == [(1, 4)]


def test_stored_phases_are_read_only():
    scenario = ScenarioConfig(seed=0, n_ris=16)
    real = draw_realization(scenario, np.random.default_rng(0))
    out = A.greedy_allocate([real], scenario.tx_power / scenario.n_users, ["continuous"])[0]
    assert real.solves
    for theta, g_mat, dec in real.solves.values():
        lam, vecs = dec.eig
        for array in (theta.theta, lam, vecs):
            with pytest.raises(ValueError):
                array[0] = 1.0
        for array in (g_mat, dec.c_mat, dec.d_mat):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
    with pytest.raises(ValueError):
        out.theta.theta[0] = 1.0


def test_replaced_realization_starts_empty_table():
    scenario = ScenarioConfig(seed=0, n_ris=16)
    real = draw_realization(scenario, np.random.default_rng(0))
    A.greedy_allocate([real], scenario.tx_power / scenario.n_users, ["continuous"])
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

    alone = A.greedy_allocate([draw(2)], p_bar, ["continuous"])[0]
    a, b = draw(1), draw(2)
    A.greedy_allocate([a], p_bar, ["continuous"])
    assert a.solves and not b.solves
    after = A.greedy_allocate([b], p_bar, ["continuous"])[0]
    assert alone.users == after.users == [5, 4, 3, 1]
    assert after.se_exact == alone.se_exact


def test_continuous_solve_stored_under_users_and_power(rng):
    real = random_realization(rng, k=3, n_ris=8)
    solve, = A.optimize_phases(real, np.array([[2, 0]]), 10.0)
    assert list(real.solves) == [((2, 0), 10.0)]
    # the stored triple itself, not a copy, and its arrays are read-only
    assert solve is real.solves[((2, 0), 10.0)]
    theta, g_mat, dec = solve
    assert dec.users == (2, 0)
    for array in (theta.theta, g_mat, dec.c_mat, dec.d_mat, *dec.eig):
        assert not array.flags.writeable


def test_realization_is_immutable_from_construction():
    # rebinding the arrays after a thp run once left the stored phases stale:
    # scaling h_cascaded by 10 and b by 2, thp then ran with no error on a
    # non-unit b and gave 67.538 bits where it had given 59.343
    scenario = ScenarioConfig(seed=3, n_ris=16)
    p_bar = scenario.tx_power / scenario.n_users
    real = draw_realization(scenario, np.random.default_rng(0))
    assert not real.solves
    for name in ("h_direct", "h_cascaded", "b_vec"):
        array = getattr(real, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[:] *= 10.0
    first = S.run_methods(["thp"], real, p_bar, [None])[0]
    assert real.solves
    with pytest.raises(dataclasses.FrozenInstanceError):
        real.h_cascaded = real.h_cascaded * 10.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        real.b_vec = 2.0 * real.b_vec
    assert S.run_methods(["thp"], real, p_bar, [None])[0] == first
    scaled = dataclasses.replace(real, h_cascaded=real.h_cascaded * 10.0)
    h_cascaded = real.h_cascaded * 10.0
    fresh = ChannelRealization(real.h_direct, h_cascaded, real.b_vec)
    assert fresh.h_cascaded is h_cascaded and not h_cascaded.flags.writeable  # no copy
    assert not scaled.solves
    result = S.run_methods(["thp"], scaled, p_bar, [None])[0]
    assert result == S.run_methods(["thp"], fresh, p_bar, [None])[0] != first


THP_FAMILY = ("thp", "thp_discrete", "thp_no_ris", "thp_random")


@pytest.mark.parametrize("n_blocked, n_ris, tx_dbm, deficient",
                         [(0, 16, 30.0, False), (3, 8, 50.0, True)],
                         ids=["full_rank", "deficient_round"])
def test_thp_cell_orders_once_per_round(monkeypatch, n_blocked, n_ris, tx_dbm, deficient):
    # the THP methods of a cell run as lanes of one lockstep greedy: one
    # order_users call per round for all of them, and one re-order for each
    # round with a rank-deficient candidate
    order_users, evaluate = T.order_users, A.evaluate_allocation
    calls, raised, rounds = [], [], []

    def counted_order(h):
        calls.append(np.shape(h))
        try:
            return order_users(h)
        except T.RankDeficientError:
            raised.append(np.shape(h))
            raise

    def counted_round(real, *args):
        rounds.append(len(real))
        return evaluate(real, *args)

    monkeypatch.setattr(T, "order_users", counted_order)
    monkeypatch.setattr(A, "evaluate_allocation", counted_round)
    scenario = ScenarioConfig(seed=0, n_ris=n_ris, n_blocked=n_blocked, tx_dbm=tx_dbm)
    records = S.run(S.RunConfig(scenario, trials=1, methods=THP_FAMILY))
    cap = min(scenario.n_users, scenario.n_bs)
    # a lane evaluates one round per kept size, and one more unless it is full
    lane_rounds = sorted(r.n_allocated + (r.n_allocated < cap) for r in records)
    assert len(rounds) == lane_rounds[-1]
    assert rounds == [sum(n >= i for n in lane_rounds) for i in range(1, len(rounds) + 1)]
    assert rounds[0] == len(THP_FAMILY)
    assert len(calls) == len(rounds) + len(raised)
    assert bool(raised) is deficient
    assert calls[0] == (len(THP_FAMILY) * scenario.n_users, 1, scenario.n_bs)


def _eps_pair():
    """The two-user realization of ``sim._validate_checks`` whose pair is rank-deficient."""
    return ChannelRealization(np.array([[1.0, 0, 0], [1.0, 1e-3, 0]], dtype=complex),
                              np.full((2, 4), 100.0, dtype=complex), np.array([0, 0, 1.0]))


def test_deficient_lane_leaves_other_lane_alone(rng, monkeypatch):
    # one lane's pair is rank-deficient in the joined stack; it is infeasible
    # and the other lane's step and greedy are that lane's alone, bit for bit
    ones = P.PhaseConfig(np.ones(4))
    other = random_realization(rng, k=2, n_bs=3, n_ris=4)
    subsets = [[0, 1], [1, 0]]
    calls = []
    order_users = T.order_users

    def counted(h):
        calls.append(np.shape(h))
        return order_users(h)

    monkeypatch.setattr(T, "order_users", counted)
    joint = A.evaluate_allocation([_eps_pair(), other], [[[0, 1]], subsets], 1.0,
                                  [ones, "continuous"])
    assert calls == [(3, 2, 3), (2, 2, 3)]  # the joined stack, then its feasible rows
    monkeypatch.undo()
    assert isinstance(joint, A.Round) and not joint.feasible
    (pair,), step = joint
    assert not pair.feasible and pair.se_bound == -np.inf
    alone, = A.evaluate_allocation([dataclasses.replace(other)], [subsets], 1.0, ["continuous"])
    assert all(a.feasible for a in step)
    for a, b in zip(step, alone):
        assert a.users == b.users
        np.testing.assert_array_equal(a.order, b.order)
        np.testing.assert_array_equal(a.diag_l, b.diag_l)
        assert a.se_bound == b.se_bound

    blocked, kept = A.greedy_allocate([_eps_pair(), other], 1.0, [ones, "continuous"])
    assert len(blocked.users) == 1
    alone = A.greedy_allocate([dataclasses.replace(other)], 1.0, ["continuous"])[0]
    assert kept.users == alone.users and len(alone.users) == 2
    np.testing.assert_array_equal(kept.order, alone.order)
    np.testing.assert_array_equal(kept.diag_l, alone.diag_l)
    assert kept.se_bound == alone.se_bound


def test_lanes_must_stack(rng):
    real = random_realization(rng, k=3, n_bs=4)
    with pytest.raises(ValueError, match="one subset size"):
        A.evaluate_allocation([real, real], [[[0]], [[0, 1]]], 1.0, ["continuous"] * 2)
    with pytest.raises(ValueError, match="2 realizations, 1 steps and 2 phases"):
        A.evaluate_allocation([real, real], [[[0]]], 1.0, ["continuous"] * 2)
    with pytest.raises(ValueError, match="2 realizations and 1 phases"):
        A.greedy_allocate([real, real], 1.0, ["continuous"])
    with pytest.raises(ValueError, match="^lanes: no lanes to evaluate$"):
        A.evaluate_allocation([], [], 1.0, [])
    with pytest.raises(ValueError, match="^lanes: no lanes to evaluate$"):
        A.greedy_allocate([], 1.0, [])
    assert real.solves == {}


def test_thp_wall_time_is_an_equal_share():
    records = S.run(_config(S.METHODS, n_ris=16))
    for value in (0.0, 50.0):
        shares = {r.wall_time_ms for r in records
                  if r.method in THP_FAMILY and r.sweep_value == value}
        share, = shares  # one group, split equally
        assert math.isfinite(share) and share >= 0.0
    assert all(math.isfinite(r.wall_time_ms) and r.wall_time_ms >= 0.0 for r in records)


def test_run_methods_takes_one_family():
    scenario = ScenarioConfig(seed=0, n_ris=16)
    real = draw_realization(scenario, np.random.default_rng(0))
    p_bar = scenario.tx_power / scenario.n_users
    rngs = [np.random.default_rng(i) for i in range(2)]
    with pytest.raises(ValueError, match="not of one family"):
        S.run_methods(["thp", "dpc_rate"], real, p_bar, rngs)
    with pytest.raises(ValueError, match="unknown method 'thp_bogus'"):
        S.run_methods(["thp", "thp_bogus"], real, p_bar, rngs)
    with pytest.raises(ValueError, match="^methods: no methods to run$"):
        S.run_methods([], real, p_bar, [])
    assert real.solves == {}
    # a group's lanes give what each method gives alone
    group = S.run_methods(["thp", "thp_no_ris"], real, p_bar, rngs)
    alone = [S.run_methods([m], dataclasses.replace(real), p_bar,
                           [np.random.default_rng(i)])[0]
             for i, m in enumerate(["thp", "thp_no_ris"])]
    assert group == alone
