import dataclasses
import itertools
import math

import numpy as np
import pytest

from risthp import alloc as A, baseline as B, gram as G, phase_opt as P, thp as T
from risthp.channel import ScenarioConfig, draw_realization

from conftest import random_realization


class TestEvaluateAllocation:
    def test_single_user_bound(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        p_bar = 2.0
        out = A.evaluate_allocation(real, [[1]], p_bar, "continuous")[0]
        h = G.effective_channel(real, [1], out.theta.theta)
        expected = max(0.0, math.log2(
            6.0 * p_bar * np.linalg.norm(h) ** 2 / (math.pi * math.e)))
        assert out.se_bound == pytest.approx(expected, rel=1e-9)
        np.testing.assert_array_equal(out.order, [0])

    def test_nan_fixed_theta_rejected(self, rng):
        real = random_realization(rng)
        theta = P.PhaseConfig(np.ones(real.n_ris, dtype=complex))
        theta.theta[0] = np.nan  # past PhaseConfig's own check
        with pytest.raises(ValueError, match="unit modulus"):
            A.evaluate_allocation(real, [[0, 1]], 2.0, "continuous", fixed_theta=theta)

    def test_random_mode_needs_fixed_theta(self, rng):
        # random phases are drawn once, by greedy_allocate, never per subset
        real = random_realization(rng)
        with pytest.raises(ValueError, match="greedy_allocate"):
            A.evaluate_allocation(real, [[0, 2]], 3.0, "random")
        with pytest.raises(TypeError):
            A.evaluate_allocation(real, [[0, 2]], 3.0, "random",
                                  np.random.default_rng(9))
        with pytest.raises(ValueError, match="greedy_allocate"):
            A.optimize_phases(real, np.array([[0, 2]]), 3.0, "random")

    def test_zero_eig_matches_alignment(self, rng):
        real = random_realization(rng, k=2, n_bs=2, n_ris=6)
        p_bar = 5.0
        out = A.evaluate_allocation(real, [[0, 1]], p_bar, "continuous")[0]
        dec = G.decompose(real, [0, 1])
        u = P.zero_eig_direction(dec)
        aligned = P.align_phases(dec, u).theta
        obj_out = abs(u.conj() @ dec.d_mat
                      @ G.extend_theta(out.theta.theta)) ** 2
        obj_ref = abs(u.conj() @ dec.d_mat @ G.extend_theta(aligned)) ** 2
        assert obj_out == pytest.approx(obj_ref, rel=1e-9)

    def test_binary_mode_alphabet(self, rng):
        real = random_realization(rng)
        out = A.evaluate_allocation(real, [[0, 1]], 3.0, "binary")[0]
        assert out.theta.alphabet == "binary"
        assert np.all(np.isin(out.theta.theta, [-1.0 + 0j, 1.0 + 0j]))

    def test_too_many_users(self, rng):
        real = random_realization(rng, k=5, n_bs=3)
        with pytest.raises(ValueError):
            A.evaluate_allocation(real, [range(5)], 1.0, "continuous")

    def test_infeasible_colinear(self, rng):
        real = random_realization(rng, k=2, n_bs=4)
        real.h_direct[1] = real.h_direct[0]
        real.h_cascaded[1] = real.h_cascaded[0]
        out = A.evaluate_allocation(real, [[0, 1]], 1.0, "continuous")[0]
        assert out.se_bound == -np.inf
        assert not out.feasible
        assert out.se_exact == 0.0

    @pytest.mark.parametrize("colinear", [False, True], ids=["feasible", "deficient"])
    def test_feasible_is_bool(self, rng, colinear):
        real = random_realization(rng, k=2, n_bs=4)
        if colinear:
            real.h_direct[1] = real.h_direct[0]
            real.h_cascaded[1] = real.h_cascaded[0]
        out = A.evaluate_allocation(real, [[0, 1]], 1.0, "continuous")[0]
        assert type(out.feasible) is bool
        assert out.feasible is (not colinear)

    @pytest.mark.parametrize("colinear", [False, True], ids=["feasible", "deficient"])
    def test_one_rank_test_per_candidate(self, rng, monkeypatch, colinear):
        # one batched rank test covers every candidate of a step; a deficient
        # candidate costs one more, on the stack of the others
        real = random_realization(rng, k=4, n_bs=4)
        if colinear:
            real.h_direct[1] = real.h_direct[0]
            real.h_cascaded[1] = real.h_cascaded[0]
        calls = []
        check = T.check_full_row_rank

        def counted(h, *args, **kwargs):
            calls.append(np.shape(h))
            return check(h, *args, **kwargs)

        monkeypatch.setattr(T, "check_full_row_rank", counted)
        out = A.evaluate_allocation(real, [[0, 1, 2], [0, 2, 3], [0, 1, 3]], 1.0,
                                    "continuous")
        assert calls == ([(3, 3, 4)] if not colinear else [(3, 3, 4), (1, 3, 4)])
        assert all(isinstance(a, A.Allocation) for a in out)
        assert [a.feasible for a in out] == [not colinear, True, not colinear]


    def test_step_matches_single_subsets(self, rng):
        real = random_realization(rng, k=4, n_bs=4)
        subsets = [[2, 0], [2, 1], [2, 3]]
        step = A.evaluate_allocation(real, subsets, 3.0, "continuous")
        assert isinstance(step, A.Step) and len(step) == 3 and step.feasible
        for users, out in zip(subsets, step):
            alone = A.evaluate_allocation(real, [users], 3.0, "continuous")[0]
            assert out.users == users
            np.testing.assert_array_equal(out.theta.theta, alone.theta.theta)
            np.testing.assert_array_equal(out.order, alone.order)
            np.testing.assert_array_equal(out.diag_l, alone.diag_l)
            assert out.se_bound == alone.se_bound

    @pytest.mark.parametrize("subsets", [[], [[0], [0, 1]], [[0, 1], [2]]],
                             ids=["empty", "growing", "shrinking"])
    def test_step_of_one_size(self, rng, subsets):
        real = random_realization(rng)
        with pytest.raises(ValueError, match="subsets"):
            A.evaluate_allocation(real, subsets, 2.0, "continuous")

    def test_deficient_candidate_alone_infeasible(self, rng):
        real = random_realization(rng, k=4, n_bs=4)
        real.h_direct[3] = real.h_direct[1]
        real.h_cascaded[3] = real.h_cascaded[1]
        step = A.evaluate_allocation(real, [[1, 0], [1, 2], [1, 3]], 2.0, "continuous")
        assert [a.feasible for a in step] == [True, True, False]
        assert not step.feasible
        for users, out in zip([[1, 0], [1, 2]], step):
            alone = A.evaluate_allocation(real, [users], 2.0, "continuous")[0]
            np.testing.assert_array_equal(out.diag_l, alone.diag_l)

    def test_every_candidate_deficient(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        real.h_direct[1:] = real.h_direct[0]
        real.h_cascaded[1:] = real.h_cascaded[0]
        step = A.evaluate_allocation(real, [[0, 1], [0, 2]], 2.0, "continuous")
        assert [a.se_bound for a in step] == [-np.inf, -np.inf]


def _stored_alone(real, subsets, p_bar):
    """The (theta, G) that one-subset ``optimize_phases`` calls store."""
    alone = dataclasses.replace(real)  # an empty table
    for users in subsets:
        A.optimize_phases(alone, np.array([users]), p_bar, "continuous")
    return alone.solves


class TestStackedSolve:
    """A step's misses are solved as one stack and stored as single calls store them."""

    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_random_stacks_match_single_calls(self, rng, c, k):
        real = random_realization(rng, k=8, n_bs=6, n_ris=12)
        subsets = [list(users) for users in
                   {tuple(rng.permutation(8)[:k].tolist()) for _ in range(c)}]
        step = A.evaluate_allocation(real, subsets, 4.0, "continuous")
        alone = _stored_alone(real, subsets, 4.0)
        assert real.solves.keys() == alone.keys()
        for users, out in zip(subsets, step):
            theta, g_mat = real.solves[(tuple(users), 4.0)]
            theta_1, g_1 = alone[(tuple(users), 4.0)]
            np.testing.assert_array_equal(theta.theta, theta_1.theta)
            np.testing.assert_array_equal(g_mat, g_1)
            assert out.theta is theta

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("tx_dbm", [0.0, 30.0, 50.0])
    def test_pinned_greedy_stores_single_call_solves(self, seed, tx_dbm):
        scenario = ScenarioConfig(seed=seed, n_ris=16, tx_dbm=tx_dbm)
        real = draw_realization(scenario, np.random.default_rng(seed))
        p_bar = scenario.tx_power / scenario.n_users
        A.greedy_allocate(real, p_bar, "continuous")
        alone = _stored_alone(real, [list(users) for users, _ in real.solves], p_bar)
        assert real.solves.keys() == alone.keys()
        for key, (theta, g_mat) in real.solves.items():
            np.testing.assert_array_equal(theta.theta, alone[key][0].theta)
            np.testing.assert_array_equal(g_mat, alone[key][1])

    def test_mixed_branches_match_single_calls(self, rng, monkeypatch):
        # user 3 has no direct channel: C of a subset holding it has exactly
        # one zero eigenvalue (alignment), the others none (heuristic)
        real = random_realization(rng, k=4, n_bs=4, n_ris=6)
        real.h_direct[3] = 0.0
        branches = []
        for name in ("align_phases", "heuristic_phases"):
            def counted(*args, _name=name, _fn=getattr(P, name)):
                out = _fn(*args)
                branches.append((_name, out.theta.shape[0]))
                return out
            monkeypatch.setattr(P, name, counted)
        subsets = [[0, 1], [0, 3], [0, 2], [3, 1]]
        step = A.evaluate_allocation(real, subsets, 2.0, "continuous")
        assert branches == [("align_phases", 2), ("heuristic_phases", 2)]
        monkeypatch.undo()
        alone = _stored_alone(real, subsets, 2.0)
        for users, out in zip(subsets, step):
            theta_1, g_1 = alone[(tuple(users), 2.0)]
            np.testing.assert_array_equal(out.theta.theta, theta_1.theta)
            np.testing.assert_array_equal(real.solves[(tuple(users), 2.0)][1], g_1)
            assert g_1.shape[0] == (1 if 3 in users else 2)

    def test_solved_step_decomposes_nothing(self, rng, monkeypatch):
        # thp_discrete after thp: the table holds every subset, binary needs only G
        real = random_realization(rng, k=5, n_bs=4)
        subsets = [[2, 0, u] for u in (1, 3, 4)]
        calls = []
        decompose = G.decompose

        def counted(real, users):
            calls.append(np.shape(users))
            return decompose(real, users)

        monkeypatch.setattr(G, "decompose", counted)
        A.evaluate_allocation(real, subsets[:1], 3.0, "continuous")
        A.evaluate_allocation(real, subsets, 3.0, "continuous")
        assert calls == [(1, 3), (2, 3)]  # one stack per step, of its misses only
        calls.clear()
        step = A.evaluate_allocation(real, subsets, 3.0, "binary")
        assert calls == []
        assert all(out.theta.alphabet == "binary" for out in step)

    def test_batched_channel_matches_per_subset(self, rng, monkeypatch):
        real = random_realization(rng, k=5, n_bs=4)
        subsets = [[2, 0, u] for u in (1, 3, 4)]
        fixed = P.random_phases(real.n_ris, rng)
        for fixed_theta in (None, fixed):
            channels = []
            effective = G.effective_channel

            def kept(real, users, theta):
                channels.append(effective(real, users, theta))
                return channels[-1]

            monkeypatch.setattr(G, "effective_channel", kept)
            step = A.evaluate_allocation(real, subsets, 3.0, "continuous",
                                         fixed_theta=fixed_theta)
            monkeypatch.undo()
            assert len(channels) == 1
            for users, out, h in zip(subsets, step, channels[0]):
                np.testing.assert_array_equal(
                    h, G.effective_channel(real, users, out.theta.theta))


class TestUserIndices:
    """Bad user indices raise ValueError naming them, in both families."""

    @pytest.mark.parametrize("bad", [-1, 6, 1.0, True, np.bool_(True), "1"],
                             ids=["negative", "K", "float", "bool", "numpy_bool", "str"])
    @pytest.mark.parametrize("phase_mode", ["continuous", "random"])
    def test_rejected(self, rng, bad, phase_mode):
        real = random_realization(rng, k=6, n_bs=6)
        fixed = (P.PhaseConfig(np.ones(real.n_ris, dtype=complex))
                 if phase_mode == "random" else None)
        with pytest.raises(ValueError, match=f"user index {bad!r} "):
            A.evaluate_allocation(real, [[0, bad]], 2.0, phase_mode, fixed_theta=fixed)
        with pytest.raises(ValueError, match=f"user index {bad!r} "):
            B.evaluate_allocation_linear(real, [[0, bad]], 2.0, phase_mode,
                                         fixed_theta=fixed)
        assert real.solves == {}

    @pytest.mark.parametrize("bad", [-1, 6, 1.0, True, np.bool_(True), "1"],
                             ids=["negative", "K", "float", "bool", "numpy_bool", "str"])
    def test_checked_before_any_solve(self, rng, bad):
        # the valid first subset is neither solved nor stored
        real = random_realization(rng, k=6, n_bs=6)
        with pytest.raises(ValueError, match=f"user index {bad!r} "):
            B.evaluate_allocation_linear(real, [[0, 1], [0, bad]], 2.0, "continuous")
        assert real.solves == {}

    @pytest.mark.parametrize("evaluate", [A.evaluate_allocation, B.evaluate_allocation_linear],
                             ids=["thp", "linear"])
    def test_step_of_one_size(self, rng, evaluate):
        real = random_realization(rng, k=6, n_bs=6)
        with pytest.raises(ValueError, match="same size"):
            evaluate(real, [[0, 1], [0, 1, 2]], 2.0, "continuous")
        assert real.solves == {}

    def test_numpy_integers_accepted(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        plain = A.evaluate_allocation(real, [[0, 2]], 2.0, "continuous")[0]
        numpy = A.evaluate_allocation(real, [np.array([0, 2])], 2.0, "continuous")[0]
        assert numpy.se_bound == plain.se_bound
        assert len(real.solves) == 1
        linear, = B.evaluate_allocation_linear(real, [np.array([0, 2])], 2.0, "continuous")
        assert linear.feasible

    def test_duplicate_user_infeasible(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        assert not A.evaluate_allocation(real, [[1, 1]], 2.0, "continuous")[0].feasible
        assert not B.evaluate_allocation_linear(real, [[1, 1]], 2.0, "continuous")[0].feasible


class TestGreedyAllocate:
    def test_random_mode_needs_rng(self, rng):
        real = random_realization(rng)
        with pytest.raises(ValueError, match="random phases need an rng"):
            A.greedy_allocate(real, 2.0, "random")

    def test_low_power_single_user(self, rng):
        # power so small that every multi-user bound loses to the best single
        real = random_realization(rng, k=3, n_bs=4)
        p_bar = 1e-4
        out = A.greedy_allocate(real, p_bar, "continuous")
        best_single = max(
            A.evaluate_allocation(real, [[u]], p_bar, "continuous")[0].se_bound
            for u in range(3))
        assert len(out.users) == 1
        assert out.se_bound == pytest.approx(best_single, rel=1e-9)
        # exhaustive check that no subset does better
        for size in (2, 3):
            for users in itertools.combinations(range(3), size):
                cand = A.evaluate_allocation(real, [list(users)], p_bar,
                                             "continuous")[0]
                assert cand.se_bound <= out.se_bound + 1e-9

    def test_rank_improvement_one_blocked_user(self, rng):
        for trial in range(20):
            r = np.random.default_rng(trial)
            real = random_realization(r, k=5, n_bs=5, n_ris=8,
                                      blocked=(0, 1, 2))
            out = A.greedy_allocate(real, 100.0, "continuous")
            n_blocked = sum(u in (0, 1, 2) for u in out.users)
            assert n_blocked <= 1

    def test_well_conditioned_allocates_all(self, rng):
        real = random_realization(rng, k=4, n_bs=4)
        real.h_direct *= 10.0  # well conditioned, high effective power
        out = A.greedy_allocate(real, 1e4, "continuous")
        assert len(out.users) == 4

    def test_bound_not_above_exhaustive(self, rng):
        real = random_realization(rng, k=4, n_bs=4)
        p_bar = 50.0
        out = A.greedy_allocate(real, p_bar, "continuous")
        best = -np.inf
        for size in range(1, 5):
            for users in itertools.combinations(range(4), size):
                best = max(best, A.evaluate_allocation(
                    real, [list(users)], p_bar, "continuous")[0].se_bound)
        assert out.se_bound <= best + 1e-9

    def test_deterministic(self, rng):
        real = random_realization(rng)
        o1 = A.greedy_allocate(real, 5.0, "random", np.random.default_rng(3))
        o2 = A.greedy_allocate(real, 5.0, "random", np.random.default_rng(3))
        assert o1.users == o2.users
        assert o1.se_bound == o2.se_bound

    def test_size_capped_by_antennas(self, rng):
        real = random_realization(rng, k=5, n_bs=3)
        out = A.greedy_allocate(real, 1e4, "continuous")
        assert len(out.users) <= 3

    @pytest.mark.parametrize("phase_mode", ["continuous", "random"])
    def test_exact_se_only_for_returned_allocation(self, rng, monkeypatch, phase_mode):
        # candidates are ranked by the bound; the entropy integral runs only
        # when the kept allocation's se_exact is read, once per user
        real = random_realization(rng, k=4, n_bs=4)
        calls = []
        entropy = T.wrapped_noise_entropy

        def counted(*args, **kwargs):
            calls.append(args)
            return entropy(*args, **kwargs)

        monkeypatch.setattr(T, "wrapped_noise_entropy", counted)
        out = A.greedy_allocate(real, 50.0, phase_mode, np.random.default_rng(3))
        assert calls == []
        se = out.se_exact
        assert len(calls) == len(out.users) >= 2
        assert se > 0.0


class TestBoundMonotone:
    def test_greedy_bound_nondecreasing(self, rng):
        # replay the greedy trajectory and check the bound never drops
        real = random_realization(rng, k=4, n_bs=5)
        p_bar = 20.0
        out = A.greedy_allocate(real, p_bar, "continuous")
        prev = -np.inf
        for size in range(1, len(out.users) + 1):
            cand = A.evaluate_allocation(real, [out.users[:size]], p_bar,
                                         "continuous")[0]
            assert cand.se_bound >= prev - 1e-9
            prev = cand.se_bound


def _reference_order_users(h):
    """The per-candidate ordering: a QR of the unplaced rows at every step."""
    r = T.lq_decompose(h)[0].conj().T
    remaining = list(range(h.shape[0]))
    order, diag_l = np.empty(len(remaining), dtype=int), np.empty(len(remaining))
    for pos in range(len(remaining) - 1, -1, -1):
        inv_diag = np.sum(np.abs(np.linalg.inv(r)) ** 2, axis=1)
        best = int(np.argmin(inv_diag))
        order[pos], diag_l[pos] = remaining.pop(best), inv_diag[best] ** -0.5
        if remaining:
            r = np.linalg.qr(h[remaining].conj().T, mode="r")
    return order, diag_l


def _reference_greedy(real, p_bar, phase_mode, rng):
    """The greedy loop with each candidate phased, ordered and bounded alone.

    Returns the kept (users, order, se_bound).
    """
    fixed = P.random_phases(real.n_ris, rng) if phase_mode == "random" else None

    def solve(users):
        theta = fixed if fixed is not None else A.optimize_phases(
            real, np.array([users]), p_bar, phase_mode)[0]
        try:
            order, diag_l = _reference_order_users(
                G.effective_channel(real, users, theta.theta))
        except T.RankDeficientError:
            return users, None, -np.inf
        return users, order, sum(max(0.0, T.per_user_se(l, p_bar, "asymptote"))
                                 for l in diag_l)

    k = real.n_users
    best = max((solve([u]) for u in range(k)), key=lambda c: c[2])
    while len(best[0]) < min(k, real.n_bs):
        step = max((solve(best[0] + [u]) for u in range(k) if u not in best[0]),
                   key=lambda c: c[2])
        if step[2] <= best[2]:
            break
        best = step
    return best


class TestStackedGreedy:
    """The stacked greedy keeps the per-candidate greedy's choices."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("tx_dbm", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize("phase_mode", ["continuous", "binary", "random", "no_ris"])
    def test_matches_per_candidate_greedy(self, seed, tx_dbm, phase_mode):
        scenario = ScenarioConfig(seed=seed, n_ris=16, tx_dbm=tx_dbm)
        real = draw_realization(scenario, np.random.default_rng(seed))
        if phase_mode == "no_ris":
            real = dataclasses.replace(real, h_cascaded=np.zeros_like(real.h_cascaded))
            phase_mode = "random"
        p_bar = scenario.tx_power / scenario.n_users
        out = A.greedy_allocate(real, p_bar, phase_mode, np.random.default_rng(seed))
        users, order, bound = _reference_greedy(
            dataclasses.replace(real), p_bar, phase_mode, np.random.default_rng(seed))
        assert out.users == users
        np.testing.assert_array_equal(out.order, order)
        assert out.se_bound == pytest.approx(bound, rel=1e-12, abs=0)
