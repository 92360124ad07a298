import itertools
import math

import numpy as np
import pytest

from risthp import alloc as A, gram as G, phase_opt as P, thp as T

from conftest import random_realization


class TestEvaluateAllocation:
    def test_single_user_bound(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        p_bar = 2.0
        out = A.evaluate_allocation(real, [1], p_bar, "continuous")
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
            A.evaluate_allocation(real, [0, 1], 2.0, "continuous", fixed_theta=theta)

    def test_random_mode_needs_fixed_theta(self, rng):
        # random phases are drawn once, by greedy_allocate, never per subset
        real = random_realization(rng)
        with pytest.raises(ValueError, match="greedy_allocate"):
            A.evaluate_allocation(real, [0, 2], 3.0, "random")
        with pytest.raises(TypeError):
            A.evaluate_allocation(real, [0, 2], 3.0, "random",
                                  np.random.default_rng(9))
        with pytest.raises(ValueError, match="greedy_allocate"):
            A.optimize_phases(G.decompose(real, [0, 2]), 3.0, "random")

    def test_zero_eig_matches_alignment(self, rng):
        real = random_realization(rng, k=2, n_bs=2, n_ris=6)
        p_bar = 5.0
        out = A.evaluate_allocation(real, [0, 1], p_bar, "continuous")
        dec = G.decompose(real, [0, 1])
        u = P.zero_eig_direction(dec)
        aligned = P.align_phases(dec, u).theta
        obj_out = abs(u.conj() @ dec.d_mat
                      @ G.extend_theta(out.theta.theta)) ** 2
        obj_ref = abs(u.conj() @ dec.d_mat @ G.extend_theta(aligned)) ** 2
        assert obj_out == pytest.approx(obj_ref, rel=1e-9)

    def test_binary_mode_alphabet(self, rng):
        real = random_realization(rng)
        out = A.evaluate_allocation(real, [0, 1], 3.0, "binary")
        assert out.theta.alphabet == "binary"
        assert np.all(np.isin(out.theta.theta, [-1.0 + 0j, 1.0 + 0j]))

    def test_too_many_users(self, rng):
        real = random_realization(rng, k=5, n_bs=3)
        with pytest.raises(ValueError):
            A.evaluate_allocation(real, range(5), 1.0, "continuous")

    def test_infeasible_colinear(self, rng):
        real = random_realization(rng, k=2, n_bs=4)
        real.h_direct[1] = real.h_direct[0]
        real.h_cascaded[1] = real.h_cascaded[0]
        out = A.evaluate_allocation(real, [0, 1], 1.0, "continuous")
        assert out.se_bound == -np.inf
        assert not out.feasible
        assert out.se_exact == 0.0

    @pytest.mark.parametrize("colinear", [False, True], ids=["feasible", "deficient"])
    def test_feasible_is_bool(self, rng, colinear):
        real = random_realization(rng, k=2, n_bs=4)
        if colinear:
            real.h_direct[1] = real.h_direct[0]
            real.h_cascaded[1] = real.h_cascaded[0]
        out = A.evaluate_allocation(real, [0, 1], 1.0, "continuous")
        assert type(out.feasible) is bool
        assert out.feasible is (not colinear)

    @pytest.mark.parametrize("colinear", [False, True], ids=["feasible", "deficient"])
    def test_one_rank_test_per_candidate(self, rng, monkeypatch, colinear):
        real = random_realization(rng, k=3, n_bs=4)
        if colinear:
            real.h_direct[1] = real.h_direct[0]
            real.h_cascaded[1] = real.h_cascaded[0]
        calls = []
        check = T.check_full_row_rank

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(T, "check_full_row_rank", counted)
        out = A.evaluate_allocation(real, [0, 1, 2], 1.0, "continuous")
        assert len(calls) == 1
        assert isinstance(out, A.Allocation) and out.feasible == (not colinear)


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
            A.evaluate_allocation(real, [u], p_bar, "continuous").se_bound
            for u in range(3))
        assert len(out.users) == 1
        assert out.se_bound == pytest.approx(best_single, rel=1e-9)
        # exhaustive check that no subset does better
        for size in (2, 3):
            for users in itertools.combinations(range(3), size):
                cand = A.evaluate_allocation(real, list(users), p_bar,
                                             "continuous")
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
                    real, list(users), p_bar, "continuous").se_bound)
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
            cand = A.evaluate_allocation(real, out.users[:size], p_bar,
                                         "continuous")
            assert cand.se_bound >= prev - 1e-9
            prev = cand.se_bound
