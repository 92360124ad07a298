import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from risthp import alloc as A, baseline as B, gram as G, phase_opt as P, thp as T
from risthp.channel import ScenarioConfig, draw_realization

from conftest import edited, random_realization


def _evaluate_thp(real, subsets, p_bar, phases):
    """``A.evaluate_allocation`` on one lane, in the form of ``B.evaluate_allocation_linear``."""
    return A.evaluate_allocation([real], [subsets], p_bar, [phases])[0]


def _copy_user(dst, src):
    """An ``edited`` edit: the users ``dst`` take the direct and cascaded rows of user ``src``."""
    def edit(h_d, h_c, b):
        h_d[dst] = h_d[src]
        h_c[dst] = h_c[src]
    return edit


def _zero_direct(user):
    """An ``edited`` edit: ``user`` has no direct channel."""
    def edit(h_d, h_c, b):
        h_d[user] = 0.0
    return edit


class TestEvaluateAllocation:
    def test_single_user_bound(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        p_bar = 2.0
        out = A.evaluate_allocation([real], [[[1]]], p_bar, ["continuous"])[0][0]
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
            A.evaluate_allocation([real], [[[0, 1]]], 2.0, [theta])

    def test_random_mode_needs_fixed_theta(self, rng):
        # random phases come as one PhaseConfig, drawn by phase_opt.random_phases
        # (TestPhases: "random" itself is rejected); there is no fixed_theta
        real = random_realization(rng)
        fixed = P.random_phases(real.n_ris, np.random.default_rng(9))
        with pytest.raises(TypeError):
            A.evaluate_allocation([real], [[[0, 2]]], 3.0, ["bogus"], fixed_theta=fixed)
        step = A.evaluate_allocation([real], [[[0, 2]]], 3.0, [fixed])[0]
        assert step[0].theta is fixed

    def test_zero_eig_matches_alignment(self, rng):
        real = random_realization(rng, k=2, n_bs=2, n_ris=6)
        p_bar = 5.0
        out = A.evaluate_allocation([real], [[[0, 1]]], p_bar, ["continuous"])[0][0]
        dec = G.decompose(real, [0, 1])
        u = P.zero_eig_direction(dec)
        aligned = P.align_phases(dec, u).theta
        obj_out = abs(u.conj() @ dec.d_mat
                      @ G.extend_theta(out.theta.theta)) ** 2
        obj_ref = abs(u.conj() @ dec.d_mat @ G.extend_theta(aligned)) ** 2
        assert obj_out == pytest.approx(obj_ref, rel=1e-9)

    def test_binary_mode_alphabet(self, rng):
        real = random_realization(rng)
        out = A.evaluate_allocation([real], [[[0, 1]]], 3.0, ["binary"])[0][0]
        assert out.theta.alphabet == "binary"
        assert np.all(np.isin(out.theta.theta, [-1.0 + 0j, 1.0 + 0j]))

    def test_too_many_users(self, rng):
        # more users than BS antennas are dependent rows (the rank rule), so
        # every subset of such a step is infeasible in each phase mode, as in
        # linear ZF, not an error
        real = random_realization(rng, k=5, n_bs=3)
        subsets = [[0, 1, 2, 3], [0, 1, 2, 4], [1, 2, 3, 4]]
        for phases in ("continuous", "binary",
                       P.random_phases(real.n_ris, np.random.default_rng(4))):
            step = A.evaluate_allocation([real], [subsets], 1.0, [phases])[0]
            linear = B.evaluate_allocation_linear(real, subsets, 1.0, phases)
            assert [a.users for a in step] == subsets
            assert all(isinstance(a, A.Allocation) and a.se_bound == -np.inf
                       and a.se_exact == 0.0 and a.order.size == 0 for a in step)
            assert [a.feasible for a in step] == [s.feasible for s in linear] == [False] * 3

    @pytest.mark.parametrize("k, n_bs", [(5, 3), (4, 4)], ids=["oversized", "colinear"])
    def test_no_feasible_candidate_ordered_once(self, rng, monkeypatch, k, n_bs):
        # a step whose every candidate is deficient is not ordered again on
        # an empty stack: one order_users call decides it
        real = random_realization(rng, k=k, n_bs=n_bs)
        subsets = [[0, 1, 2, 3]]
        if k == n_bs:
            real = edited(real, _copy_user(1, 0))
            subsets = [[0, 1, 2], [0, 1, 3]]
        calls = []
        order_users = T.order_users

        def counted(h):
            calls.append(np.shape(h))
            return order_users(h)

        monkeypatch.setattr(T, "order_users", counted)
        step = A.evaluate_allocation([real], [subsets], 1.0, ["continuous"])[0]
        assert calls == [(len(subsets), len(subsets[0]), n_bs)]
        assert not any(a.feasible for a in step)

    def test_infeasible_colinear(self, rng):
        real = edited(random_realization(rng, k=2, n_bs=4), _copy_user(1, 0))
        out = A.evaluate_allocation([real], [[[0, 1]]], 1.0, ["continuous"])[0][0]
        assert out.se_bound == -np.inf
        assert not out.feasible
        assert out.se_exact == 0.0

    @pytest.mark.parametrize("colinear", [False, True], ids=["feasible", "deficient"])
    def test_feasible_is_bool(self, rng, colinear):
        real = random_realization(rng, k=2, n_bs=4)
        if colinear:
            real = edited(real, _copy_user(1, 0))
        out = A.evaluate_allocation([real], [[[0, 1]]], 1.0, ["continuous"])[0][0]
        assert type(out.feasible) is bool
        assert out.feasible is (not colinear)

    @pytest.mark.parametrize("colinear", [False, True], ids=["feasible", "deficient"])
    def test_one_rank_test_per_candidate(self, rng, monkeypatch, colinear):
        # one batched rank test covers every candidate of a step; a deficient
        # candidate costs one more, on the stack of the others
        real = random_realization(rng, k=4, n_bs=4)
        if colinear:
            real = edited(real, _copy_user(1, 0))
        calls = []
        check = T.check_full_row_rank

        def counted(h, *args, **kwargs):
            calls.append(np.shape(h))
            return check(h, *args, **kwargs)

        monkeypatch.setattr(T, "check_full_row_rank", counted)
        out = A.evaluate_allocation([real], [[[0, 1, 2], [0, 2, 3], [0, 1, 3]]], 1.0,
                                    ["continuous"])[0]
        assert calls == ([(3, 3, 4)] if not colinear else [(3, 3, 4), (1, 3, 4)])
        assert all(isinstance(a, A.Allocation) for a in out)
        assert [a.feasible for a in out] == [not colinear, True, not colinear]


    def test_step_matches_single_subsets(self, rng):
        real = random_realization(rng, k=4, n_bs=4)
        subsets = [[2, 0], [2, 1], [2, 3]]
        round_ = A.evaluate_allocation([real], [subsets], 3.0, ["continuous"])
        step, = round_
        assert isinstance(round_, A.Round) and len(step) == 3 and round_.feasible
        for users, out in zip(subsets, step):
            alone = A.evaluate_allocation([real], [[users]], 3.0, ["continuous"])[0][0]
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
            A.evaluate_allocation([real], [subsets], 2.0, ["continuous"])

    def test_deficient_candidate_alone_infeasible(self, rng):
        real = edited(random_realization(rng, k=4, n_bs=4), _copy_user(3, 1))
        round_ = A.evaluate_allocation([real], [[[1, 0], [1, 2], [1, 3]]], 2.0, ["continuous"])
        step, = round_
        assert [a.feasible for a in step] == [True, True, False]
        assert not round_.feasible
        for users, out in zip([[1, 0], [1, 2]], step):
            alone = A.evaluate_allocation([real], [[users]], 2.0, ["continuous"])[0][0]
            np.testing.assert_array_equal(out.diag_l, alone.diag_l)

    def test_every_candidate_deficient(self, rng):
        real = edited(random_realization(rng, k=3, n_bs=4), _copy_user(slice(1, None), 0))
        step = A.evaluate_allocation([real], [[[0, 1], [0, 2]]], 2.0, ["continuous"])[0]
        assert [a.se_bound for a in step] == [-np.inf, -np.inf]


def _stored_alone(real, subsets, p_bar):
    """The (theta, G, gram) that one-subset ``optimize_phases`` calls store."""
    alone = dataclasses.replace(real)  # an empty table
    for users in subsets:
        A.optimize_phases(alone, np.array([users]), p_bar)
    return alone.solves


class TestStackedSolve:
    """A step's misses are solved as one stack and stored as single calls store them."""

    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_random_stacks_match_single_calls(self, rng, c, k):
        real = random_realization(rng, k=8, n_bs=6, n_ris=12)
        subsets = [list(users) for users in
                   {tuple(rng.permutation(8)[:k].tolist()) for _ in range(c)}]
        step = A.evaluate_allocation([real], [subsets], 4.0, ["continuous"])[0]
        alone = _stored_alone(real, subsets, 4.0)
        assert real.solves.keys() == alone.keys()
        for users, out in zip(subsets, step):
            theta, g_mat, dec = real.solves[(tuple(users), 4.0)]
            theta_1, g_1, dec_1 = alone[(tuple(users), 4.0)]
            np.testing.assert_array_equal(theta.theta, theta_1.theta)
            np.testing.assert_array_equal(g_mat, g_1)
            assert dec.users == dec_1.users == tuple(users)
            for a, b in ((dec.c_mat, dec_1.c_mat), (dec.d_mat, dec_1.d_mat),
                         *zip(dec.eig, dec_1.eig)):
                np.testing.assert_array_equal(a, b)
            assert out.theta is theta

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("tx_dbm", [0.0, 30.0, 50.0])
    def test_pinned_greedy_stores_single_call_solves(self, seed, tx_dbm):
        scenario = ScenarioConfig(seed=seed, n_ris=16, tx_dbm=tx_dbm)
        real = draw_realization(scenario, np.random.default_rng(seed))
        p_bar = scenario.tx_power / scenario.n_users
        A.greedy_allocate([real], p_bar, ["continuous"])
        alone = _stored_alone(real, [list(users) for users, _ in real.solves], p_bar)
        assert real.solves.keys() == alone.keys()
        for key, (theta, g_mat, _) in real.solves.items():
            np.testing.assert_array_equal(theta.theta, alone[key][0].theta)
            np.testing.assert_array_equal(g_mat, alone[key][1])

    def test_mixed_branches_match_single_calls(self, rng, monkeypatch):
        # user 3 has no direct channel: C of a subset holding it has exactly
        # one zero eigenvalue (alignment), the others none (heuristic)
        real = edited(random_realization(rng, k=4, n_bs=4, n_ris=6), _zero_direct(3))
        branches = []
        for name in ("align_phases", "heuristic_phases"):
            def counted(*args, _name=name, _fn=getattr(P, name)):
                out = _fn(*args)
                branches.append((_name, out.theta.shape[0]))
                return out
            monkeypatch.setattr(P, name, counted)
        subsets = [[0, 1], [0, 3], [0, 2], [3, 1]]
        step = A.evaluate_allocation([real], [subsets], 2.0, ["continuous"])[0]
        assert branches == [("align_phases", 2), ("heuristic_phases", 2)]
        monkeypatch.undo()
        alone = _stored_alone(real, subsets, 2.0)
        for users, out in zip(subsets, step):
            theta_1, g_1, _ = alone[(tuple(users), 2.0)]
            np.testing.assert_array_equal(out.theta.theta, theta_1.theta)
            np.testing.assert_array_equal(real.solves[(tuple(users), 2.0)][1], g_1)
            assert g_1.shape[0] == (1 if 3 in users else 2)

    def test_mixed_branches_one_eigh_of_c(self, rng, monkeypatch):
        # the stack's one eigh of C picks the branches and serves both:
        # zero_eig_direction runs once, on the aligned rows only
        real = edited(random_realization(rng, k=4, n_bs=4, n_ris=6), _zero_direct(3))
        subsets = [[0, 1], [0, 3], [0, 2], [3, 1]]
        eigh_args, directions = [], []
        eigh, direction = np.linalg.eigh, P.zero_eig_direction

        def counted_eigh(a):
            eigh_args.append(a)
            return eigh(a)

        def counted_direction(gram):
            directions.append(gram.users)
            return direction(gram)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(P, "zero_eig_direction", counted_direction)
        A.evaluate_allocation([real], [subsets], 2.0, ["continuous"])
        monkeypatch.undo()
        assert directions == [((0, 3), (3, 1))]
        c_stack = G.decompose(real, np.array(subsets)).c_mat
        # one eigh of C, then the heuristic's one eigh of G G^H on two rows
        assert [a.shape for a in eigh_args] == [(4, 2, 2), (2, 2, 2)]
        np.testing.assert_array_equal(eigh_args[0], c_stack)

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
        A.evaluate_allocation([real], [subsets[:1]], 3.0, ["continuous"])
        A.evaluate_allocation([real], [subsets], 3.0, ["continuous"])
        assert calls == [(1, 3), (2, 3)]  # one stack per step, of its misses only
        calls.clear()
        step = A.evaluate_allocation([real], [subsets], 3.0, ["binary"])[0]
        assert calls == []
        assert all(out.theta.alphabet == "binary" for out in step)

    def test_batched_channel_matches_per_subset(self, rng, monkeypatch):
        real = random_realization(rng, k=5, n_bs=4)
        subsets = [[2, 0, u] for u in (1, 3, 4)]
        for phases in ("continuous", P.random_phases(real.n_ris, rng)):
            channels = []
            effective = G.effective_channel

            def kept(real, users, theta):
                channels.append(effective(real, users, theta))
                return channels[-1]

            monkeypatch.setattr(G, "effective_channel", kept)
            step = A.evaluate_allocation([real], [subsets], 3.0, [phases])[0]
            monkeypatch.undo()
            assert len(channels) == 1
            for users, out, h in zip(subsets, step, channels[0]):
                np.testing.assert_array_equal(
                    h, G.effective_channel(real, users, out.theta.theta))


def _step(subsets, as_array):
    """A greedy step as a list of subsets, or as the (c, K) integer array ``_greedy`` passes."""
    return np.array(subsets) if as_array else subsets


# a bad entry of a list step, or an out-of-range one of an integer step array,
# where the error names it as the numpy integer it is
BAD_ENTRIES = pytest.mark.parametrize(
    "bad, as_array",
    [(-1, False), (6, False), (1.0, False), (True, False), (np.bool_(True), False),
     ("1", False), (-1, True), (6, True)],
    ids=["negative", "K", "float", "bool", "numpy_bool", "str", "negative_array", "K_array"])


class TestUserIndices:
    """Bad user indices raise ValueError naming them, in both families."""

    @BAD_ENTRIES
    @pytest.mark.parametrize("phase_mode", ["continuous", "random"])
    def test_rejected(self, rng, bad, as_array, phase_mode):
        real = random_realization(rng, k=6, n_bs=6)
        phases = (P.PhaseConfig(np.ones(real.n_ris, dtype=complex))
                  if phase_mode == "random" else phase_mode)
        named = re.escape(f"user index {np.int64(bad) if as_array else bad!r} ")
        with pytest.raises(ValueError, match=named):
            A.evaluate_allocation([real], [_step([[0, bad]], as_array)], 2.0, [phases])
        with pytest.raises(ValueError, match=named):
            B.evaluate_allocation_linear(real, _step([[0, bad]], as_array), 2.0, phases)
        assert real.solves == {}

    @BAD_ENTRIES
    def test_checked_before_any_solve(self, rng, bad, as_array):
        # the valid first subset is neither solved nor stored
        real = random_realization(rng, k=6, n_bs=6)
        named = re.escape(f"user index {np.int64(bad) if as_array else bad!r} ")
        with pytest.raises(ValueError, match=named):
            B.evaluate_allocation_linear(real, _step([[0, 1], [0, bad]], as_array), 2.0,
                                         "continuous")
        assert real.solves == {}

    @pytest.mark.parametrize("evaluate", [_evaluate_thp, B.evaluate_allocation_linear],
                             ids=["thp", "linear"])
    def test_step_of_one_size(self, rng, evaluate):
        real = random_realization(rng, k=6, n_bs=6)
        with pytest.raises(ValueError, match="same size"):
            evaluate(real, [[0, 1], [0, 1, 2]], 2.0, "continuous")
        assert real.solves == {}

    @pytest.mark.parametrize("step, message", [
        ([], "no user subsets to evaluate"),
        (np.zeros((0, 2), dtype=int), "no user subsets to evaluate"),
        ([[], []], "user subset must be nonempty"),
        (np.zeros((2, 0), dtype=int), "user subset must be nonempty")],
        ids=["no_subsets", "no_subsets_array", "empty_subsets", "empty_subsets_array"])
    @pytest.mark.parametrize("evaluate", [_evaluate_thp, B.evaluate_allocation_linear],
                             ids=["thp", "linear"])
    def test_empty_step_rejected(self, rng, evaluate, step, message):
        # a (0, K) or (c, 0) array gets the message of the list form
        real = random_realization(rng, k=6, n_bs=6)
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate(real, step, 2.0, "continuous")
        assert real.solves == {}

    @pytest.mark.parametrize("bad, named", [
        (np.array([[0.0, 1.0]]), "user index np.float64(0.0) "),
        (np.array([[False, True]]), "user index np.False_ "),
        (np.array([[0, 1]], dtype=object), "user index array has dtype object")],
        ids=["float", "bool", "object"])
    def test_stack_checked_before_table_read(self, rng, bad, named):
        # as keys these stacks equal (0, 1), already in the table: the check
        # in optimize_phases keeps them from reading it; an object array
        # names its dtype, not an entry that is a valid index
        real = random_realization(rng, k=3, n_bs=4)
        A.optimize_phases(real, np.array([[0, 1]]), 2.0)
        keys = list(real.solves)
        with pytest.raises(ValueError, match=re.escape(named)):
            A.optimize_phases(real, bad, 2.0)
        assert list(real.solves) == keys

    @pytest.mark.parametrize("phase_mode", ["continuous", "binary", "random"])
    def test_step_array_matches_list(self, phase_mode):
        # the array _greedy passes and the list it holds give the same
        # solutions bit for bit, with the users as lists of Python ints
        step = [[0, 1], [0, 2], [2, 1]]
        phases = (P.random_phases(8, np.random.default_rng(3))
                  if phase_mode == "random" else phase_mode)
        solved = []
        for form in (step, np.array(step)):  # each on a fresh copy of one realization
            real = random_realization(np.random.default_rng(11), k=3, n_bs=4)
            solved.append((
                A.evaluate_allocation([real], [form], 2.0, [phases])[0],
                B.evaluate_allocation_linear(real, form, 2.0, phases)))
        (thp_list, lin_list), (thp_array, lin_array) = solved
        for got, want in itertools.chain(zip(thp_array, thp_list), zip(lin_array, lin_list)):
            assert got.users == want.users
            assert all(type(u) is int for u in got.users + want.users)
            np.testing.assert_array_equal(got.theta.theta, want.theta.theta)
        for got, want, users in zip(thp_array, thp_list, step):
            assert got.users == users and got.feasible
            assert got.se_bound == want.se_bound
            np.testing.assert_array_equal(got.order, want.order)
            np.testing.assert_array_equal(got.diag_l, want.diag_l)
        for got, want in zip(lin_array, lin_list):
            assert got.sum_se == want.sum_se and got.feasible == want.feasible

    def test_numpy_integers_accepted(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        plain = A.evaluate_allocation([real], [[[0, 2]]], 2.0, ["continuous"])[0][0]
        numpy = A.evaluate_allocation([real], [[np.array([0, 2])]], 2.0, ["continuous"])[0][0]
        assert numpy.se_bound == plain.se_bound
        assert len(real.solves) == 1
        linear, = B.evaluate_allocation_linear(real, [np.array([0, 2])], 2.0, "continuous")
        assert linear.feasible

    def test_duplicate_user_infeasible(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        assert not A.evaluate_allocation([real], [[[1, 1]]], 2.0, ["continuous"])[0][0].feasible
        assert not B.evaluate_allocation_linear(real, [[1, 1]], 2.0, "continuous")[0].feasible


class TestPhases:
    """The four entry points take one ``phases`` value and check it before any solve."""

    @pytest.mark.parametrize("phases, message", [
        ("random", "phases: draw random phases once with phase_opt.random_phases"),
        ("bogus", "phases: unknown phase mode 'bogus'"),
        (P.PhaseConfig(np.ones(7)), "phases: (7,) phases for 8 RIS elements")],
        ids=["random", "unknown", "wrong_length"])
    @pytest.mark.parametrize("call", [
        lambda real, phases: A.greedy_allocate([real], 2.0, [phases])[0],
        lambda real, phases: B.greedy_allocate_linear(real, 2.0, phases),
        lambda real, phases: A.evaluate_allocation([real], [[[0, 1]]], 2.0, [phases])[0],
        lambda real, phases: B.evaluate_allocation_linear(real, [[0, 1]], 2.0, phases)],
        ids=["greedy_allocate", "greedy_allocate_linear", "evaluate_allocation",
             "evaluate_allocation_linear"])
    def test_rejected(self, rng, call, phases, message):
        real = random_realization(rng, n_ris=8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(real, phases)
        assert real.solves == {}


class TestPower:
    """The four entry points take 0 < p_bar < inf and check it before any lane is phased."""

    @pytest.mark.parametrize("p_bar", [math.inf, 0.0, -1.0, math.nan],
                             ids=["inf", "zero", "negative", "nan"])
    @pytest.mark.parametrize("call, message", [
        (lambda real, p_bar: A.greedy_allocate([real], p_bar, ["continuous"]), "p_bar"),
        (lambda real, p_bar: B.greedy_allocate_linear(real, p_bar, "continuous"), "tx_power"),
        (lambda real, p_bar: A.evaluate_allocation([real], [[[0, 1]]], p_bar, ["continuous"]),
         "p_bar"),
        (lambda real, p_bar: B.evaluate_allocation_linear(real, [[0, 1]], p_bar, "continuous"),
         "tx_power")],
        ids=["greedy_allocate", "greedy_allocate_linear", "evaluate_allocation",
             "evaluate_allocation_linear"])
    def test_rejected(self, rng, call, message, p_bar):
        # an infinite p_bar once gave THP a one-user allocation with an infinite
        # bound and linear ZF an infinite sum SE, and stored solves under (users, inf)
        real = random_realization(rng)
        with pytest.raises(ValueError, match=f"^{message} must be positive and finite, got "):
            call(real, p_bar)
        assert real.solves == {}


class TestGreedyAllocate:
    @pytest.mark.parametrize("module, name, greedy", [
        (A, "evaluate_allocation", lambda real, p_bar, phases: A.greedy_allocate(
            [real], p_bar, [phases])[0]),
        (B, "evaluate_allocation_linear", B.greedy_allocate_linear)], ids=["thp", "linear"])
    def test_steps_passed_as_integer_arrays(self, module, name, greedy, monkeypatch):
        # every step reaches the evaluator as one (c, K) integer array
        real = random_realization(np.random.default_rng(5), k=4, n_bs=4)
        evaluate, steps = getattr(module, name), []

        def spy(real, subsets, *args, **kwargs):
            if module is A:  # a round of lanes, here one lane's step
                assert isinstance(real, list) and len(real) == len(subsets) == 1
                steps.append(subsets[0])
            else:
                steps.append(subsets)
            return evaluate(real, subsets, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        best = greedy(real, 100.0, "continuous")
        # one step per kept size, and one more that was not kept unless all 4 are in
        assert len(steps) == len(best.users) + (len(best.users) < 4)
        assert len(steps) >= 2
        for size, step in enumerate(steps, start=1):
            assert isinstance(step, np.ndarray) and step.dtype.kind == "i"
            assert step.shape == (4 - size + 1, size)

    def test_random_mode_needs_rng(self, rng):
        # the rng goes to phase_opt.random_phases; the allocator takes none
        real = random_realization(rng)
        with pytest.raises(TypeError):
            A.greedy_allocate([real], 2.0, ["continuous"], np.random.default_rng(3))

    def test_low_power_single_user(self, rng):
        # power so small that every multi-user bound loses to the best single
        real = random_realization(rng, k=3, n_bs=4)
        p_bar = 1e-4
        out = A.greedy_allocate([real], p_bar, ["continuous"])[0]
        best_single = max(
            A.evaluate_allocation([real], [[[u]]], p_bar, ["continuous"])[0][0].se_bound
            for u in range(3))
        assert len(out.users) == 1
        assert out.se_bound == pytest.approx(best_single, rel=1e-9)
        # exhaustive check that no subset does better
        for size in (2, 3):
            for users in itertools.combinations(range(3), size):
                cand = A.evaluate_allocation([real], [[list(users)]], p_bar,
                                             ["continuous"])[0][0]
                assert cand.se_bound <= out.se_bound + 1e-9

    def test_rank_improvement_one_blocked_user(self, rng):
        for trial in range(20):
            r = np.random.default_rng(trial)
            real = random_realization(r, k=5, n_bs=5, n_ris=8,
                                      blocked=(0, 1, 2))
            out = A.greedy_allocate([real], 100.0, ["continuous"])[0]
            n_blocked = sum(u in (0, 1, 2) for u in out.users)
            assert n_blocked <= 1

    def test_well_conditioned_allocates_all(self, rng):
        real = random_realization(rng, k=4, n_bs=4)
        # well conditioned, high effective power
        real = dataclasses.replace(real, h_direct=real.h_direct * 10.0)
        out = A.greedy_allocate([real], 1e4, ["continuous"])[0]
        assert len(out.users) == 4

    def test_bound_not_above_exhaustive(self, rng):
        real = random_realization(rng, k=4, n_bs=4)
        p_bar = 50.0
        out = A.greedy_allocate([real], p_bar, ["continuous"])[0]
        best = -np.inf
        for size in range(1, 5):
            for users in itertools.combinations(range(4), size):
                best = max(best, A.evaluate_allocation(
                    [real], [[list(users)]], p_bar, ["continuous"])[0][0].se_bound)
        assert out.se_bound <= best + 1e-9

    def test_deterministic(self, rng):
        real = random_realization(rng)
        o1 = A.greedy_allocate([real], 5.0,
                               [P.random_phases(real.n_ris, np.random.default_rng(3))])[0]
        o2 = A.greedy_allocate([real], 5.0,
                               [P.random_phases(real.n_ris, np.random.default_rng(3))])[0]
        assert o1.users == o2.users
        assert o1.se_bound == o2.se_bound

    def test_size_capped_by_antennas(self, rng):
        real = random_realization(rng, k=5, n_bs=3)
        out = A.greedy_allocate([real], 1e4, ["continuous"])[0]
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
        phases = (P.random_phases(real.n_ris, np.random.default_rng(3))
                  if phase_mode == "random" else phase_mode)
        out = A.greedy_allocate([real], 50.0, [phases])[0]
        assert calls == []
        se = out.se_exact
        assert len(calls) == len(out.users) >= 2
        assert se > 0.0


class TestBoundMonotone:
    def test_greedy_bound_nondecreasing(self, rng):
        # replay the greedy trajectory and check the bound never drops
        real = random_realization(rng, k=4, n_bs=5)
        p_bar = 20.0
        out = A.greedy_allocate([real], p_bar, ["continuous"])[0]
        prev = -np.inf
        for size in range(1, len(out.users) + 1):
            cand = A.evaluate_allocation([real], [[out.users[:size]]], p_bar,
                                         ["continuous"])[0][0]
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


def _reference_greedy(real, p_bar, phases):
    """The greedy loop with each candidate phased, ordered and bounded alone.

    Returns the kept (users, order, se_bound).
    """
    def solve(users):
        theta = phases
        if isinstance(phases, str):
            (theta, g_mat, _), = A.optimize_phases(real, np.array([users]), p_bar)
            if phases == "binary":
                theta = P.refine_elementwise(g_mat, P.discretize_binary(theta))
        try:
            order, diag_l = _reference_order_users(
                G.effective_channel(real, users, theta.theta))
        except T.RankDeficientError:
            return users, None, -np.inf
        return users, order, sum(max(0.0, T.se_asymptote(l, p_bar)) for l in diag_l)

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
        phases = (P.random_phases(real.n_ris, np.random.default_rng(seed))
                  if phase_mode == "random" else phase_mode)
        out = A.greedy_allocate([real], p_bar, [phases])[0]
        users, order, bound = _reference_greedy(dataclasses.replace(real), p_bar, phases)
        assert out.users == users
        np.testing.assert_array_equal(out.order, order)
        assert out.se_bound == pytest.approx(bound, rel=1e-12, abs=0)
