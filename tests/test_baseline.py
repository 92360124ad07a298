import dataclasses

import numpy as np
import pytest

from risthp import alloc, baseline as B, gram as G, phase_opt, thp
from risthp.channel import ChannelRealization, ScenarioConfig, draw_realization
from risthp.phase_opt import PhaseConfig

from conftest import edited, random_realization, random_unit_theta


def _no_ris_realization(h_direct, n_ris=4):
    k, n_bs = h_direct.shape
    return ChannelRealization(
        h_direct=np.asarray(h_direct, dtype=complex),
        h_cascaded=np.zeros((k, n_ris), dtype=complex),
        b_vec=np.ones(n_bs, dtype=complex) / np.sqrt(n_bs))


def _oracle_se(real, users, theta_vec, tx_power):
    """Equal-power ZF per-user SE from H itself, and whether its rows are independent.

    The squared column norms of pinv(H), H = ``effective_channel``, are the
    noise gains of the ZF precoder; dependent rows (more rows than columns,
    or a numerical rank below the row count) give all-zero SE.
    """
    h = G.effective_channel(real, users, theta_vec)
    k = h.shape[0]
    if k > h.shape[1] or np.linalg.matrix_rank(h) < k:
        return np.zeros(k), False
    norms_sq = np.sum(np.abs(np.linalg.pinv(h)) ** 2, axis=0)
    return np.log2(1.0 + (tx_power / k) / norms_sq), True


def _zf_linear(real, users, theta, tx_power):
    return B.zf_linear(G.decompose(real, users), theta, tx_power)


def _shared_cascade_pair(eps):
    """Two users who see one strong cascade and whose direct rows differ by eps.

    At theta = 1, H = [[1, 0, 400], [1, eps, 400]]: its sigma ratio is about
    1.25e-3 * eps, either side of sqrt(RANK_TOL) = 3.16e-5 as eps moves.
    """
    return ChannelRealization(
        h_direct=np.array([[1.0, 0.0, 0.0], [1.0, eps, 0.0]], dtype=complex),
        h_cascaded=np.full((2, 4), 100.0, dtype=complex),
        b_vec=np.array([0.0, 0.0, 1.0], dtype=complex))


def _colinear(real, dst=1, src=0, scale=1.0):
    """Row ``dst`` set equal to ``scale`` times row ``src``."""
    def edit(h_d, h_c, b):
        h_d[dst] = scale * h_d[src]
        h_c[dst] = scale * h_c[src]
    return edited(real, edit)


def _scaled_row(real):
    """Row 1 scaled by 1e-3, as a blocked direct link."""
    def edit(h_d, h_c, b):
        h_d[1] *= 1e-3
    return edited(real, edit)


# name -> (realization, users): well-conditioned rows, a row scaled by 1e-3,
# |S| = N_B (C singular, H square), |S| > N_B, and two equal rows
_ZF_CASES = {
    "random": (lambda rng: random_realization(rng, k=3, n_bs=5), [0, 1, 2]),
    "blocked": (lambda rng: _scaled_row(random_realization(rng, k=3, n_bs=5)),
                [0, 1, 2]),
    "square": (lambda rng: random_realization(rng, k=4, n_bs=4), [0, 1, 2, 3]),
    "more_rows": (lambda rng: random_realization(rng, k=5, n_bs=4), [0, 1, 2, 3, 4]),
    "colinear": (lambda rng: _colinear(random_realization(rng, k=3, n_bs=5)), [0, 1, 2]),
}


class TestZfLinear:
    def test_identity_channel_rates(self):
        real = _no_ris_realization(np.eye(2))
        theta = PhaseConfig(np.ones(4, dtype=complex))
        sol = _zf_linear(real, [0, 1], theta, tx_power=2.0)
        # each user gets power 1 over a unit-gain interference-free link
        np.testing.assert_allclose(sol.per_user_se, [1.0, 1.0], rtol=1e-12)
        assert sol.sum_se == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("case", list(_ZF_CASES))
    def test_matches_h_oracle(self, rng, case):
        make, users = _ZF_CASES[case]
        for _ in range(5):
            real = make(rng)
            theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
            sol = _zf_linear(real, users, theta, tx_power=4.0)
            want, feasible = _oracle_se(real, users, theta.theta, 4.0)
            assert sol.feasible is feasible is (case not in ("more_rows", "colinear"))
            np.testing.assert_allclose(sol.per_user_se, want, rtol=1e-10, atol=0)
            assert sol.users == users and sol.theta is theta

    def test_equal_power_split(self, rng):
        # P = 6 over three users: each gets log2(1 + 2 / ||pinv(H)[:, k]||^2)
        real = random_realization(rng, k=3, n_bs=5)
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        sol = _zf_linear(real, [0, 1, 2], theta, tx_power=6.0)
        h = G.effective_channel(real, [0, 1, 2], theta.theta)
        norms_sq = np.sum(np.abs(np.linalg.pinv(h)) ** 2, axis=0)
        np.testing.assert_allclose(sol.per_user_se, np.log2(1.0 + 2.0 / norms_sq),
                                   rtol=1e-10)

    def test_colinear_infeasible(self, rng):
        real = _colinear(random_realization(rng, k=2, n_bs=4))
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        sol = _zf_linear(real, [0, 1], theta, tx_power=2.0)
        assert not sol.feasible
        assert sol.sum_se == 0.0

    def test_more_rows_than_antennas_infeasible(self, rng):
        # user 0 twice: seven rows in six dimensions, six nonzero singular values
        real = random_realization(rng, k=6, n_bs=6)
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        sol = _zf_linear(real, [0, 1, 2, 3, 4, 5, 0], theta, tx_power=7.0)
        assert not sol.feasible
        assert sol.sum_se == 0.0

    def test_single_user_matched_filter_rate(self, rng):
        # for one user the ZF pinv direction is the matched filter, so the
        # rate is log2(1 + P ||h||^2)
        real = random_realization(rng, k=1, n_bs=4)
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        sol = _zf_linear(real, [0], theta, tx_power=3.0)
        h = G.effective_channel(real, [0], theta.theta)[0]
        expected = np.log2(1.0 + 3.0 * np.linalg.norm(h) ** 2)
        assert sol.sum_se == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("tx_power", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_power_rejected(self, rng, tx_power):
        real = random_realization(rng, k=2, n_bs=4)
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        with pytest.raises(ValueError, match="tx_power must be positive"):
            _zf_linear(real, [0, 1], theta, tx_power)


class TestEvaluateAllocationLinear:
    def test_random_needs_fixed_theta(self, rng):
        # random phases come as one PhaseConfig, drawn by phase_opt.random_phases
        # (test_alloc.py::TestPhases: "random" itself is rejected); there is no fixed_theta
        real = random_realization(rng)
        fixed = phase_opt.random_phases(real.n_ris, np.random.default_rng(7))
        with pytest.raises(TypeError):
            B.evaluate_allocation_linear([real], [[[0, 1]]], 2.0, ["bogus"], fixed_theta=fixed)
        sol, = B.evaluate_allocation_linear([real], [[[0, 1]]], 2.0, [fixed])[0]
        assert sol.theta is fixed

    def test_continuous_beats_mean_random(self, rng):
        real = random_realization(rng, k=2, n_bs=4, n_ris=8)
        opt, = B.evaluate_allocation_linear([real], [[[0, 1]]], 2.0, ["continuous"])[0]
        rnd = np.mean([
            B.evaluate_allocation_linear(
                [real], [[[0, 1]]], 2.0,
                [phase_opt.random_phases(real.n_ris, np.random.default_rng(i))])[0][0].sum_se
            for i in range(20)])
        assert opt.sum_se >= rnd

    def test_binary_alphabet(self, rng):
        real = random_realization(rng)
        sol, = B.evaluate_allocation_linear([real], [[[0, 1]]], 2.0, ["binary"])[0]
        assert sol.theta.alphabet == "binary"
        assert np.all(np.isin(sol.theta.theta, [-1.0 + 0j, 1.0 + 0j]))

    def test_empty_subset_rejected(self, rng):
        real = random_realization(rng)
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        with pytest.raises(ValueError, match="nonempty"):
            B.evaluate_allocation_linear([real], [[[]]], 2.0, [theta])

    @pytest.mark.parametrize("phase_mode", ["continuous", "binary"])
    def test_step_matches_single_subsets(self, rng, phase_mode):
        real = random_realization(rng, k=5, n_bs=4)
        subsets = [[2, 0, u] for u in (1, 3, 4)]
        step = B.evaluate_allocation_linear([real], [subsets], 3.0, [phase_mode])[0]
        for users, sol in zip(subsets, step):
            alone, = B.evaluate_allocation_linear([dataclasses.replace(real)], [[users]], 3.0,
                                                  [phase_mode])[0]
            assert sol.users == alone.users == users
            np.testing.assert_array_equal(sol.theta.theta, alone.theta.theta)
            np.testing.assert_array_equal(sol.per_user_se, alone.per_user_se)

    def test_more_users_than_antennas_infeasible(self, rng):
        # linear ZF scores |S| > N_B as infeasible, and so does THP
        real = random_realization(rng, k=5, n_bs=3)
        step = B.evaluate_allocation_linear([real], [[[0, 1, 2, 3]]], 2.0, ["continuous"])[0]
        assert not step[0].feasible and step[0].sum_se == 0.0
        thp_step = alloc.evaluate_allocation([real], [[[0, 1, 2, 3]]], 2.0, ["continuous"])[0]
        assert not thp_step[0].feasible and thp_step[0].se_exact == 0.0

    def test_fixed_theta_bypasses_optimization(self, rng):
        real = random_realization(rng)
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        sol, = B.evaluate_allocation_linear([real], [[[0, 2]]], 2.0, [theta])[0]
        np.testing.assert_array_equal(sol.theta.theta, theta.theta)


    @pytest.mark.parametrize("phase_mode", ["continuous", "binary", "random"])
    def test_one_decomposition(self, rng, monkeypatch, phase_mode):
        # the sweep and the score read the decomposition of the seed's solve,
        # made as a stack only when the table lacks it; fixed phases are
        # scored on the rows of one decomposition of the step
        real = random_realization(rng)
        phases = (PhaseConfig(random_unit_theta(rng, real.n_ris))
                  if phase_mode == "random" else phase_mode)
        calls = []
        decompose = G.decompose

        def counted(real, users):
            calls.append(np.shape(users))
            return decompose(real, users)

        monkeypatch.setattr(G, "decompose", counted)
        for solved in (False, True):
            calls.clear()
            sol, = B.evaluate_allocation_linear([real], [[[0, 2]]], 2.0, [phases])[0]
            assert calls == ([] if solved and phase_mode != "random" else [(1, 2)])
            want, _ = _oracle_se(real, [0, 2], sol.theta.theta, 2.0 * real.n_users)
            np.testing.assert_allclose(sol.per_user_se, want, rtol=1e-10)


class TestGreedyAllocateLinear:
    def test_identity_allocates_all(self):
        real = _no_ris_realization(10.0 * np.eye(3))
        sol, = B.greedy_allocate_linear([real], 5.0, ["continuous"])
        assert sorted(sol.users) == [0, 1, 2]

    def test_unknown_phase_mode_rejected(self, rng):
        real = random_realization(rng, k=3, n_bs=4)
        with pytest.raises(ValueError, match="phase mode"):
            B.greedy_allocate_linear([real], 10.0, ["bogus"])

    def test_duplicate_user_dropped(self, rng):
        real = _colinear(random_realization(rng, k=3, n_bs=4), dst=2, src=1)
        sol, = B.greedy_allocate_linear([real], 10.0, ["continuous"])
        assert not (1 in sol.users and 2 in sol.users)

    def test_size_capped_by_antennas(self, rng):
        real = random_realization(rng, k=5, n_bs=3)
        sol, = B.greedy_allocate_linear([real], 100.0, ["continuous"])
        assert len(sol.users) <= 3

    def test_random_mode_needs_rng(self, rng):
        # the rng goes to phase_opt.random_phases; the allocator takes none
        real = random_realization(rng)
        with pytest.raises(TypeError):
            B.greedy_allocate_linear([real], 5.0, ["continuous"], np.random.default_rng(3))

    @pytest.mark.parametrize("p_bar", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_random_mode_nonpositive_power_rejected(self, p_bar):
        # random phases skip the phase solve, whose factor checks the power,
        # so the round's lane check checks it itself
        real = draw_realization(ScenarioConfig(seed=1, n_ris=8), np.random.default_rng(1))
        with pytest.raises(ValueError, match="p_bar must be positive"):
            B.greedy_allocate_linear(
                [real], p_bar, [phase_opt.random_phases(real.n_ris, np.random.default_rng(2))])

    def test_deterministic_random_mode(self, rng):
        real = random_realization(rng)
        s1, = B.greedy_allocate_linear(
            [real], 5.0, [phase_opt.random_phases(real.n_ris, np.random.default_rng(11))])
        s2, = B.greedy_allocate_linear(
            [real], 5.0, [phase_opt.random_phases(real.n_ris, np.random.default_rng(11))])
        assert s1.users == s2.users
        assert s1.sum_se == s2.sum_se

    def test_one_phase_solve_per_step(self, rng, monkeypatch):
        # one one-lane optimize_phases call per step, which refines each of
        # the step's subsets once: counted as rows of G, not as calls
        real = random_realization(rng, k=4, n_bs=4)
        steps = []  # [subset size, subsets refined] per call
        optimize, refine = alloc.optimize_phases, phase_opt.refine_elementwise

        def counted(reals, stacks, p_bars):
            assert len(reals) == len(stacks) == len(p_bars) == 1
            steps.append([stacks[0].shape[1], 0])
            return optimize(reals, stacks, p_bars)

        def refined(g_mat, theta):
            steps[-1][1] += len(g_mat) if g_mat.ndim == 3 else 1
            return refine(g_mat, theta)

        monkeypatch.setattr(alloc, "optimize_phases", counted)
        monkeypatch.setattr(phase_opt, "refine_elementwise", refined)
        sol, = B.greedy_allocate_linear([real], 10.0, ["continuous"])
        # the first step holds every single user, each later one the rest
        assert steps[0] == [1, 4]
        assert steps[1:] == [[k + 1, 4 - k] for k in range(1, len(steps))]
        assert len(sol.users) in (len(steps), len(steps) - 1)

    def test_nonnegative_sum_se(self, rng):
        real = random_realization(rng)
        sol, = B.greedy_allocate_linear([real], 1e-6, ["continuous"])
        assert sol.sum_se >= 0.0

    @pytest.mark.parametrize("phase_mode", ["continuous", "binary", "random"])
    def test_no_channel_and_no_svd(self, rng, monkeypatch, phase_mode):
        # the baseline reads only the Gram pair (C, D): it never forms H or an SVD
        real = random_realization(rng, k=5, n_bs=4)

        def forbidden(*args, **kwargs):
            raise AssertionError("the linear baseline formed H or took an SVD")

        monkeypatch.setattr(G, "effective_channel", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        phases = (phase_opt.random_phases(real.n_ris, np.random.default_rng(3))
                  if phase_mode == "random" else phase_mode)
        sol, = B.greedy_allocate_linear([real], 5.0, [phases])
        monkeypatch.undo()
        assert sol.feasible
        want, _ = _oracle_se(real, sol.users, sol.theta.theta, 5.0 * real.n_users)
        np.testing.assert_allclose(sol.per_user_se, want, rtol=1e-10)


def _reference_sweep(real, users, theta, tx_power):
    """The per-candidate ZF sweep the K x K scorer replaced: one H-oracle sum SE
    per candidate phase, same grid, acceptance rule and sweep cap."""
    theta_vec = theta.theta.copy()
    if theta.alphabet == "binary":
        candidates = np.array([-1.0 + 0j, 1.0 + 0j])
    else:
        candidates = np.exp(2j * np.pi * np.arange(B.N_GRID) / B.N_GRID)

    def objective(vec):
        return float(np.sum(_oracle_se(real, users, vec, tx_power)[0]))

    best = objective(theta_vec)
    for _ in range(B.MAX_SWEEPS):
        changed = False
        for n in range(theta_vec.size):
            current = theta_vec[n]
            for cand in candidates:
                if cand == current:
                    continue
                theta_vec[n] = cand
                val = objective(theta_vec)
                if val > best:
                    best = val
                    current = cand
                    changed = True
            theta_vec[n] = current
        if not changed:
            break
    return PhaseConfig(theta_vec, alphabet=theta.alphabet)


def _elementwise_sweep(dec, theta, tx_power):
    """The K x K sweep one element at a time, each scored on its own rows by
    the rank-one form or eigh under the same bound, as before the
    first-improvement scan.  Returns the phases and, per pass, the elements
    that moved."""
    theta_vec = theta.theta.copy()
    candidates = _ALPHABETS[theta.alphabet]
    k = dec.d_mat.shape[0]
    lam, vecs = dec.eig
    cols, max_sq = dec.d_mat, -np.inf
    if G.count_zero_eigenvalues(lam) == 0:
        c_inv = (vecs / lam) @ vecs.conj().T
        c_inv_diag = c_inv.diagonal().real
        cols = np.concatenate([cols, c_inv @ cols])
        max_sq = lam[0] / G.RANK_TOL - lam[-1]
    de = cols @ G.extend_theta(theta_vec)
    cols = cols.T.copy()
    rows = np.concatenate([[0.0], candidates])
    moved = []
    for _ in range(B.MAX_SWEEPS):
        moved.append([])
        for n in range(theta_vec.size):
            rows[0] = theta_vec[n]
            de_rows = de + (rows - theta_vec[n])[:, None] * cols[n]
            d_rows = de_rows[:, :k]
            if (d_rows * d_rows.conj()).sum(axis=1).real.max() < max_sq:
                vals = B.zf_sum_se_rank_one(c_inv_diag, d_rows, de_rows[:, k:], tx_power)
            else:
                vals = B.zf_se_gram(dec.c_mat, d_rows, tx_power)[0].sum(axis=1)
            vals[1:][candidates == theta_vec[n]] = -np.inf
            i = 1 + int(vals[1:].argmax())
            if vals[i] > vals[0]:
                theta_vec[n], de = candidates[i - 1], de_rows[i]
                moved[-1].append(n)
        if not moved[-1]:
            break
    return theta_vec, moved


def _scan_count(moved, size):
    """Scans of the first-improvement search over passes whose moves are
    ``moved``: a pass starts with a scan of every element, and each later
    scan is twice as long as the gap to the last move, or as the last scan
    when it found none."""
    count = 0
    for pass_moves in moved:
        m, width = 0, size
        while m < size:
            count += 1
            hit = [n for n in pass_moves if m <= n < m + width]
            if hit:
                m, width = hit[0] + 1, 2 * (hit[0] + 1 - m)
            else:
                m, width = m + width, min(2 * width, size)
    return count


_ALPHABETS = {
    "continuous": np.exp(2j * np.pi * np.arange(B.N_GRID) / B.N_GRID),
    "binary": np.array([-1.0 + 0j, 1.0 + 0j]),
}


def _start_theta(rng, n_ris, alphabet):
    if alphabet == "binary":
        return PhaseConfig(rng.choice([-1.0, 1.0], size=n_ris).astype(complex),
                           alphabet="binary")
    return PhaseConfig(random_unit_theta(rng, n_ris))


def _candidate_thetas(theta, n):
    """theta with element n set to each candidate of its alphabet, one per row."""
    vecs = np.repeat(theta.theta[None, :], len(_ALPHABETS[theta.alphabet]), axis=0)
    vecs[:, n] = _ALPHABETS[theta.alphabet]
    return vecs


def _candidate_d_vecs(dec, theta, n):
    return np.array([dec.d_mat @ G.extend_theta(v) for v in _candidate_thetas(theta, n)])


def _element_scores(real, users, theta, n, tx_power):
    """The sweep's fallback sum SE and the H oracle's for every candidate of element n.

    Also checks that ``zf_linear`` scores each candidate as the fallback does,
    bit for bit.
    """
    dec = G.decompose(real, users)
    vecs = _candidate_thetas(theta, n)
    d_vecs = _candidate_d_vecs(dec, theta, n)
    got = B.zf_se_gram(dec.c_mat, d_vecs, tx_power)[0].sum(axis=1)
    for v, score in zip(vecs, got):
        assert B.zf_linear(dec, PhaseConfig(v, alphabet=theta.alphabet),
                           tx_power).sum_se == score
    oracle = [np.sum(_oracle_se(real, users, v, tx_power)[0]) for v in vecs]
    return got, np.array(oracle)


class TestZfSumSeGram:
    @pytest.mark.parametrize("alphabet", ["continuous", "binary"])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_matches_zf_linear(self, rng, alphabet, blocked):
        for _ in range(5):
            real = random_realization(rng, k=3, n_bs=4, n_ris=8)
            if blocked:
                real = _scaled_row(real)
            theta = _start_theta(rng, real.n_ris, alphabet)
            for n in range(real.n_ris):
                got, oracle = _element_scores(real, [0, 1, 2], theta, n, 5.0)
                assert np.all(oracle > 0)
                np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("alphabet", ["continuous", "binary"])
    @pytest.mark.parametrize("scale", [1.0, 0.7 - 0.4j])
    def test_colinear_pair_scores_zero(self, rng, alphabet, scale):
        # scale 1 is the pair of test_colinear_infeasible, whose Gram matrix has
        # an exact zero eigenvalue; a complex scale leaves a rounding-level one
        real = _colinear(random_realization(rng, k=2, n_bs=4), scale=scale)
        theta = _start_theta(rng, real.n_ris, alphabet)
        for n in range(real.n_ris):
            got, oracle = _element_scores(real, [0, 1], theta, n, 2.0)
            np.testing.assert_array_equal(oracle, 0.0)
            np.testing.assert_array_equal(got, 0.0)
        swept = B._sweep_phases_linear(G.decompose(real, [0, 1]), theta, 2.0)
        np.testing.assert_array_equal(swept.theta, theta.theta)
        assert swept.alphabet == alphabet


def _rank_one_scores(dec, d_vecs, tx_power):
    """zf_sum_se_rank_one with C^-1 and e = C^-1 d taken by np.linalg.inv."""
    c_inv = np.linalg.inv(dec.c_mat)
    return B.zf_sum_se_rank_one(np.real(np.diag(c_inv)), d_vecs,
                                d_vecs @ c_inv.T, tx_power)


def _counting(monkeypatch, name, order=None):
    """Replace baseline.<name> by a wrapper that records each call's row count,
    and appends the name to ``order`` when one is given."""
    calls = []
    func = getattr(B, name)

    def counted(*args):
        calls.append(len(args[1]))
        if order is not None:
            order.append(name)
        return func(*args)

    monkeypatch.setattr(B, name, counted)
    return calls


class TestZfSumSeRankOne:
    @pytest.mark.parametrize("alphabet", ["continuous", "binary"])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_matches_zf_linear(self, rng, alphabet, blocked):
        # against the H oracle: rtol 1e-10, or the rounding of the subtraction
        # in g_k where that is larger:
        # eps * [C^-1]_kk / g_k <= eps * (lam_max(C) + ||d||^2) / lam_min(C)
        for _ in range(5):
            real = random_realization(rng, k=3, n_bs=4, n_ris=8)
            if blocked:
                real = _scaled_row(real)
            dec = G.decompose(real, [0, 1, 2])
            lam = dec.eig[0]
            assert G.count_zero_eigenvalues(lam) == 0
            theta = _start_theta(rng, real.n_ris, alphabet)
            for n in range(real.n_ris):
                d_vecs = _candidate_d_vecs(dec, theta, n)
                _, oracle = _element_scores(real, [0, 1, 2], theta, n, 5.0)
                got = _rank_one_scores(dec, d_vecs, 5.0)
                rtol = np.maximum(1e-10, np.finfo(float).eps * (
                    lam[-1] + np.sum(np.abs(d_vecs) ** 2, axis=1)) / lam[0])
                assert np.all(np.abs(got - oracle) <= rtol * oracle)

    def test_sweep_takes_no_eigh_on_invertible_c(self, rng, monkeypatch):
        real = random_realization(rng, k=3, n_bs=4, n_ris=8)
        dec = G.decompose(real, [0, 1, 2])
        theta = PhaseConfig(random_unit_theta(rng, real.n_ris))
        loop, moved = _elementwise_sweep(dec, theta, 5.0)
        eigh_calls = _counting(monkeypatch, "zf_se_gram")
        rank_one_calls = _counting(monkeypatch, "zf_sum_se_rank_one")
        swept = B._sweep_phases_linear(dec, theta, 5.0)
        assert eigh_calls == []
        # one rank-one call per scan: a move ends a scan, and a scan that finds
        # none doubles the next one, so the count follows the moves, not N_R
        assert sum(map(len, moved)) > 0
        assert len(rank_one_calls) == _scan_count(moved, real.n_ris)
        assert np.all(swept.theta == loop)
        want = _reference_sweep(real, [0, 1, 2], theta, 5.0)
        assert np.all(swept.theta == want.theta)

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_failures_between_rank_one_elements(self, seed, monkeypatch):
        # C = diag(1, 1e-6) is invertible with lam_min / RANK_TOL - lam_max = 999;
        # columns 3 and 8 are +-v with ||v|| = 20, so their candidates reach
        # ||d||^2 ~ 1600 and break the bound, while every other element keeps it:
        # a pass switches scorers in the middle and back
        rng = np.random.default_rng(seed)
        d_mat = 0.3 * (rng.standard_normal((2, 13)) + 1j * rng.standard_normal((2, 13)))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v *= 20.0 / np.linalg.norm(v)
        d_mat[:, 3], d_mat[:, 8] = v, -v
        dec = G.GramDecomposition(np.diag([1.0, 1e-6]).astype(complex), d_mat, (0, 1))
        lam = dec.eig[0]
        assert G.count_zero_eigenvalues(lam) == 0
        theta = PhaseConfig(np.ones(12, dtype=complex))
        d_sq = np.array([np.sum(np.abs(_candidate_d_vecs(dec, theta, n)) ** 2, axis=1).max()
                         for n in range(12)])
        assert np.flatnonzero(d_sq >= lam[0] / G.RANK_TOL - lam[-1]).tolist() == [3, 8]
        loop, moved = _elementwise_sweep(dec, theta, 10.0)
        order = []
        eigh_calls = _counting(monkeypatch, "zf_se_gram", order)
        rank_one_calls = _counting(monkeypatch, "zf_sum_se_rank_one", order)
        swept = B._sweep_phases_linear(dec, theta, 10.0)
        assert sum(map(len, moved)) > 0
        assert np.all(swept.theta == loop)
        # the first pass scores elements 0-2 by rank one, 3 by eigh, then
        # rank one again up to 8
        assert order[order.index("zf_se_gram") + 1] == "zf_sum_se_rank_one"
        assert len(eigh_calls) >= 2 and rank_one_calls

    def test_near_singular_c_keeps_zero_score_rule(self, monkeypatch):
        # C = [[1, 1], [1, 1 + 1e-6]] has lam_min ~ 5e-7, above RANK_TOL * lam_max,
        # so C counts as invertible.  Both users see the same cascaded channel,
        # so d lies along C's strong eigenvector and C + d d^H keeps an
        # eigenvalue near 5e-7 while lam_max grows to ~1e5: every candidate has
        # a zero eigenvalue, scores 0 and leaves theta where it is.
        real = _shared_cascade_pair(1e-3)
        dec = G.decompose(real, [0, 1])
        assert G.count_zero_eigenvalues(dec.eig[0]) == 0
        theta = PhaseConfig(np.ones(4, dtype=complex))
        for n in range(real.n_ris):
            d_vecs = _candidate_d_vecs(dec, theta, n)
            se, ok = B.zf_se_gram(dec.c_mat, d_vecs, 2.0)
            np.testing.assert_array_equal(se, 0.0)
            assert not ok.any()
            # the rank-one form alone would score these candidates
            assert np.all(_rank_one_scores(dec, d_vecs, 2.0) > 0)
        eigh_calls = _counting(monkeypatch, "zf_se_gram")
        rank_one_calls = _counting(monkeypatch, "zf_sum_se_rank_one")
        swept = B._sweep_phases_linear(dec, theta, 2.0)
        np.testing.assert_array_equal(swept.theta, theta.theta)
        assert rank_one_calls == []
        assert len(eigh_calls) == real.n_ris
        # zf_linear keeps the same rule, though H's sigma ratio is 1.25e-6, and so
        # does THP: its rank test on H's singular values is the same rule
        # (TestOneRankRule), so THP calls this pair dependent too
        assert not B.zf_linear(dec, theta, 2.0).feasible


class TestOneRankRule:
    """THP and linear ZF call the same subsets dependent, on either side of the rule."""

    @pytest.mark.parametrize("eps, ratio, dependent",
                             [(1e-3, 1.25e-6, True), (8e-2, 1e-4, False)])
    def test_thp_and_linear_zf_agree(self, eps, ratio, dependent):
        real = _shared_cascade_pair(eps)
        theta = PhaseConfig(np.ones(4, dtype=complex))
        h = G.effective_channel(real, [0, 1], theta.theta)
        sv = np.linalg.svd(h, compute_uv=False)
        assert sv[-1] / sv[0] == pytest.approx(ratio, rel=0.01)
        assert B.zf_linear(G.decompose(real, [0, 1]), theta, 2.0).feasible == (not dependent)
        if dependent:
            with pytest.raises(thp.RankDeficientError) as info:
                thp.order_users(h)
            assert info.value.deficient.shape == () and info.value.deficient
        else:
            assert np.all(thp.order_users(h)[1] > 0)
        # and so do the greedy steps of the two families
        thp_step = alloc.evaluate_allocation([real], [[[0, 1]]], 1.0, [theta])[0]
        zf_step = B.evaluate_allocation_linear([real], [[[0, 1]]], 1.0, [theta])[0]
        assert thp_step[0].feasible == zf_step[0].feasible == (not dependent)


class TestSweepEquivalence:
    """The K x K sweep picks exactly the phases of the per-candidate loop."""

    @pytest.mark.parametrize("n_blocked", [0, 3, 5])
    @pytest.mark.parametrize("n_ris", [16, 64])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_theta_as_reference(self, seed, n_ris, n_blocked):
        scenario = ScenarioConfig(seed=seed, n_ris=n_ris, n_blocked=n_blocked)
        real = draw_realization(scenario, np.random.default_rng(seed))
        moved = False
        for users in ([0, 1, 2, 3, 4, 5], [1, 3, 4]):
            dec = G.decompose(real, users)
            (theta, _, _), = alloc.optimize_phases(
                [real], [np.array([users])], [scenario.tx_power / len(users)])[0]
            for start in (theta, phase_opt.discretize_binary(theta)):
                got = B._sweep_phases_linear(dec, start, scenario.tx_power)
                want = _reference_sweep(real, users, start, scenario.tx_power)
                assert got.alphabet == want.alphabet
                assert np.all(got.theta == want.theta), (users, start.alphabet)
                moved |= bool(np.any(got.theta != start.theta))
        assert moved
