import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import xlogy

from risthp import gram as G, thp as T
from risthp.sim import uniformity_test
from risthp.thp import RankDeficientError, SHAPING_LOSS_BITS


def quad_entropy(var_complex):
    """Reference: adaptive quadrature of -g log2 g over the same images."""
    sigma = math.sqrt(var_complex / 2.0)
    ks = np.arange(-T._N_IMAGES, T._N_IMAGES + 1)

    def integrand(t):
        g = np.sum(np.exp(-0.5 * ((t + ks) / sigma) ** 2)) / (math.sqrt(2.0 * math.pi) * sigma)
        return -xlogy(g, g) / math.log(2.0)

    return 2.0 * quad(integrand, -0.5, 0.5, epsabs=1e-13, epsrel=0.0)[0]


def random_channel(rng, k=4, n_bs=6):
    return rng.standard_normal((k, n_bs)) + 1j * rng.standard_normal((k, n_bs))


class TestModulo:
    def test_scalar(self):
        assert T.modulo(0.7) == pytest.approx(-0.3)

    def test_half_open_convention(self):
        assert T.modulo(-0.5) == -0.5
        assert T.modulo(0.5) == -0.5

    def test_complex(self):
        assert T.modulo(1.5 + 2.25j) == pytest.approx(-0.5 + 0.25j)

    def test_range_and_idempotence(self, rng):
        z = 10.0 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        m = T.modulo(z)
        assert np.all((m.real >= -0.5) & (m.real < 0.5))
        assert np.all((m.imag >= -0.5) & (m.imag < 0.5))
        np.testing.assert_array_equal(T.modulo(m), m)


class TestLqDecompose:
    def test_identity(self):
        l_mat, q_mat = T.lq_decompose(np.eye(3, dtype=complex))
        np.testing.assert_allclose(l_mat, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(q_mat, np.eye(3), atol=1e-12)

    def test_already_lower_triangular(self):
        h = np.array([[5.0, 0.0], [3.0, 4.0]], dtype=complex)
        l_mat, q_mat = T.lq_decompose(h)
        np.testing.assert_allclose(l_mat, h, atol=1e-12)
        np.testing.assert_allclose(q_mat, np.eye(2), atol=1e-12)

    def test_reconstruction_and_conventions(self, rng):
        h = random_channel(rng, 4, 6)
        l_mat, q_mat = T.lq_decompose(h)
        assert np.max(np.abs(l_mat @ q_mat - h)) < 1e-10
        np.testing.assert_allclose(q_mat @ q_mat.conj().T, np.eye(4), atol=1e-10)
        assert np.max(np.abs(np.triu(l_mat, 1))) < 1e-12
        diag = np.diag(l_mat)
        assert np.all(diag.real > 0)
        assert np.max(np.abs(diag.imag)) < 1e-12

    def test_determinant_oracle(self, rng):
        h = random_channel(rng, 4, 6)
        l_mat, _ = T.lq_decompose(h)
        det_l2 = float(np.prod(np.diag(l_mat).real) ** 2)
        det_gram = float(np.linalg.det(h @ h.conj().T).real)
        assert det_l2 == pytest.approx(det_gram, rel=1e-9)

    def test_rank_deficient(self, rng):
        h = random_channel(rng, 3, 5)
        h[2] = h[0] + h[1]
        with pytest.raises(RankDeficientError):
            T.lq_decompose(h)


@pytest.mark.parametrize("fn", [T.lq_decompose, T.order_users,
                                lambda h: T.sum_se_asymptote(h, 1.0)],
                         ids=["lq_decompose", "order_users", "sum_se_asymptote"])
def test_more_rows_than_columns_rank_deficient(rng, fn):
    # the SVD of a 3 x 2 matrix holds two singular values, both nonzero
    with pytest.raises(RankDeficientError):
        fn(random_channel(rng, 3, 2))


@pytest.mark.parametrize("fn", [T.lq_decompose, T.order_users,
                                lambda h: T.sum_se_asymptote(h, 1.0)],
                         ids=["lq_decompose", "order_users", "sum_se_asymptote"])
def test_empty_channel_rejected(fn):
    with pytest.raises(ValueError, match="empty") as info:
        fn(np.zeros((0, 3), dtype=complex))
    assert not isinstance(info.value, RankDeficientError)


class TestBuildFilters:
    def test_beta_formula(self, rng):
        h = random_channel(rng, 6, 8)
        f = T.build_filters(h, np.arange(6), tx_power=6.0)
        assert f.beta == pytest.approx(math.sqrt(6.0))

    def test_identity_channel(self):
        f = T.build_filters(np.eye(2, dtype=complex), [0, 1], tx_power=3.0)
        np.testing.assert_allclose(f.b_feedback, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(f.p_forward, 3.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(f.f_receive, np.eye(2) / 3.0, atol=1e-12)

    def test_perfect_pre_cancellation(self, rng):
        h = random_channel(rng)
        order, _ = T.order_users(h)
        f = T.build_filters(h, order, tx_power=10.0)
        chain = f.f_receive @ h[order] @ f.p_forward @ np.linalg.inv(f.b_feedback)
        assert np.max(np.abs(chain - np.eye(4))) < 1e-9

    def test_unit_diagonal_feedback(self, rng):
        h = random_channel(rng)
        f = T.build_filters(h, np.arange(4), tx_power=2.0)
        np.testing.assert_allclose(np.diag(f.b_feedback), np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("tx_power", [math.nan, 0.0, -1.0])
    def test_nonpositive_power_rejected(self, rng, tx_power):
        with pytest.raises(ValueError, match="tx_power must be positive"):
            T.build_filters(random_channel(rng), np.arange(4), tx_power)


class TestWrappedNoiseEntropy:
    def test_uniform_limit(self):
        assert abs(T.wrapped_noise_entropy(100.0)) < 1e-3

    def test_high_snr_asymptote(self):
        snr = 6e6  # p_bar * L^2 = 1e6
        got = -T.wrapped_noise_entropy(1.0 / snr)
        assert abs(got - math.log2(snr / (math.pi * math.e))) < 0.001

    def test_monte_carlo_oracle(self):
        var = 0.1
        rng = np.random.default_rng(11)
        x = T.modulo(rng.standard_normal(10_000_000) * math.sqrt(var / 2))
        hist, edges = np.histogram(x, bins=1000, range=(-0.5, 0.5), density=True)
        width = edges[1] - edges[0]
        p = hist[hist > 0]
        mc = 2.0 * float(-np.sum(p * np.log2(p)) * width)
        assert abs(mc - T.wrapped_noise_entropy(var)) < 0.01

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            T.wrapped_noise_entropy(0.0)

    def test_always_nonpositive(self):
        for var in [1e-8, 1e-3, 0.05, 0.3, 2.0, 30.0]:
            assert T.wrapped_noise_entropy(var) <= 1e-12

    def test_quad_oracle(self):
        for sigma in np.linspace(T._NARROW_SIGMA, T._WIDE_SIGMA, 97, endpoint=False):
            var = 2.0 * sigma ** 2
            assert abs(T.wrapped_noise_entropy(var) - quad_entropy(var)) <= 1e-13, sigma

    def test_branches_meet(self):
        # just inside the grid branch at each edge, against the outer branch's
        # value at the same variance
        var = 2.0 * (T._NARROW_SIGMA * (1.0 + 1e-15)) ** 2
        assert math.sqrt(var / 2.0) >= T._NARROW_SIGMA
        gauss = math.log2(math.pi * math.e * var)
        assert abs(T.wrapped_noise_entropy(var) - gauss) <= 1e-12
        var = 2.0 * (T._WIDE_SIGMA * (1.0 - 1e-15)) ** 2
        assert math.sqrt(var / 2.0) < T._WIDE_SIGMA
        assert abs(T.wrapped_noise_entropy(var)) <= 1e-12


class TestPerUserSe:
    def test_asymptote_value(self):
        got = T.se_asymptote(math.sqrt(1000.0), 1.0)
        assert got == pytest.approx(math.log2(6000.0 / (math.pi * math.e)),
                                    rel=1e-12)
        assert got == pytest.approx(9.457, abs=5e-4)

    def test_asymptote_power_per_row(self, rng):
        # one power per row of a stack, as a column, is each row's scalar call
        diag_l = rng.uniform(0.1, 3.0, size=(4, 3))
        p_bars = np.array([0.5, 2.0, 1e3, 7.25])
        got = T.se_asymptote(diag_l, p_bars[:, None])
        want = np.array([T.se_asymptote(row, p_bar) for row, p_bar in zip(diag_l, p_bars)])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_asymptote_rejects_one_bad_row_power(self, bad):
        with pytest.raises(ValueError, match="l_kk and p_bar must be positive"):
            T.se_asymptote(np.ones((3, 2)), np.array([[1.0], [bad], [2.0]]))

    def test_exact_vanishes_at_low_snr(self):
        assert T.per_user_se(math.sqrt(1e-3), 1.0) < 0.01

    def test_exact_close_to_asymptote(self):
        exact = T.per_user_se(100.0, 1.0)
        asym = T.se_asymptote(100.0, 1.0)
        assert abs(exact - asym) < 0.01

    def test_exact_nonnegative_and_monotone(self):
        values = [T.per_user_se(math.sqrt(s), 1.0)
                  for s in np.logspace(-3, 5, 17)]
        assert all(v >= -1e-12 for v in values)
        assert np.all(np.diff(values) >= -1e-12)


class TestSumSeAsymptote:
    def test_shaping_loss_constant(self):
        assert SHAPING_LOSS_BITS == pytest.approx(math.log2(math.pi * math.e / 6.0))
        assert SHAPING_LOSS_BITS == pytest.approx(0.50923, abs=1e-5)

    def test_single_user(self):
        h = np.array([[1.0 + 1.0j]])  # |h|^2 = 2
        got = T.sum_se_asymptote(h, 1.0)
        assert got == pytest.approx(math.log2(12.0 / (math.pi * math.e)),
                                    rel=1e-12)

    def test_order_invariance(self, rng):
        h = random_channel(rng, 4, 4)
        p_bar = 7.0
        v1 = T.sum_se_asymptote(h, p_bar)
        v2 = T.sum_se_asymptote(h[[2, 0, 3, 1]], p_bar)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_equals_per_user_sum(self, rng):
        h = random_channel(rng, 4, 6)
        p_bar = 3.0
        l_mat, _ = T.lq_decompose(h)
        per_user = sum(T.se_asymptote(l, p_bar) for l in np.diag(l_mat).real)
        assert per_user == pytest.approx(T.sum_se_asymptote(h, p_bar), rel=1e-9)

    @pytest.mark.parametrize("p_bar", [math.nan, 0.0, -1.0])
    def test_nonpositive_power_rejected(self, rng, p_bar):
        with pytest.raises(ValueError, match="p_bar must be positive"):
            T.sum_se_asymptote(random_channel(rng), p_bar)


class TestThpMse:
    def test_formula(self):
        assert T.thp_mse(np.ones(2), 12.0) == pytest.approx(1.0 / 18.0, rel=1e-12)
        # K is the number of gains: 3 / 72 * 3
        assert T.thp_mse(np.ones(3), 12.0) == pytest.approx(0.125, rel=1e-12)

    def test_homogeneity(self, rng):
        diag = rng.uniform(0.5, 2.0, size=4)
        base = T.thp_mse(diag, 5.0)
        assert T.thp_mse(3.0 * diag, 5.0) == pytest.approx(base / 9.0, rel=1e-12)

    def test_nan_gain_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            T.thp_mse([math.nan, 1.0], 1.0)

    @pytest.mark.parametrize("tx_power", [-2.0, 0.0, math.nan])
    def test_nonpositive_power_rejected(self, tx_power):
        with pytest.raises(ValueError, match="tx_power"):
            T.thp_mse([1.0], tx_power)

    def test_monte_carlo_oracle(self, rng):
        h = random_channel(rng, 3, 5)
        order, _ = T.order_users(h)
        f = T.build_filters(h, order, tx_power=4.0)
        syms = T.simulate_transmission(f, h, 100_000, np.random.default_rng(3))
        empirical = float(np.mean(np.sum(np.abs(syms.d_hat - syms.s) ** 2,
                                         axis=0)))
        assert empirical == pytest.approx(T.thp_mse(f.diag_l, 4.0), rel=0.02)


def _reference_order(h):
    """The per-step loop without gains: a QR of the unplaced rows at every step."""
    T.check_full_row_rank(h)
    remaining = list(range(h.shape[0]))
    order = np.empty(len(remaining), dtype=int)
    for pos in range(len(remaining) - 1, -1, -1):
        r = np.linalg.qr(h[remaining].conj().T, mode="r")
        inv_diag = np.sum(np.abs(np.linalg.inv(r)) ** 2, axis=1)
        order[pos] = remaining.pop(int(np.argmin(inv_diag)))
    return order


def _dependent_by_own_svd(h):
    """sigma_min / sigma_max <= sqrt(RANK_TOL) for each matrix, each by its own SVD."""
    sv = [np.linalg.svd(m, compute_uv=False) for m in h.reshape(-1, *h.shape[-2:])]
    return np.array([s[-1] / s[0] <= math.sqrt(G.RANK_TOL) for s in sv]).reshape(h.shape[:-2])


def _assert_marks(fn, h, dependent):
    """fn(h) raises RankDeficientError whose ``deficient`` is exactly ``dependent``."""
    with pytest.raises(RankDeficientError) as info:
        fn(h)
    assert info.value.deficient.shape == dependent.shape
    np.testing.assert_array_equal(info.value.deficient, dependent)


class TestOrderUsers:
    def test_matches_reference_and_lq_gains(self, rng):
        # row scales 10^-3 .. 10^3, as between blocked and unblocked users: the
        # draws whose sigma ratio is at or below sqrt(RANK_TOL) are dependent
        n_dependent = 0
        for _ in range(600):
            k = int(rng.integers(1, 7))
            h = random_channel(rng, k, 6) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
            dependent = _dependent_by_own_svd(h)
            if dependent:
                n_dependent += 1
                for fn in (T.order_users, T.lq_decompose, _reference_order):
                    _assert_marks(fn, h, dependent)
                continue
            order, diag_l = T.order_users(h)
            np.testing.assert_array_equal(order, _reference_order(h))
            l_mat, _ = T.lq_decompose(h[order])
            np.testing.assert_allclose(diag_l, np.real(np.diag(l_mat)), rtol=1e-12, atol=0)
        assert 0 < n_dependent < 600

    def test_single_user(self, rng):
        h = random_channel(rng, 1, 3)
        np.testing.assert_array_equal(T.order_users(h)[0], [0])

    def test_orthogonal_rows_mse_invariant(self):
        h = np.diag([3.0, 1.0, 2.0]).astype(complex)
        order, _ = T.order_users(h)
        l_ord, _ = T.lq_decompose(h[order])
        l_id, _ = T.lq_decompose(h)
        mse_ord = T.thp_mse(np.diag(l_ord).real, 1.0)
        mse_id = T.thp_mse(np.diag(l_id).real, 1.0)
        assert mse_ord == pytest.approx(mse_id, abs=1e-12)

    def test_greedy_vs_exhaustive(self, rng):
        ratios = []
        for _ in range(100):
            h = random_channel(rng, 3, 4)
            order, _ = T.order_users(h)
            l_mat, _ = T.lq_decompose(h[order])
            mse = T.thp_mse(np.diag(l_mat).real, 1.0)
            best = min(
                T.thp_mse(np.diag(T.lq_decompose(h[list(p)])[0]).real, 1.0)
                for p in itertools.permutations(range(3)))
            assert mse >= best - 1e-12
            ratios.append(mse / best)
        print(f"\ngreedy/optimal MSE ratio: mean={np.mean(ratios):.4f} "
              f"max={np.max(ratios):.4f}")



class TestStackedOrdering:
    """order_users and lq_decompose over a stack: each matrix as if alone."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_per_matrix_calls(self, rng, n, k):
        # row scales 10^-3 .. 10^3, as between blocked and unblocked users: the
        # matrices whose sigma ratio is at or below sqrt(RANK_TOL) are dependent,
        # in the stacked call and alone; the others are ordered as a stack
        for _ in range(20):
            h = np.stack([random_channel(rng, k, 6) for _ in range(n)]) \
                * 10.0 ** rng.uniform(-3, 3, size=(n, k, 1))
            dependent = _dependent_by_own_svd(h)
            if dependent.any():
                for fn in (T.check_full_row_rank, T.order_users, T.lq_decompose):
                    _assert_marks(fn, h, dependent)
                    for h_i in h[dependent]:
                        _assert_marks(fn, h_i, np.array(True))
                if dependent.all():
                    continue
                h = h[~dependent]
            order, diag_l = T.order_users(h)
            l_mat, q_mat = T.lq_decompose(h)
            assert order.shape == diag_l.shape == (len(h), k)
            assert l_mat.shape == (len(h), k, k) and q_mat.shape == (len(h), k, 6)
            for i in range(len(h)):
                order_i, diag_i = T.order_users(h[i])
                l_i, q_i = T.lq_decompose(h[i])
                np.testing.assert_array_equal(order[i], order_i)
                np.testing.assert_allclose(diag_l[i], diag_i, rtol=1e-13, atol=0)
                scale = np.max(np.abs(h[i]))
                np.testing.assert_allclose(l_mat[i], l_i, rtol=1e-13, atol=1e-13 * scale)
                np.testing.assert_allclose(q_mat[i], q_i, rtol=1e-13, atol=1e-13)

    def test_first_row_wins_ties(self):
        # equal gains at every step: the lowest unplaced index is placed last
        h = np.stack([np.eye(3, 4, dtype=complex), 2.0 * np.eye(3, 4, dtype=complex)])
        order, diag_l = T.order_users(h)
        np.testing.assert_array_equal(order, [[2, 1, 0], [2, 1, 0]])
        np.testing.assert_array_equal(diag_l, [[1.0] * 3, [2.0] * 3])

    def test_leading_axes_broadcast(self, rng):
        h = np.stack([random_channel(rng, 3, 6) for _ in range(6)]).reshape(2, 3, 3, 6)
        order, diag_l = T.order_users(h)
        assert order.shape == diag_l.shape == (2, 3, 3)
        np.testing.assert_array_equal(order[1, 2], T.order_users(h[1, 2])[0])

    @pytest.mark.parametrize("fn", [T.check_full_row_rank, T.lq_decompose, T.order_users],
                             ids=["check_full_row_rank", "lq_decompose", "order_users"])
    def test_colinear_member_marked_alone(self, rng, fn):
        h = np.stack([random_channel(rng, 3, 6) for _ in range(5)])
        h[2, 1] = 2.0 * h[2, 0]
        with pytest.raises(RankDeficientError) as info:
            fn(h)
        np.testing.assert_array_equal(info.value.deficient, [False, False, True, False, False])
        # the others order as without it
        order, _ = T.order_users(np.delete(h, 2, axis=0))
        np.testing.assert_array_equal(order[2], T.order_users(h[3])[0])

    def test_single_matrix_error_marks_it(self, rng):
        h = random_channel(rng, 2, 4)
        h[1] = h[0]
        with pytest.raises(RankDeficientError) as info:
            T.order_users(h)
        assert info.value.deficient.shape == () and info.value.deficient

    def test_more_rows_than_columns_marks_every_member(self, rng):
        with pytest.raises(RankDeficientError) as info:
            T.order_users(np.stack([random_channel(rng, 3, 2) for _ in range(4)]))
        np.testing.assert_array_equal(info.value.deficient, [True] * 4)


class TestSimulateTransmission:
    def test_noiseless_recovers_data(self, rng):
        h = random_channel(rng)
        f = T.build_filters(h, T.order_users(h)[0], tx_power=5.0)
        syms = T.simulate_transmission(f, h, 200, np.random.default_rng(0),
                                       noise_power=0.0)
        assert np.max(np.abs(T.modulo(syms.y - syms.s))) < 1e-9

    @pytest.mark.parametrize("noise_power", [-1.0, np.nan], ids=["negative", "nan"])
    def test_bad_noise_power_rejected(self, rng, noise_power):
        # neither is a noiseless run
        h = random_channel(rng)
        f = T.build_filters(h, T.order_users(h)[0], tx_power=5.0)
        with pytest.raises(ValueError, match="noise_power must be nonnegative"):
            T.simulate_transmission(f, h, 10, np.random.default_rng(0), noise_power=noise_power)

    def test_v_power_one_sixth(self, rng):
        h = random_channel(rng)
        f = T.build_filters(h, T.order_users(h)[0], tx_power=5.0)
        syms = T.simulate_transmission(f, h, 100_000, np.random.default_rng(1))
        np.testing.assert_allclose(syms.mean_v_power, 1.0 / 6.0, rtol=0.01)

    def test_tx_power_met_with_equality(self, rng):
        h = random_channel(rng)
        f = T.build_filters(h, T.order_users(h)[0], tx_power=5.0)
        syms = T.simulate_transmission(f, h, 100_000, np.random.default_rng(2))
        assert syms.mean_x_power == pytest.approx(5.0, rel=0.01)

    def test_v_in_unit_square(self, rng):
        h = random_channel(rng)
        f = T.build_filters(h, T.order_users(h)[0], tx_power=5.0)
        syms = T.simulate_transmission(f, h, 1000, np.random.default_rng(4))
        assert np.all((syms.v.real >= -0.5) & (syms.v.real < 0.5))
        assert np.all((syms.v.imag >= -0.5) & (syms.v.imag < 0.5))

    def test_perturbation_is_gaussian_integer(self, rng):
        h = random_channel(rng)
        f = T.build_filters(h, T.order_users(h)[0], tx_power=5.0)
        syms = T.simulate_transmission(f, h, 1000, np.random.default_rng(5))
        assert np.max(np.abs(syms.a_perturb.real
                             - np.round(syms.a_perturb.real))) < 1e-9
        assert np.max(np.abs(syms.a_perturb.imag
                             - np.round(syms.a_perturb.imag))) < 1e-9

    def test_v_marginals_uniform(self, rng):
        h = random_channel(rng)
        f = T.build_filters(h, T.order_users(h)[0], tx_power=5.0)
        syms = T.simulate_transmission(f, h, 30_000, np.random.default_rng(6))
        stat, passed = uniformity_test(syms.v.real.ravel(), alpha=0.01)
        assert passed, f"KS statistic {stat}"
