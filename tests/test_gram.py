import dataclasses

import numpy as np
import pytest
import scipy.linalg

from risthp import baseline as B, gram as G
from risthp.channel import ChannelRealization, ScenarioConfig, draw_realization
from risthp.gram import DegenerateRankError
from risthp.phase_opt import PhaseConfig

from conftest import edited, random_realization, random_unit_theta


class TestDecompose:
    def test_projector_annihilates_b(self, rng):
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b /= np.linalg.norm(b)
        real = ChannelRealization(h_direct=b.conj()[None, :],
                                  h_cascaded=np.zeros((1, 3), dtype=complex),
                                  b_vec=b)
        dec = G.decompose(real, [0])
        np.testing.assert_allclose(dec.c_mat, 0.0, atol=1e-12)

    def test_zero_cascade(self, rng):
        real = random_realization(rng)
        real = dataclasses.replace(real, h_cascaded=np.zeros_like(real.h_cascaded))
        dec = G.decompose(real, range(3))
        np.testing.assert_allclose(dec.d_mat[:, :-1], 0.0)
        h_d_b = real.h_direct @ real.b_vec
        theta = random_unit_theta(rng, real.n_ris)
        h = G.effective_channel(real, range(3), theta)
        np.testing.assert_allclose(
            dec.c_mat + np.outer(h_d_b, h_d_b.conj()), h @ h.conj().T,
            atol=1e-10)

    def test_gram_identity_random_thetas(self, rng):
        real = random_realization(rng, k=3, n_bs=4, n_ris=8)
        dec = G.decompose(real, range(3))
        for _ in range(100):
            theta = random_unit_theta(rng, 8)
            tb = G.extend_theta(theta)
            d_tb = dec.d_mat @ tb
            lhs = dec.c_mat + np.outer(d_tb, d_tb.conj())
            h = G.effective_channel(real, range(3), theta)
            assert np.max(np.abs(lhs - h @ h.conj().T)) < 1e-10

    def test_empty_subset(self, rng):
        with pytest.raises(ValueError):
            G.decompose(random_realization(rng), [])


class TestStackedDecompose:
    """A (c, K) index array decomposes every subset of one step at once."""

    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_rows_match_single_calls(self, rng, c, k):
        real = random_realization(rng, k=8, n_bs=6, n_ris=9)
        stack = np.array([rng.permutation(8)[:k] for _ in range(c)])
        dec = G.decompose(real, stack)
        assert dec.c_mat.shape == (c, k, k) and dec.d_mat.shape == (c, k, 10)
        assert dec.users == tuple(tuple(int(u) for u in users) for users in stack)
        lam, vecs = dec.eig
        for i, users in enumerate(stack):
            alone = G.decompose(real, list(users))
            np.testing.assert_array_equal(dec.c_mat[i], alone.c_mat)
            np.testing.assert_array_equal(dec.d_mat[i], alone.d_mat)
            np.testing.assert_array_equal(lam[i], alone.eig[0])
            np.testing.assert_array_equal(vecs[i], alone.eig[1])
            np.testing.assert_array_equal(dec.factor(2.5)[i], alone.factor(2.5))

    def test_take_selects_subsets(self, rng, monkeypatch):
        real = random_realization(rng, k=4)
        stack = np.array([[0, 1], [2, 3], [1, 2]])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        dec = G.decompose(real, stack)
        assert "eig" not in dec.take(1).__dict__  # none computed: none taken
        assert "eig" not in dec.take(np.array([True, False, True])).__dict__
        assert calls == []
        lam, vecs = dec.eig
        assert len(calls) == 1
        for index, rows, users in ((np.array([True, False, True]), [0, 2], ((0, 1), (1, 2))),
                                   (1, 1, (2, 3))):
            sub = dec.take(index)
            assert sub.users == users
            for got, want in ((sub.c_mat, dec.c_mat[rows]), (sub.d_mat, dec.d_mat[rows]),
                              (sub.eig[0], lam[rows]), (sub.eig[1], vecs[rows])):
                np.testing.assert_array_equal(got, want)
            assert not sub.eig[0].flags.writeable and not sub.eig[1].flags.writeable
        assert len(calls) == 1

    @pytest.mark.parametrize("single", [G.rayleigh_objective, G.dpc_sum_se, G.dpc_asymptote,
                                        lambda dec, tb, p: B.zf_linear(
                                            dec, PhaseConfig(tb[:-1]), p)],
                             ids=["rayleigh_objective", "dpc_sum_se", "dpc_asymptote",
                                  "zf_linear"])
    def test_one_subset_functions_reject_a_stack(self, single):
        # a stack once gave one silent number for all its rows (15.763 bits
        # from dpc_sum_se, where the two rows alone give 7.879 and 8.400), or
        # an unnamed numpy error
        real = random_realization(np.random.default_rng(1), k=4, n_bs=4, n_ris=8)
        dec = G.decompose(real, np.array([[0, 1], [2, 3]]))
        with pytest.raises(ValueError, match=r"take\(i\)"):
            single(dec, np.ones(9, dtype=complex), 2.0)
        single(dec.take(0), np.ones(9, dtype=complex), 2.0)

    @pytest.mark.parametrize("bad", [np.array([[0, -1]]), np.array([[0, 4]]),
                                     np.array([[0.0, 1.0]]), np.array([[False, True]]),
                                     np.zeros((1, 0), dtype=int),
                                     np.array([[0, 1]], dtype=object), np.zeros((0, 2))],
                             ids=["negative", "K", "float", "bool", "empty", "object",
                                  "empty_float"])
    def test_bad_index_arrays_rejected(self, rng, bad):
        real = random_realization(rng, k=4)
        with pytest.raises(ValueError, match="user index|nonempty"):
            G.decompose(real, bad)
        # an empty float stack once passed check_users, and effective_channel
        # then raised numpy's IndexError
        if bad.size or bad.dtype.kind != "i":
            with pytest.raises(ValueError, match="user index"):
                G.effective_channel(real, bad, np.ones(real.n_ris))


class TestEig:
    def test_cached_and_nonnegative(self, rng):
        dec = G.decompose(random_realization(rng, k=4, n_bs=4), range(4))
        assert dec.eig is dec.eig
        lam, vecs = dec.eig
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam) >= 0.0)
        np.testing.assert_allclose(vecs @ np.diag(lam) @ vecs.conj().T, dec.c_mat,
                                   atol=1e-12 * lam[-1])

    def test_read_only(self, rng):
        lam, vecs = G.decompose(random_realization(rng), range(3)).eig
        with pytest.raises(ValueError):
            lam[0] = 1.0
        with pytest.raises(ValueError):
            vecs[0, 0] = 1.0


class TestFactor:
    @pytest.mark.parametrize("n_bs", [5, 3])  # invertible C; singular C (K = N_B)
    def test_matches_dense_quadratic_form(self, rng, n_bs):
        for _ in range(10):
            dec = G.decompose(random_realization(rng, k=3, n_bs=n_bs, n_ris=7), range(3))
            assert (G.count_zero_eigenvalues(dec.eig[0]) == 1) == (n_bs == 3)
            for p_bar in (0.1, 10.0, 1e4):
                a_mat = np.eye(3) / p_bar + dec.c_mat
                dense = dec.d_mat.conj().T @ scipy.linalg.solve(a_mat, dec.d_mat,
                                                                assume_a="pos")
                g_mat = dec.factor(p_bar)
                assert g_mat.shape == (3, 8)
                err = np.linalg.norm(g_mat.conj().T @ g_mat - dense)
                assert err <= 1e-10 * np.linalg.norm(dense)

    def test_infinite_power_inverts_c(self, rng):
        dec = G.decompose(random_realization(rng, k=3, n_bs=5), range(3))
        dense = dec.d_mat.conj().T @ scipy.linalg.solve(dec.c_mat, dec.d_mat,
                                                        assume_a="pos")
        g_mat = dec.factor(np.inf)
        err = np.linalg.norm(g_mat.conj().T @ g_mat - dense)
        assert err <= 1e-10 * np.linalg.norm(dense)

    @pytest.mark.parametrize("p_bar", [0.0, -1.0])
    def test_nonpositive_p_bar_rejected(self, rng, p_bar):
        dec = G.decompose(random_realization(rng), range(3))
        with pytest.raises(ValueError, match="p_bar must be positive"):
            dec.factor(p_bar)

    def test_power_per_subset(self, rng):
        # one p_bar per subset of a stack, inf included, gives each subset's own factor
        real = random_realization(rng, k=4, n_bs=6)
        stack = np.array([[0, 1], [2, 3], [1, 3]])
        p_bars = np.array([0.5, np.inf, 40.0])
        g_mat = G.decompose(real, stack).factor(p_bars)
        for users, p_bar, g_i in zip(stack, p_bars, g_mat):
            np.testing.assert_array_equal(g_i, G.decompose(real, users).factor(p_bar))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_bad_power_of_one_subset_named(self, rng, bad):
        dec = G.decompose(random_realization(rng, k=4), np.array([[0, 1], [2, 3], [1, 3]]))
        with pytest.raises(ValueError, match=rf"p_bar must be positive, got {bad!r}"):
            dec.factor(np.array([2.0, bad, np.inf]))

    def test_power_count_checked(self, rng):
        dec = G.decompose(random_realization(rng, k=4), np.array([[0, 1], [2, 3], [1, 3]]))
        with pytest.raises(ValueError, match="2 powers p_bar for 3 subsets"):
            dec.factor(np.array([1.0, 2.0]))
        # a single subset is one subset, whatever its number of users
        with pytest.raises(ValueError, match="^1 powers p_bar for 1 subsets$"):
            G.decompose(random_realization(rng, k=4), [0, 1, 2]).factor([1.0])


class TestEffectiveChannel:
    def test_zero_cascade_gives_direct(self, rng):
        real = random_realization(rng)
        real = dataclasses.replace(real, h_cascaded=np.zeros_like(real.h_cascaded))
        theta = random_unit_theta(rng, real.n_ris)
        np.testing.assert_allclose(G.effective_channel(real, range(3), theta),
                                   real.h_direct)

    def test_single_element(self, rng):
        real = random_realization(rng, n_ris=1)
        h = G.effective_channel(real, range(3), np.array([1.0 + 0j]))
        expected = real.h_direct + np.outer(real.h_cascaded[:, 0],
                                            real.b_vec.conj())
        np.testing.assert_allclose(h, expected)

    def test_consistency_with_decompose(self, rng):
        real = random_realization(rng)
        theta = random_unit_theta(rng, real.n_ris)
        dec = G.decompose(real, range(3))
        tb = G.extend_theta(theta)
        d_tb = dec.d_mat @ tb
        h = G.effective_channel(real, range(3), theta)
        assert np.max(np.abs(h @ h.conj().T
                             - (dec.c_mat + np.outer(d_tb, d_tb.conj())))) < 1e-10

    def test_non_unit_modulus_rejected(self, rng):
        real = random_realization(rng)
        with pytest.raises(ValueError):
            G.effective_channel(real, range(3), 0.5 * np.ones(real.n_ris))

    def test_nan_rejected(self, rng):
        real = random_realization(rng)
        theta = np.ones(real.n_ris, dtype=complex)
        theta[0] = np.nan
        with pytest.raises(ValueError, match="unit modulus"):
            G.effective_channel(real, range(3), theta)


class TestStackedEffectiveChannel:
    """The batched effective channel equals the per-subset one, bit for bit."""

    @pytest.mark.parametrize("n_ris", [8, 32, 512])
    @pytest.mark.parametrize("per_subset", [False, True], ids=["one_theta", "theta_per_row"])
    def test_matches_per_subset(self, rng, n_ris, per_subset):
        real = random_realization(rng, k=6, n_bs=6, n_ris=n_ris)
        for k in range(1, 7):
            c = int(rng.integers(1, 6))
            stack = np.array([rng.permutation(6)[:k] for _ in range(c)])
            theta = random_unit_theta(rng, n_ris)
            thetas = (np.stack([random_unit_theta(rng, n_ris) for _ in range(c)])
                      if per_subset else theta)
            h = G.effective_channel(real, stack, thetas)
            assert h.shape == (c, k, 6)
            for i, users in enumerate(stack):
                alone = G.effective_channel(real, list(users),
                                            thetas[i] if per_subset else theta)
                np.testing.assert_array_equal(h[i], alone)

    def test_one_bad_row_rejects_the_stack(self, rng):
        real = random_realization(rng, k=4)
        thetas = np.stack([random_unit_theta(rng, real.n_ris) for _ in range(2)])
        thetas[1, 3] = np.nan
        with pytest.raises(ValueError, match="unit modulus"):
            G.effective_channel(real, np.array([[0, 1], [2, 3]]), thetas)


class TestDpcSumSe:
    def test_identity_channel(self):
        real = ChannelRealization(h_direct=np.eye(2, dtype=complex),
                                  h_cascaded=np.zeros((2, 3), dtype=complex),
                                  b_vec=np.array([1.0, 0.0], dtype=complex))
        dec = G.decompose(real, [0, 1])
        tb = G.extend_theta(np.ones(3, dtype=complex))
        assert G.dpc_sum_se(dec, tb, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_matches_direct_logdet(self, rng):
        for _ in range(20):
            real = random_realization(rng)
            theta = random_unit_theta(rng, real.n_ris)
            dec = G.decompose(real, range(3))
            p_bar = float(rng.uniform(0.1, 50.0))
            h = G.effective_channel(real, range(3), theta)
            direct = float(np.log2(np.linalg.det(
                np.eye(3) + p_bar * h @ h.conj().T).real))
            got = G.dpc_sum_se(dec, G.extend_theta(theta), p_bar)
            assert got == pytest.approx(direct, rel=1e-9)

    def test_vanishes_at_zero_power(self, rng):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        assert G.dpc_sum_se(dec, tb, 1e-12) < 1e-6

    def test_monotone_in_power(self, rng):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        values = [G.dpc_sum_se(dec, tb, p) for p in np.logspace(-2, 3, 12)]
        assert np.all(np.diff(values) > 0)

    def test_finite_and_nondecreasing_to_extreme_power(self):
        # zero angular spread: I + p_bar C is indefinite in floating point from
        # p_bar ~ 1e15, where a log-determinant by LU loses its sign
        scenario = ScenarioConfig(seed=3, n_ris=16, asd=0.0)
        real = draw_realization(scenario, np.random.default_rng(0))
        dec = G.decompose(real, range(scenario.n_users))
        tb = G.extend_theta(np.ones(16, dtype=complex))
        values = [G.dpc_sum_se(dec, tb, p) for p in 10.0 ** np.arange(23)]
        assert all(np.isfinite(values))
        assert np.all(np.diff(values) >= 0.0)

    def test_bad_power(self, rng):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        with pytest.raises(ValueError):
            G.dpc_sum_se(dec, tb, 0.0)

    def test_bad_theta_bar(self, rng):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        tb = np.ones(real.n_ris + 1, dtype=complex) * 1j
        with pytest.raises(ValueError):
            G.dpc_sum_se(dec, tb, 1.0)

    def test_nan_theta_bar_rejected(self, rng):
        real = random_realization(rng, n_ris=2)
        dec = G.decompose(real, range(3))
        with pytest.raises(ValueError, match="must equal 1"):
            G.dpc_sum_se(dec, [1.0, 1.0, np.nan], 1.0)


class TestDpcAsymptote:
    def test_full_rank_high_power(self, rng):
        # strong cascade keeps the quadratic form large, where dropping the
        # +1 inside the second log of the asymptote is negligible
        real = random_realization(rng, k=3, n_bs=5)
        real = dataclasses.replace(real, h_cascaded=real.h_cascaded * 30.0)
        dec = G.decompose(real, range(3))
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        exact = G.dpc_sum_se(dec, tb, 1e6)
        asym = G.dpc_asymptote(dec, tb, 1e6)
        assert abs(exact - asym) < 0.01

    def test_square_system_zero_eig_branch(self, rng):
        # N_B = K forces the smallest eigenvalue of C to exactly zero
        real = random_realization(rng, k=4, n_bs=4)
        dec = G.decompose(real, range(4))
        lam = np.linalg.eigvalsh(dec.c_mat)
        assert lam[0] < 1e-9 * lam[-1]
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        exact = G.dpc_sum_se(dec, tb, 1e7)
        asym = G.dpc_asymptote(dec, tb, 1e7)
        assert abs(exact - asym) < 0.01

    def test_single_user_formula(self, rng):
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b /= np.linalg.norm(b)
        real = ChannelRealization(h_direct=b.conj()[None, :],
                                  h_cascaded=(rng.standard_normal((1, 4))
                                              + 1j * rng.standard_normal((1, 4))),
                                  b_vec=b)
        dec = G.decompose(real, [0])
        tb = G.extend_theta(random_unit_theta(rng, 4))
        gain = np.abs(dec.d_mat @ tb)[0] ** 2
        p_bar = 1e5
        assert G.dpc_asymptote(dec, tb, p_bar) == pytest.approx(
            np.log2(p_bar * gain), rel=1e-9)

    def test_degenerate_rank_error(self, rng):
        # two zero direct rows give C two zero eigenvalues
        def zero_direct(h_d, h_c, b):
            h_d[0] = 0.0
            h_d[1] = 0.0
        real = edited(random_realization(rng, k=4, n_bs=4, blocked=(0, 1)), zero_direct)
        dec = G.decompose(real, range(4))
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        with pytest.raises(DegenerateRankError):
            G.dpc_asymptote(dec, tb, 1e6)


class TestOneRankRule:
    def test_singular_values_decide_as_eigenvalues_do(self, rng):
        # sigma <= sqrt(RANK_TOL) sigma_max is lambda <= RANK_TOL lambda_max on sigma^2
        sv = np.sort(10.0 ** rng.uniform(-8, 0, size=(1000, 4)), axis=1)[:, ::-1]
        np.testing.assert_array_equal(G.rank_deficient(sv),
                                      G.count_zero_eigenvalues(sv[:, ::-1] ** 2) > 0)

    def test_compares_sigma_without_squaring(self):
        # sigma^2 would overflow here (and warn, which the suite makes an error)
        assert not G.rank_deficient(np.array([1e200, 1e196]))
        assert G.rank_deficient(np.array([1e200, 1e195]))


class TestUnitModulusRule:
    """One tolerance, UNIT_MODULUS_TOL, guards every theta and theta_bar."""

    def test_dpc_rejects_non_physical_phases(self):
        real = draw_realization(ScenarioConfig(n_ris=4, seed=1), np.random.default_rng(1))
        dec = G.decompose(real, [0, 1, 2])
        theta_bar = [0.5, 3.0, 7j, 0.0, 1.0]
        with pytest.raises(ValueError, match="unit modulus"):
            G.dpc_sum_se(dec, theta_bar, 1.0)
        with pytest.raises(ValueError, match="unit modulus"):
            G.dpc_asymptote(dec, theta_bar, 1.0)

    @pytest.mark.parametrize("off, unit", [(1e-13, True), (1e-10, False)])
    def test_one_tolerance_everywhere(self, rng, off, unit):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        theta = random_unit_theta(rng, real.n_ris)
        theta[2] *= 1.0 + off
        last_off = G.extend_theta(random_unit_theta(rng, real.n_ris))
        last_off[-1] += off
        assert G.is_unit_modulus(theta) == unit
        checks = [lambda: PhaseConfig(theta),
                  lambda: G.effective_channel(real, range(3), theta)]
        checks += [lambda tb=tb, fn=fn: fn(dec, tb, 1e3)
                   for tb in (G.extend_theta(theta), last_off)
                   for fn in (G.dpc_sum_se, G.dpc_asymptote)]
        for check in checks:
            if unit:
                check()
            else:
                with pytest.raises(ValueError):
                    check()

    def test_empty_is_vacuously_unit_modulus(self):
        assert G.is_unit_modulus(np.array([]))
        assert PhaseConfig(np.array([])).theta.shape == (0,)
        assert not G.is_unit_modulus(np.array([np.nan]))
        assert not G.is_unit_modulus(np.array([1.0, np.nan]))
