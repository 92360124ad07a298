import math

import numpy as np
import pytest

from scipy.linalg import toeplitz

from risthp.channel import (LOS, STRONG, WEAK, PathlossModel, ScenarioConfig,
                            complex_gaussian, draw_realization,
                            laplacian_covariance, los_bs_ris, pathloss_db,
                            psd_factor, steering_vector)


def dense_covariance(n, nominal_angle, asd, n_points=4096):
    """Reference: the quadrature with the full n x n_points exponential matrix."""
    scale = asd / math.sqrt(2.0)
    phi = np.linspace(nominal_angle - np.pi, nominal_angle + np.pi, n_points)
    pdf = np.exp(-np.abs(phi - nominal_angle) / scale)
    w = np.gradient(phi) * pdf
    w = w / w.sum()
    phase = np.exp(1j * np.pi * np.outer(np.arange(n), np.sin(phi)))
    r = phase @ w
    r[0] = 1.0
    cov = toeplitz(r, r.conj())
    return 0.5 * (cov + cov.conj().T)


def dense_realization(cfg, rng):
    """Reference draw: one dense covariance and factor per user and link, with
    the Gaussians drawn per user, direct link first.

    Returns (h_direct, h_cascaded, a_vec, b_vec, meta fields as a dict).
    """
    k = cfg.n_users
    radii = cfg.user_circle_radius * np.sqrt(rng.uniform(size=k))
    angs = rng.uniform(0.0, 2.0 * np.pi, size=k)
    pos = np.asarray(cfg.user_circle_center) + np.stack(
        [radii * np.cos(angs), radii * np.sin(angs)], axis=1)
    rel_bs = pos - np.asarray(cfg.bs_pos)
    rel_ris = pos - np.asarray(cfg.ris_pos)
    dist_bs = np.linalg.norm(rel_bs, axis=1)
    dist_ris = np.linalg.norm(rel_ris, axis=1)
    ang_bs = np.arctan2(rel_bs[:, 1], rel_bs[:, 0])
    ang_ris = np.arctan2(rel_ris[:, 1], rel_ris[:, 0])
    blocked = np.arange(k) < cfg.n_blocked
    dist_sr = float(np.linalg.norm(np.asarray(cfg.ris_pos) - np.asarray(cfg.bs_pos)))
    amp_sr = math.sqrt(10.0 ** (-pathloss_db(cfg.pathloss_bs_ris, dist_sr) / 10.0))
    a_vec, b_vec = los_bs_ris(cfg.n_ris, cfg.n_bs, amplitude=amp_sr)
    k_factor = 10.0 ** (cfg.rician_db / 10.0)
    los_w = math.sqrt(k_factor / (1.0 + k_factor))
    nlos_w = math.sqrt(1.0 / (1.0 + k_factor))
    h_direct = np.empty((k, cfg.n_bs), dtype=complex)
    h_ris_user = np.empty((k, cfg.n_ris), dtype=complex)
    for u in range(k):
        loss = pathloss_db(cfg.pathloss_direct, dist_bs[u])
        if blocked[u]:
            loss += cfg.blockage_extra_db
        gain_d = 10.0 ** (-loss / 10.0) / cfg.noise_power
        fac_d = psd_factor(dense_covariance(cfg.n_bs, ang_bs[u], cfg.asd))
        h_direct[u] = math.sqrt(gain_d) * (fac_d @ complex_gaussian(cfg.n_bs, rng))
        gain_r = 10.0 ** (-pathloss_db(cfg.pathloss_ris_user, dist_ris[u])
                          / 10.0) / cfg.noise_power
        fac_r = psd_factor(dense_covariance(cfg.n_ris, ang_ris[u], cfg.asd))
        scatter = fac_r @ complex_gaussian(cfg.n_ris, rng)
        h_ris_user[u] = math.sqrt(gain_r) * (
            los_w * steering_vector(cfg.n_ris, ang_ris[u]) + nlos_w * scatter)
    meta = dict(user_pos=pos, dist_bs=dist_bs, dist_ris=dist_ris, blocked=blocked)
    return h_direct, h_ris_user * a_vec[None, :], a_vec, b_vec, meta


class TestSteeringVector:
    def test_broadside(self):
        np.testing.assert_allclose(steering_vector(4, 0.0), np.ones(4))

    def test_endfire_two_elements(self):
        np.testing.assert_allclose(steering_vector(2, np.pi / 2), [1.0, -1.0],
                                   atol=1e-12)

    def test_pi_over_six(self):
        # sin(pi/6) = 1/2 -> phases 0, pi/2, pi
        np.testing.assert_allclose(steering_vector(3, np.pi / 6), [1.0, 1j, -1.0],
                                   atol=1e-12)

    def test_dft_oracle(self):
        # at sin(angle) = 2m/n the vector is a DFT column
        n = 8
        angle = math.asin(2.0 * 3 / n)
        dft = np.exp(2j * np.pi * 3 * np.arange(n) / n)
        np.testing.assert_allclose(steering_vector(n, angle), dft, atol=1e-12)

    def test_unit_modulus(self):
        v = steering_vector(16, 0.7)
        np.testing.assert_allclose(np.abs(v), 1.0)

    def test_nonfinite_angle(self):
        with pytest.raises(ValueError):
            steering_vector(4, np.nan)


class TestLosBsRis:
    def test_scalars(self):
        a, b = los_bs_ris(1, 1, amplitude=2.5)
        np.testing.assert_allclose(a, [2.5])
        np.testing.assert_allclose(b, [1.0])

    def test_b_normalized(self):
        _, b = los_bs_ris(2, 2)
        np.testing.assert_allclose(b, np.array([1.0, -1.0]) / math.sqrt(2),
                                   atol=1e-12)
        assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    def test_rank_one(self):
        a, b = los_bs_ris(4, 6)
        sv = np.linalg.svd(np.outer(a, b.conj()), compute_uv=False)
        assert sv[0] > 1e-6
        assert np.all(sv[1:] < 1e-12 * sv[0])


class TestPathloss:
    def test_weak_100m(self):
        assert pathloss_db(WEAK, 100.0) == pytest.approx(108.5, abs=1e-12)

    def test_los_100m(self):
        assert pathloss_db(LOS, 100.0) == pytest.approx(74.0, abs=1e-12)

    def test_strong_10m(self):
        assert pathloss_db(STRONG, 10.0) == pytest.approx(59.51, abs=1e-12)

    def test_nonpositive_distance(self):
        with pytest.raises(ValueError):
            pathloss_db(WEAK, 0.0)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            PathlossModel(-1.0, 22.0)


class TestLaplacianCovariance:
    def test_zero_asd_rank_one(self):
        cov = laplacian_covariance(4, 0.3, 0.0)
        v = steering_vector(4, 0.3)
        np.testing.assert_allclose(cov, np.outer(v, v.conj()), atol=1e-12)

    def test_unit_diagonal(self):
        cov = laplacian_covariance(5, 0.2, math.radians(15))
        np.testing.assert_array_equal(np.diag(cov).real, np.ones(5))
        np.testing.assert_array_equal(np.diag(cov).imag, np.zeros(5))

    def test_hermitian_psd(self):
        cov = laplacian_covariance(6, -0.4, math.radians(30))
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    @pytest.mark.parametrize("asd_deg", [0.1, 15.0, 180.0])
    @pytest.mark.parametrize("nominal", [-np.pi / 2, -0.7, 0.0, 1.1, np.pi / 2])
    def test_dense_quadrature_oracle(self, asd_deg, nominal):
        eps = np.finfo(float).eps
        for n in (1, 2, 6, 7, 63, 64, 65, 511, 512):
            cov = laplacian_covariance(n, nominal, math.radians(asd_deg))
            np.testing.assert_array_equal(cov, cov.conj().T)
            # both formulas round the phase pi*d*sin(phi), up to pi*(n-1) in
            # size, to within about pi*(n-1)*eps; with the density on a few
            # grid points (asd = 0.1 deg) those errors do not average out
            tol = max(1e-13, 2.0 * np.pi * (n - 1) * eps)
            ref = dense_covariance(n, nominal, math.radians(asd_deg))
            assert np.max(np.abs(cov - ref)) <= tol, (n, np.max(np.abs(cov - ref)))

    def test_quadrature_oracle(self):
        # independent high-resolution trapezoidal integration
        nominal, asd = np.pi / 4, math.radians(15)
        scale = asd / math.sqrt(2)
        phi = np.linspace(nominal - np.pi, nominal + np.pi, 1_000_001)
        pdf = np.exp(-np.abs(phi - nominal) / scale)
        pdf /= np.trapezoid(pdf, phi)
        expected = np.trapezoid(pdf * np.exp(1j * np.pi * np.sin(phi)), phi)
        cov = laplacian_covariance(2, nominal, asd)
        assert abs(cov[1, 0] - expected) < 1e-6
        assert abs(cov[1, 0]) < 1.0


class TestDrawRealization:
    def scenario(self, **kw):
        defaults = dict(n_ris=8, seed=1)
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_b_unit_norm(self):
        real = draw_realization(self.scenario(), np.random.default_rng(0))
        assert abs(np.linalg.norm(real.b_vec) - 1.0) < 1e-12

    def test_deterministic(self):
        cfg = self.scenario()
        r1 = draw_realization(cfg, np.random.default_rng(42))
        r2 = draw_realization(cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(r1.h_direct, r2.h_direct)
        np.testing.assert_array_equal(r1.h_cascaded, r2.h_cascaded)

    def test_full_blockage_limit(self):
        cfg = self.scenario(n_blocked=6, blockage_extra_db=600.0)
        real = draw_realization(cfg, np.random.default_rng(0))
        ref = draw_realization(self.scenario(n_blocked=0),
                               np.random.default_rng(0))
        assert np.max(np.abs(real.h_direct)) < 1e-25 * np.max(np.abs(ref.h_direct))

    def test_blockage_amplitude_ratio(self):
        # 60 dB extra loss -> amplitude factor 1e3, averaged over many draws
        cfg = self.scenario(n_blocked=3)
        blocked, unblocked = [], []
        for i in range(200):
            real = draw_realization(cfg, np.random.default_rng(i))
            norms = np.linalg.norm(real.h_direct, axis=1)
            blocked.append(np.mean(norms[:3] ** 2))
            unblocked.append(np.mean(norms[3:] ** 2))
        ratio = np.mean(unblocked) / np.mean(blocked)
        assert 10 ** 5.7 < ratio < 10 ** 6.3

    def test_rician_0db_equal_powers(self):
        # with K_f = 1 the LOS and scattered components carry equal power;
        # check the empirical per-entry second moment doubles the scattered part
        cfg = self.scenario(n_blocked=0, rician_db=0.0)
        cfg_ray = self.scenario(n_blocked=0, rician_db=-200.0)
        p_mix, p_ray = [], []
        for i in range(300):
            p_mix.append(np.mean(np.abs(
                draw_realization(cfg, np.random.default_rng(i)).h_cascaded) ** 2))
            p_ray.append(np.mean(np.abs(
                draw_realization(cfg_ray, np.random.default_rng(i)).h_cascaded) ** 2))
        assert np.mean(p_mix) == pytest.approx(np.mean(p_ray), rel=0.05)

    def test_uncorrelated_variance_matches_pathloss(self):
        # asd -> infinity surrogate: identity covariance factor
        n, draws = 4, 100_000
        gain = 3.7e-2
        rng = np.random.default_rng(5)
        rows = math.sqrt(gain) * (np.eye(n) @ complex_gaussian((n, draws), rng))
        assert np.mean(np.abs(rows) ** 2) == pytest.approx(gain, rel=0.03)

    @pytest.mark.parametrize("n_ris", [1, 16, 64, 512])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_dense_reference_stream(self, n_ris, seed):
        cfg = self.scenario(n_ris=n_ris)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        real = draw_realization(cfg, rng)
        ref_direct, ref_cascaded, a_vec, b_vec, meta = dense_realization(cfg, ref_rng)
        # same Gaussian stream, consumed in the same order and amount
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for got, ref in ((real.h_direct, ref_direct), (real.h_cascaded, ref_cascaded)):
            err = np.max(np.abs(got - ref), axis=1)
            assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1))
        np.testing.assert_array_equal(real.a_vec, a_vec)
        np.testing.assert_array_equal(real.b_vec, b_vec)
        for name, value in meta.items():
            np.testing.assert_array_equal(getattr(real.meta, name), value)

    def test_meta_fields(self):
        cfg = self.scenario()
        real = draw_realization(cfg, np.random.default_rng(0))
        assert real.meta.user_pos.shape == (6, 2)
        assert real.meta.blocked.sum() == 3
        center = np.asarray(cfg.user_circle_center)
        assert np.all(np.linalg.norm(real.meta.user_pos - center, axis=1)
                      <= cfg.user_circle_radius + 1e-12)


class TestPsdFactor:
    def test_reconstruction(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        cov = a @ a.conj().T
        fac = psd_factor(cov)
        np.testing.assert_allclose(fac @ fac.conj().T, cov, atol=1e-10)

    def test_singular(self):
        v = steering_vector(4, 0.1)
        cov = np.outer(v, v.conj())
        fac = psd_factor(cov)
        np.testing.assert_allclose(fac @ fac.conj().T, cov, atol=1e-10)


class TestScenarioValidation:
    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ScenarioConfig(user_circle_radius=0.0)

    def test_bad_blocked(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_blocked=7)

    @pytest.mark.parametrize("asd", [-0.1, 5.0, math.nan])
    def test_asd_outside_zero_to_pi_radians(self, asd):
        with pytest.raises(ValueError, match="radians"):
            ScenarioConfig(asd=asd)

    def test_asd_limits_accepted(self):
        assert ScenarioConfig(asd=0.0).asd == 0.0
        assert ScenarioConfig(asd=math.pi).asd == math.pi
