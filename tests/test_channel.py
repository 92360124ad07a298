import dataclasses
import enum
import functools
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import toeplitz
from scipy.special import jv

from risthp import channel
from risthp.channel import (LOS, STRONG, WEAK, ChannelRealization, PathlossModel,
                            ScenarioConfig, complex_gaussian, draw_realization,
                            laplacian_covariance, los_bs_ris, pathloss_db,
                            psd_factor, rule_points, steering_vector)

ACCURACY_TOOL = Path(__file__).resolve().parents[1] / "tools" / "covariance_accuracy.py"


class Size(enum.IntEnum):
    """An integer size whose type is not exactly int."""

    THREE = 3


def load_accuracy_tool():
    spec = importlib.util.spec_from_file_location("covariance_accuracy", ACCURACY_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def laplacian_modes(asd, m, dtype=float):
    """W_m = c**2 (1 - (-1)**m e**(-c*pi)) / ((c**2 + m**2) (1 - e**(-c*pi))), c = sqrt(2)/asd:
    the Fourier coefficients of the Laplacian density exp(-c|t|) truncated to [-pi, pi]."""
    pi = 4 * np.arctan(dtype(1))
    c = np.sqrt(dtype(2)) / dtype(asd)
    tail = np.exp(-c * pi)
    return c ** 2 * (1 - (-1.0) ** m * tail) / ((c ** 2 + m ** 2) * (1 - tail))


@functools.lru_cache(maxsize=None)
def rule_weights(asd, points, dtype=float):
    """The rule's weights on s_k = -pi + 2*pi*k/P, summed directly in `dtype`:
    v_k = sum_{|m| <= M} W_m exp(-j*m*s_k) / P, M = (P - 1)/2, with
    exp(-j*m*s_k) = (-1)**m exp(-2j*pi*(m*k mod P)/P) reduced in integers."""
    pi = 4 * np.arctan(dtype(1))
    m = np.arange(points // 2 + 1)
    coef = np.where(m > 0, 2, 1) * (-1.0) ** m * laplacian_modes(asd, m, dtype) / points
    k = np.arange(points)
    v = np.zeros(points, dtype)
    for start in range(0, m.size, 256):  # a bounded (256, P) block at a time
        block = slice(start, start + 256)
        v += coef[block] @ np.cos(2 * pi * (np.outer(m[block], k) % points).astype(dtype)
                                  / points)
    v.setflags(write=False)
    return v


def dense_covariance(n, nominal_angle, asd):
    """Reference: the rule's full n x P exponential sum, P = rule_points(n), on its
    directly summed weights."""
    points = rule_points(n)
    phi = nominal_angle + np.linspace(-np.pi, np.pi, points + 1)[:-1]
    phase = np.exp(1j * np.pi * np.outer(np.arange(n), np.sin(phi)))
    r = phase @ rule_weights(asd, points)
    r[0] = 1.0
    cov = toeplitz(r, r.conj())
    return 0.5 * (cov + cov.conj().T)


def dense_realization(cfg, rng):
    """Reference draw: one dense covariance and factor per user and link, with
    the Gaussians drawn per user, direct link first.

    Returns (h_direct, h_cascaded, b_vec, user positions, blocked flags).
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
    return h_direct, h_ris_user * a_vec[None, :], b_vec, pos, blocked


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

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, np.float64(3.0),
                                   pytest.param(3.0, id="float_3.0"),
                                   pytest.param(np.bool_(True), id="numpy_bool")])
    def test_rejects_bad_size(self, n):
        with pytest.raises(ValueError, match="n_elems must be an integer"):
            steering_vector(n, 0.3)

    def test_numpy_integer_size(self):
        # integers that are not exactly int are accepted as well
        for n in (np.int64(3), Size.THREE):
            np.testing.assert_array_equal(steering_vector(n, 0.3), steering_vector(3, 0.3))


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

    @pytest.mark.parametrize("n_ris, n_bs", [(2.5, 3), (4, 3.7), (2.5, 3.7),
                                             (0, 2), (3, False)])
    def test_rejects_bad_size(self, n_ris, n_bs):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            los_bs_ris(n_ris, n_bs)

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

    @pytest.mark.parametrize("alpha, beta", [("x", 22.0), (30.0, math.inf),
                                             (30.0, True)])
    def test_coefficients_finite_real(self, alpha, beta):
        with pytest.raises(ValueError, match="pathloss coefficients"):
            PathlossModel(alpha, beta)


# nominal angles for the oracles: draws pass arctan2's, in (-pi, pi], so the
# ends of that range are tried as well as the middle
NOMINAL_ANGLES = [-np.pi, -3.0, -np.pi / 2, -0.7, 0.0, 1.1, np.pi / 2, 3.0, np.pi]


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

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, 3.0,
                                   pytest.param(np.bool_(True), id="numpy_bool")])
    def test_rejects_bad_size(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            laplacian_covariance(n, 0.3, math.radians(15))

    @pytest.mark.parametrize("n", [np.int64(3), Size.THREE], ids=["numpy_int", "int_enum"])
    @pytest.mark.parametrize("asd", [0.0, math.radians(15)])
    def test_integer_size_accepted(self, n, asd):
        np.testing.assert_array_equal(laplacian_covariance(n, 0.3, asd),
                                      laplacian_covariance(3, 0.3, asd))

    @pytest.mark.parametrize("nominal", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_angle(self, nominal):
        with pytest.raises(ValueError, match="nominal_angle must be finite"):
            laplacian_covariance(8, nominal, math.radians(15))

    @pytest.mark.parametrize("asd", [np.nan, -1e-3, np.inf])
    def test_rejects_bad_asd(self, asd):
        with pytest.raises(ValueError, match="asd must be nonnegative"):
            laplacian_covariance(8, 0.3, asd)

    @pytest.mark.parametrize("asd_deg", [0.1, 15.0, 180.0])
    @pytest.mark.parametrize("nominal", NOMINAL_ANGLES)
    def test_dense_quadrature_oracle(self, asd_deg, nominal):
        eps = np.finfo(float).eps
        # n = 1 and 2 take B = 1 and 2: the ratio e**B is one product at most
        for n in (1, 2, 6, 7, 63, 64, 65, 511, 512):
            cov = laplacian_covariance(n, nominal, math.radians(asd_deg))
            np.testing.assert_array_equal(cov, cov.conj().T)
            # both formulas round the phase pi*d*sin(phi), up to pi*(n-1) in
            # size, to within about pi*(n-1)*eps; with the density on a few
            # grid points (asd = 0.1 deg) those errors do not average out
            tol = max(1e-13, 2.0 * np.pi * (n - 1) * eps)
            ref = dense_covariance(n, nominal, math.radians(asd_deg))
            assert np.max(np.abs(cov - ref)) <= tol, (n, np.max(np.abs(cov - ref)))

    @pytest.mark.parametrize("nominal", NOMINAL_ANGLES)
    def test_longdouble_oracle(self, nominal):
        # the rule on the rule_points(512) offsets s, with its weights, the phases
        # pi*d*sin(nominal + s_k) and the sums taken in extended precision; r[d] for
        # d < n is the same on every grid of at least rule_points(n) points, since the
        # modes above those points' M sum to below 1e-16 (test_bandwidth_tail)
        eps = np.finfo(float).eps
        points = rule_points(512)
        s = np.linspace(-np.pi, np.pi, points + 1)[:-1].astype(np.longdouble)
        pi = 4 * np.arctan(np.longdouble(1))
        phase = pi * np.outer(np.arange(512, dtype=np.longdouble),
                              np.sin(np.longdouble(nominal) + s))
        cos, sin = np.cos(phase), np.sin(phase)
        for asd_deg in (0.1, 15.0, 180.0):
            asd = math.radians(asd_deg)
            w = rule_weights(asd, points, np.longdouble)
            r = (cos @ w).astype(float) + 1j * (sin @ w).astype(float)
            for n in (1, 2, 6, 7, 63, 64, 65, 511, 512):
                cov = laplacian_covariance(n, nominal, asd)
                lag = np.subtract.outer(np.arange(n), np.arange(n))
                ref = np.where(lag >= 0, r[np.abs(lag)], r[np.abs(lag)].conj())
                err = np.max(np.abs(cov - ref))
                assert err <= max(1e-13, 2.0 * np.pi * (n - 1) * eps), (asd_deg, n, err)

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

    def test_shared_tables_read_only(self):
        for table in channel._rule(math.radians(15), rule_points(64)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_rule_cache_bounded(self):
        # one entry per (spread, points): the two array sizes of a draw stay, a third evicts
        assert channel._rule.cache_info().maxsize == 2
        for n in (6, 32, 64, 6):
            laplacian_covariance(n, 0.3, math.radians(15))
            assert channel._rule.cache_info().currsize <= 2

    @pytest.mark.parametrize("n", [1, 2, 6, 7, 63, 64, 65, 511, 512, 2048])
    def test_bandwidth_tail(self, n):
        # Jacobi-Anger: exp(j*x*sin(a + t)) = sum_m J_m(x) exp(j*m*(a + t)); the modes
        # |m| > M of the largest lag x = pi*(n-1) sum to below 1e-16 (|J_-m| = |J_m|,
        # and J_m(x) falls faster than geometrically once m > x)
        x = math.pi * (n - 1)
        m = math.ceil(x + 10.0 * x ** (1.0 / 3.0) + 20.0)
        assert rule_points(n) == 2 * m + 1
        tail = 2.0 * np.sum(np.abs(jv(np.arange(m + 1, m + 400), x)))
        assert tail <= 1e-16, tail

    def test_rule_points_uncapped(self):
        points = [rule_points(n) for n in range(1, 5000)]
        assert all(p % 2 == 1 for p in points)
        assert all(a <= b for a, b in zip(points, points[1:]))
        assert [rule_points(n) for n in (6, 32, 64, 512, 1024)] == [123, 329, 555, 3487, 6765]
        # a 1024-element covariance on its 6765 points against the integral; the
        # reference takes twice the tool's panels, which doubling them again moves by < 1e-14
        tool = load_accuracy_tool()
        asd = math.radians(15)
        exact = tool.exact_lags(1024, 0.3, asd, 2 * tool.PANELS)
        assert np.max(np.abs(tool.exact_lags(1024, 0.3, asd, 4 * tool.PANELS)
                             - exact)) <= 1e-14
        r = laplacian_covariance(1024, 0.3, asd)[:, 0]
        assert np.max(np.abs(r - exact)) <= 1e-12

    @pytest.mark.parametrize("asd_deg", [0.1, 15.0, 180.0])
    @pytest.mark.parametrize("n", [1, 6, 32, 512, 700])
    def test_resampled_rule_keeps_the_modes(self, asd_deg, n):
        # the weights on s_k = -pi + 2*pi*k/P carry the truncated Laplacian's
        # closed-form Fourier modes W_m for every |m| <= M; each sum is direct and in
        # extended precision, with exp(j*m*s_k) = (-1)**m exp(2j*pi*(m*k mod P)/P)
        # reduced in integers
        def modes(weights, m):
            p = weights.size
            pi = 4 * np.arctan(np.longdouble(1))
            phase = 2 * pi * (np.outer(m, np.arange(p)) % p).astype(np.longdouble) / p
            weights = weights.astype(np.longdouble)
            return (-1.0) ** m * ((np.cos(phase) @ weights).astype(float)
                                  + 1j * (np.sin(phase) @ weights).astype(float))

        _, _, v = channel._rule(math.radians(asd_deg), rule_points(n))
        assert v.dtype == float and v.size == rule_points(n)
        # the lowest, the highest and evenly spaced ones between, of both signs
        top = v.size // 2
        m = np.unique(np.r_[0:33, np.linspace(0, top, 65).round(), top - 32:top + 1])
        m = np.unique(np.r_[-m, m]).astype(int)
        m = m[np.abs(m) <= top]
        assert np.max(np.abs(modes(v, m) - laplacian_modes(math.radians(asd_deg), m))) <= 1e-15

    def test_resampled_equals_full_rule(self):
        # the N'-point evaluation against the same modes on 2N' + 1 points
        eps = np.finfo(float).eps
        asd = math.radians(15)
        for n in (6, 64, 512):
            tol = max(1e-13, 2.0 * np.pi * (n - 1) * eps)
            full = channel._rule.__wrapped__(asd, 2 * rule_points(n) + 1)
            for nominal in NOMINAL_ANGLES:
                r = laplacian_covariance(n, nominal, asd)[:, 0]
                assert np.max(np.abs(r - channel._lags(n, nominal, full))) <= tol

    def test_exact_integral(self):
        # an independent reference: composite Gauss-Legendre split at the density's cusp,
        # which halving its panels moves by < 2e-14
        tool = load_accuracy_tool()
        nominal = 0.3
        for asd_deg in (0.1, 1.0, 15.0, 60.0, 180.0):
            asd = math.radians(asd_deg)
            exact = tool.exact_lags(512, nominal, asd)
            assert np.max(np.abs(tool.exact_lags(512, nominal, asd, 2 * tool.PANELS)
                                 - exact)) <= 2e-14
            for n in (6, 32, 64, 512):
                r = laplacian_covariance(n, nominal, asd)[:, 0]
                assert np.max(np.abs(r - exact[:n])) <= 1e-12, (asd_deg, n)

    @pytest.mark.parametrize("asd", [1e-300, 1e-6])
    def test_tiny_spread(self, asd):
        # the closed form neither overflows nor divides 0 by 0: finite, exactly Hermitian,
        # and at 1e-300 the asd = 0 covariance within _lags' bound
        eps = np.finfo(float).eps
        for n in (1, 6, 64, 512):
            cov = laplacian_covariance(n, 0.3, asd)
            assert np.all(np.isfinite(cov))
            np.testing.assert_array_equal(cov, cov.conj().T)
            if asd == 1e-300:
                err = np.max(np.abs(cov - laplacian_covariance(n, 0.3, 0.0)))
                assert err <= max(1e-13, 2.0 * np.pi * (n - 1) * eps), (n, err)

    def test_other_spread_between_calls(self):
        # the cache holds two (spread, points) rules: calls at another spread and two
        # sizes in between evict the first, which is recomputed, and no result depends
        # on the calls before it
        first = laplacian_covariance(64, 0.3, math.radians(15))
        other = laplacian_covariance(64, 0.3, math.radians(40))
        laplacian_covariance(6, 0.3, math.radians(40))
        np.testing.assert_array_equal(laplacian_covariance(64, 0.3, math.radians(15)), first)
        channel._rule.cache_clear()
        np.testing.assert_array_equal(laplacian_covariance(64, 0.3, math.radians(40)), other)

    @pytest.mark.parametrize("n", [1, 2, 6, 64, 512])
    def test_scipy_toeplitz_bit_for_bit(self, n):
        cov = laplacian_covariance(n, 0.4, math.radians(15))
        r = cov[:, 0]
        np.testing.assert_array_equal(cov, toeplitz(r, r.conj()))

    @pytest.mark.parametrize("asd_deg", [0.0, 15.0])
    @pytest.mark.parametrize("n", [1, 2, 6, 64, 512])
    def test_read_only_layout(self, n, asd_deg):
        # returned read-only, a window view over the 2n - 1 lags at every spread; its
        # values and its factor are those of a writable C-ordered copy, bit for bit
        cov = laplacian_covariance(n, 0.3, math.radians(asd_deg))
        with pytest.raises(ValueError, match="read-only"):
            cov[0, 0] = 0.0
        dense = np.array(cov)
        assert dense.flags.c_contiguous and dense.flags.writeable
        np.testing.assert_array_equal(cov, dense)
        np.testing.assert_array_equal(psd_factor(cov), psd_factor(dense))
        np.testing.assert_array_equal(cov, cov.conj().T)


class TestDrawRealization:
    def scenario(self, **kw):
        defaults = dict(n_ris=8, seed=1)
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_b_unit_norm(self):
        real = draw_realization(self.scenario(), np.random.default_rng(0))
        assert abs(np.linalg.norm(real.b_vec) - 1.0) < 1e-12

    @pytest.mark.parametrize("scale, unit", [(1.0 + 1e-13, True), (1.0 + 1e-10, False),
                                             (2.0, False), (0.0, False), (np.nan, False)])
    def test_b_unit_norm_rule(self, scale, unit):
        # the Gram identity HH^H = C + dd^H holds only at ||b|| = 1
        real = draw_realization(self.scenario(), np.random.default_rng(0))
        builds = [lambda: ChannelRealization(real.h_direct, real.h_cascaded, scale * real.b_vec),
                  lambda: dataclasses.replace(real, b_vec=scale * real.b_vec)]
        for build in builds:
            if unit:
                build()
            else:
                with pytest.raises(ValueError, match="b_vec"):
                    build()

    @pytest.mark.parametrize("shapes", [((3, 4), (4, 8), (4,)), ((3, 4), (2, 8), (4,)),
                                        ((4,), (1, 8), (4,)), ((3, 4), (3, 8), (3,)),
                                        ((3, 4), (3,), (4,)), ((3, 4), (3, 8), (4, 1))],
                             ids=["more_cascaded_rows", "fewer_cascaded_rows", "1d_direct",
                                  "short_b", "1d_cascaded", "2d_b"])
    def test_shapes_checked(self, shapes):
        # unchecked, an extra row of h_cascaded was silently ignored and a
        # missing one raised a bare IndexError in the greedy loop
        arrays = [np.ones(shape, dtype=complex) for shape in shapes]
        arrays[2] /= np.linalg.norm(arrays[2])
        with pytest.raises(ValueError, match=r"\(K, N_B\), \(K, N_R\) and \(N_B,\)"):
            ChannelRealization(*arrays)

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
        ref_direct, ref_cascaded, b_vec, pos, blocked = dense_realization(cfg, ref_rng)
        # same Gaussian stream, consumed in the same order and amount
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for got, ref in ((real.h_direct, ref_direct), (real.h_cascaded, ref_cascaded)):
            err = np.max(np.abs(got - ref), axis=1)
            assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1))
        np.testing.assert_array_equal(real.b_vec, b_vec)
        # the reference's users lie in the circle, the first n_blocked blocked
        center = np.asarray(cfg.user_circle_center)
        assert pos.shape == (cfg.n_users, 2)
        assert np.all(np.linalg.norm(pos - center, axis=1) <= cfg.user_circle_radius + 1e-12)
        np.testing.assert_array_equal(blocked, np.arange(cfg.n_users) < cfg.n_blocked)


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

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psd_factor(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("asd_deg", [0.0, 0.1])
    def test_rounding_negatives_clip(self, asd_deg):
        # both fail the Cholesky and take the eigendecomposition, whose negative
        # eigenvalues here are rounding (below 1e-14 of the largest)
        cov = laplacian_covariance(512, 0.3, math.radians(asd_deg))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        fac = psd_factor(cov)
        np.testing.assert_allclose(fac @ fac.conj().T, cov, rtol=0, atol=1e-10)

    def test_factor_memory(self):
        # numpy reports its arrays to tracemalloc, but LAPACK's column-major work
        # buffer is not traced: at N = 512 the factor is N^2 * 16 bytes (4 MiB), and
        # an N x N copy of the covariance would add as much again
        n, asd = 512, math.radians(15)
        psd_factor(laplacian_covariance(n, 0.3, asd))  # fills the rule cache
        tracemalloc.start()
        try:
            psd_factor(laplacian_covariance(n, 0.3, asd))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 16, peak


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

    @pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5),
                                              ("n_ris", 8.5), ("n_blocked", 1.0),
                                              ("seed", True), ("n_ris", True)])
    def test_integer_fields_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tx_dbm", "noise_dbm", "blockage_extra_db",
                                       "rician_db"])
    @pytest.mark.parametrize("value", ["30", math.nan, math.inf, True])
    def test_real_fields_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("tx_dbm", 3100.0), ("tx_dbm", -4000.0), ("noise_dbm", -4000.0), ("noise_dbm", 4000.0),
        ("rician_db", 4000.0), ("blockage_extra_db", -4000.0)])
    def test_db_fields_have_a_linear_scale(self, field, value):
        # each once failed inside sim.run with OverflowError, ZeroDivisionError
        # or "p_bar must be positive", outside the CLI's ValueError handling
        with pytest.raises(ValueError, match=rf"^{field} must lie in \[-3070, 3080\] dB"):
            ScenarioConfig(**{field: value})

    def test_db_field_limits_accepted(self):
        assert 0.0 < ScenarioConfig(tx_dbm=-3070.0).tx_power
        assert ScenarioConfig(noise_dbm=3080.0).noise_power < math.inf

    @pytest.mark.parametrize("field", ["asd", "user_circle_radius"])
    @pytest.mark.parametrize("value", ["1", math.nan, math.inf, True])
    def test_ranged_fields_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a .*finite real"):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("pos", [(1.0, 2.0, 3.0), (1.0, "2")])
    def test_position_is_a_real_pair(self, pos):
        with pytest.raises(ValueError, match="bs_pos"):
            ScenarioConfig(bs_pos=pos)
