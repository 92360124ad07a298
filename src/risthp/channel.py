"""Scenario geometry and random channel generation.

Generates direct BS-user channels (correlated Rayleigh), RIS-user channels
(Rician with a steering-vector LOS component) and the rank-one LOS BS-RIS
link a*b^H.  All channels are pre-scaled by 1/sigma so that the downstream
AWGN has unit variance per receive dimension.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number (a bool is not one)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class PathlossModel:
    """Logarithmic pathloss L_dB = alpha + beta * log10(d/m)."""

    alpha_db: float
    beta_exponent: float  # dB per decade of distance
    label: str = "custom"

    def __post_init__(self):
        if not all(_finite_real(c) and c > 0 for c in (self.alpha_db, self.beta_exponent)):
            raise ValueError("pathloss coefficients must be positive finite real numbers, "
                             f"got {self.alpha_db!r} and {self.beta_exponent!r}")


WEAK = PathlossModel(35.1, 36.7, "weak")
STRONG = PathlossModel(37.51, 22.0, "strong")
LOS = PathlossModel(30.0, 22.0, "los")
PATHLOSS_PRESETS = {"weak": WEAK, "strong": STRONG, "los": LOS}


def pathloss_db(model: PathlossModel, distance_m: float) -> float:
    """Pathloss in dB at the given distance (meters)."""
    if not distance_m > 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return model.alpha_db + model.beta_exponent * math.log10(distance_m)


@dataclass
class ScenarioConfig:
    """Geometry, fading, pathloss, power and seed for one experiment."""

    n_bs: int = 6
    n_users: int = 6
    n_ris: int = 64
    bs_pos: tuple = (0.0, 0.0)
    ris_pos: tuple = (100.0, 0.0)
    user_circle_center: tuple = (75.0, 10.0)
    user_circle_radius: float = 5.0
    n_blocked: int = 3
    blockage_extra_db: float = 60.0
    asd: float = math.radians(15.0)  # angular standard deviation, radians
    rician_db: float = 0.0
    pathloss_direct: PathlossModel = STRONG
    pathloss_ris_user: PathlossModel = STRONG
    pathloss_bs_ris: PathlossModel = STRONG
    noise_dbm: float = -110.0
    tx_dbm: float = 30.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_bs", "n_users", "n_ris", "n_blocked", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("tx_dbm", "noise_dbm", "blockage_extra_db", "rician_db"):
            if not _finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real number, "
                                 f"got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_bs < 1 or self.n_users < 1 or self.n_ris < 1:
            raise ValueError("array and user counts must be positive")
        if not (_finite_real(self.user_circle_radius) and self.user_circle_radius > 0):
            raise ValueError("user_circle_radius must be a positive finite real number, "
                             f"got {self.user_circle_radius!r}")
        if not 0 <= self.n_blocked <= self.n_users:
            raise ValueError("n_blocked must lie in [0, n_users]")
        if not (_finite_real(self.asd) and 0 <= self.asd <= math.pi):
            raise ValueError(f"asd must be a finite real number in [0, pi] radians, "
                             f"got {self.asd!r}")
        for name in ("bs_pos", "ris_pos", "user_circle_center"):
            pos = getattr(self, name)
            if not (len(pos) == 2 and all(_finite_real(c) for c in pos)):
                raise ValueError(f"{name} must be a pair of finite real numbers, got {pos!r}")

    @property
    def tx_power(self) -> float:
        """Transmit power in linear scale (mW)."""
        return 10.0 ** (self.tx_dbm / 10.0)

    @property
    def noise_power(self) -> float:
        """Noise power sigma^2 in linear scale (mW)."""
        return 10.0 ** (self.noise_dbm / 10.0)


@dataclass
class RealizationMeta:
    """Per-user bookkeeping for one channel draw."""

    user_pos: np.ndarray  # (K, 2) meters
    dist_bs: np.ndarray  # (K,)
    dist_ris: np.ndarray  # (K,)
    blocked: np.ndarray  # (K,) bool


@dataclass
class ChannelRealization:
    """One draw of the composite channel.

    Rows of ``h_direct`` are the direct per-user channels, rows of
    ``h_cascaded`` are the RIS-user channels already multiplied by diag(a).
    ``b_vec`` has unit Euclidean norm, so the full channel for phase vector
    theta is ``h_direct + h_cascaded @ theta * b_vec^H``.

    ``solves`` holds the continuous phase solves of every method run on it,
    read and written only by ``alloc.optimize_phases`` under (users, p_bar);
    ``dataclasses.replace`` starts an empty one.  A realization is not
    changed after its first phase solve.
    """

    h_direct: np.ndarray  # (K, N_B)
    h_cascaded: np.ndarray  # (K, N_R)
    b_vec: np.ndarray  # (N_B,), ||b||_2 = 1
    a_vec: np.ndarray  # (N_R,), includes the BS-RIS amplitude
    meta: RealizationMeta = None
    solves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_users(self) -> int:
        return self.h_direct.shape[0]

    @property
    def n_bs(self) -> int:
        return self.h_direct.shape[1]

    @property
    def n_ris(self) -> int:
        return self.h_cascaded.shape[1]


def _check_size(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def steering_vector(n_elems: int, angle: float) -> np.ndarray:
    """Half-wavelength ULA steering vector exp(j*pi*(m-1)*sin(angle))."""
    _check_size("n_elems", n_elems)
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    return np.exp(1j * np.pi * np.arange(n_elems) * math.sin(angle))


def los_bs_ris(n_ris: int, n_bs: int, angle_ris: float = np.pi / 2,
               angle_bs: float = np.pi / 2, amplitude: float = 1.0):
    """Rank-one LOS BS-RIS link a*b^H from two ULA steering vectors.

    Returns (a, b) with the per-element amplitude folded into a and b
    normalized to unit Euclidean norm.
    """
    a = amplitude * steering_vector(n_ris, angle_ris)
    b = steering_vector(n_bs, angle_bs) / math.sqrt(n_bs)
    return a, b


# points of the angle grid of the Laplacian covariance quadrature
N_POINTS = 4096


def _running_powers(first, ratio: np.ndarray, rows: int) -> np.ndarray:
    """Rows first * ratio**p for p < rows, each the previous row times ratio."""
    out = np.empty((rows, ratio.size), dtype=complex)
    out[0] = first
    for p in range(1, rows):
        np.multiply(out[p - 1], ratio, out=out[p])
    return out


def laplacian_covariance(n: int, nominal_angle: float, asd: float) -> np.ndarray:
    """Spatial covariance for a Laplacian angle density on a half-wavelength ULA.

    Entry (m, k) is the integral of exp(j*pi*(m-k)*sin(phi)) against a
    Laplacian density centered at nominal_angle with standard deviation asd,
    truncated to +-pi around the center and renormalized, by the trapezoid
    rule on an N_POINTS grid.

    The quadrature r[d] = sum_i w_i exp(j*pi*d*sin(phi_i)) is factored with
    d = q*B + p, B = ceil(sqrt(n)): a table of exp(j*pi*p*sin(phi_i)) for
    p < B and one of w_i exp(j*pi*q*B*sin(phi_i)) for q < ceil(n/B), joined
    by one matrix product.  Each table holds the running powers of one row,
    exp(j*pi*sin(phi)) or exp(j*pi*B*sin(phi)), so only these two rows of
    exponentials are formed; row p carries at most p roundings, which keeps
    r within max(1e-13, 2*pi*(n-1)*eps) of the directly evaluated sum.
    """
    _check_size("n", n)
    if not math.isfinite(nominal_angle):
        raise ValueError(f"nominal_angle must be finite, got {nominal_angle!r}")
    if not asd >= 0:  # NaN fails
        raise ValueError(f"asd must be nonnegative, got {asd!r}")
    if asd == 0:
        v = steering_vector(n, nominal_angle)
        return np.outer(v, v.conj())
    # Laplace(b) has std b*sqrt(2)
    scale = asd / math.sqrt(2.0)
    phi = np.linspace(nominal_angle - np.pi, nominal_angle + np.pi, N_POINTS)
    pdf = np.exp(-np.abs(phi - nominal_angle) / scale)
    # trapezoid weights, renormalized after truncation
    w = np.gradient(phi) * pdf
    w = w / w.sum()
    u = np.sin(phi)
    step = math.isqrt(n - 1) + 1  # B = ceil(sqrt(n))
    low = _running_powers(1.0, np.exp(1j * np.pi * u), step)
    high = _running_powers(w, np.exp(1j * np.pi * step * u), math.ceil(n / step))
    r = (high @ low.T).ravel()[:n]  # r[q*B + p] = E[exp(j*pi*d*sin(phi))]
    r[0] = 1.0
    # toeplitz(r, r^*): row i is the window at n-1-i of [r_{n-1}, ..., r_0, ..., r_{n-1}^*],
    # the usual strided Toeplitz construction; with r[0] real it is exactly Hermitian
    lags = np.concatenate([r[::-1], r[1:].conj()])
    return np.lib.stride_tricks.sliding_window_view(lags, n)[::-1].copy()


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor A with A A^H = cov for a Hermitian PSD matrix."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard circularly symmetric complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _angle_from(origin, points):
    d = points - np.asarray(origin)
    return np.arctan2(d[:, 1], d[:, 0])


def draw_realization(config: ScenarioConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one noise-normalized channel realization for the scenario.

    The first ``n_blocked`` users receive the extra blockage pathloss on the
    direct link.  Both the direct and the RIS-user channels carry the 1/sigma
    noise normalization; the BS-RIS amplitude sits in ``a_vec``.
    """
    cfg = config
    k, n_bs, n_ris = cfg.n_users, cfg.n_bs, cfg.n_ris
    sigma2 = cfg.noise_power

    # users uniform in the circle
    radii = cfg.user_circle_radius * np.sqrt(rng.uniform(size=k))
    angs = rng.uniform(0.0, 2.0 * np.pi, size=k)
    pos = np.asarray(cfg.user_circle_center) + np.stack(
        [radii * np.cos(angs), radii * np.sin(angs)], axis=1)

    dist_bs = np.linalg.norm(pos - np.asarray(cfg.bs_pos), axis=1)
    dist_ris = np.linalg.norm(pos - np.asarray(cfg.ris_pos), axis=1)
    ang_bs = _angle_from(cfg.bs_pos, pos)
    ang_ris = _angle_from(cfg.ris_pos, pos)
    blocked = np.arange(k) < cfg.n_blocked

    dist_sr = float(np.linalg.norm(np.asarray(cfg.ris_pos) - np.asarray(cfg.bs_pos)))
    amp_sr = math.sqrt(10.0 ** (-pathloss_db(cfg.pathloss_bs_ris, dist_sr) / 10.0))
    a_vec, b_vec = los_bs_ris(n_ris, n_bs, amplitude=amp_sr)

    k_factor = 10.0 ** (cfg.rician_db / 10.0)
    los_w = math.sqrt(k_factor / (1.0 + k_factor))
    nlos_w = math.sqrt(1.0 / (1.0 + k_factor))

    h_direct = np.empty((k, n_bs), dtype=complex)
    h_ris_user = np.empty((k, n_ris), dtype=complex)
    for u in range(k):
        loss = pathloss_db(cfg.pathloss_direct, dist_bs[u])
        if blocked[u]:
            loss += cfg.blockage_extra_db
        gain_d = 10.0 ** (-loss / 10.0) / sigma2
        fac_d = psd_factor(laplacian_covariance(n_bs, ang_bs[u], cfg.asd))
        h_direct[u] = math.sqrt(gain_d) * (fac_d @ complex_gaussian(n_bs, rng))

        gain_r = 10.0 ** (-pathloss_db(cfg.pathloss_ris_user, dist_ris[u]) / 10.0) / sigma2
        fac_r = psd_factor(laplacian_covariance(n_ris, ang_ris[u], cfg.asd))
        los = steering_vector(n_ris, ang_ris[u])
        scatter = fac_r @ complex_gaussian(n_ris, rng)
        h_ris_user[u] = math.sqrt(gain_r) * (los_w * los + nlos_w * scatter)

    h_cascaded = h_ris_user * a_vec[None, :]
    meta = RealizationMeta(user_pos=pos, dist_bs=dist_bs, dist_ris=dist_ris,
                           blocked=blocked)
    return ChannelRealization(h_direct=h_direct, h_cascaded=h_cascaded,
                              b_vec=b_vec, a_vec=a_vec, meta=meta)
