"""Scenario geometry and random channel generation.

Generates direct BS-user channels (correlated Rayleigh), RIS-user channels
(Rician with a steering-vector LOS component) and the rank-one LOS BS-RIS
link a*b^H.  All channels are pre-scaled by 1/sigma so that the downstream
AWGN has unit variance per receive dimension.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .gram import UNIT_MODULUS_TOL


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
        for name, low in (("n_bs", 1), ("n_users", 1), ("n_ris", 1), ("n_blocked", 0),
                          ("seed", 0)):
            check_int(name, getattr(self, name), low)
        for name in ("tx_dbm", "noise_dbm", "blockage_extra_db", "rician_db"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            # beyond these, 10^(value/10) and its inverse are 0 or overflow
            low, high = 10 * sys.float_info.min_10_exp, 10 * sys.float_info.max_10_exp
            if not low <= value <= high:
                raise ValueError(f"{name} must lie in [{low}, {high}] dB, got {value!r}")
        if not (_finite_real(self.user_circle_radius) and self.user_circle_radius > 0):
            raise ValueError("user_circle_radius must be a positive finite real number, "
                             f"got {self.user_circle_radius!r}")
        if self.n_blocked > self.n_users:
            raise ValueError("n_blocked must lie in [0, n_users]")
        if not (_finite_real(self.asd) and 0 <= self.asd <= math.pi):
            raise ValueError(f"asd must be a finite real number in [0, pi] radians, "
                             f"got {self.asd!r}")
        for name in ("bs_pos", "ris_pos", "user_circle_center"):
            pos = getattr(self, name)
            if not (len(pos) == 2 and all(_finite_real(c) for c in pos)):
                raise ValueError(f"{name} must be a pair of finite real numbers, got {pos!r}")
        if tuple(self.bs_pos) == tuple(self.ris_pos):
            raise ValueError(f"bs_pos and ris_pos must differ, both are {self.bs_pos!r}")

    @property
    def tx_power(self) -> float:
        """Transmit power in linear scale (mW)."""
        return 10.0 ** (self.tx_dbm / 10.0)

    @property
    def noise_power(self) -> float:
        """Noise power sigma^2 in linear scale (mW)."""
        return 10.0 ** (self.noise_dbm / 10.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the composite channel: three arrays and a table of solves.

    Rows of ``h_direct`` (K, N_B) are the direct per-user channels, rows of
    ``h_cascaded`` (K, N_R) are the RIS-user channels already multiplied by
    diag(a); other shapes raise ValueError.  ``b_vec`` (N_B,) has unit
    Euclidean norm within ``gram.UNIT_MODULUS_TOL``, else ValueError, so the
    Gram identity holds and the full channel for phase vector theta is
    ``h_direct + h_cascaded @ theta * b_vec^H``.

    ``solves`` holds the continuous phase solves of every method run on it,
    read and written only by ``alloc.optimize_phases`` under (users, p_bar)
    as read-only (theta, G, gram): the refined phases, the phase factor they
    were refined on and the subset's decomposition (C, D and eig).  It
    returns the stored triples: ``alloc.evaluate_allocation`` refines THP's
    binary phases on G, and linear ZF and ``dpc_rate`` read theta and gram.
    ``dataclasses.replace`` derives one with an empty table.  Construction sets
    the three arrays read-only in place, so a realization never changes after it.
    """

    h_direct: np.ndarray  # (K, N_B)
    h_cascaded: np.ndarray  # (K, N_R)
    b_vec: np.ndarray  # (N_B,), ||b||_2 = 1
    solves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d, c, b = self.h_direct.shape, self.h_cascaded.shape, self.b_vec.shape
        if not (len(d) == len(c) == 2 and c[0] == d[0] and b == d[1:]):
            raise ValueError(f"h_direct, h_cascaded and b_vec must have shapes (K, N_B), (K, N_R) "
                             f"and (N_B,), got {d}, {c} and {b}")
        norm = np.linalg.norm(self.b_vec)
        if not abs(norm - 1.0) <= UNIT_MODULUS_TOL:  # NaN fails
            raise ValueError(f"b_vec must have unit Euclidean norm, got {norm!r}")
        for array in (self.h_direct, self.h_cascaded, self.b_vec):
            array.setflags(write=False)

    @property
    def n_users(self) -> int:
        return self.h_direct.shape[0]

    @property
    def n_bs(self) -> int:
        return self.h_direct.shape[1]

    @property
    def n_ris(self) -> int:
        return self.h_cascaded.shape[1]


def check_int(name: str, value, low: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``low`` (a bool is not one)."""
    if type(value) is int and value >= low:  # the common case, without the ABC check
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def steering_vector(n_elems: int, angle: float) -> np.ndarray:
    """Half-wavelength ULA steering vector exp(j*pi*(m-1)*sin(angle))."""
    check_int("n_elems", n_elems)
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


def rule_points(n: int) -> int:
    """Points N' of the periodic grid on which an n-element covariance is evaluated.

    By Jacobi-Anger, exp(j*pi*d*sin(a + t)) = sum_m J_m(pi*d) exp(j*m*(a + t)),
    and for every lag d < n the modes |m| > M = ceil(x + 10*x**(1/3) + 20),
    x = pi*(n-1), sum to below 1e-16 in absolute value.  N' = 2M + 1 points
    resolve the rest.
    """
    x = math.pi * (n - 1)
    return 2 * math.ceil(x + 10.0 * x ** (1.0 / 3.0) + 20.0) + 1


@functools.lru_cache(maxsize=2)  # the two array sizes of a draw
def _rule(asd: float, points: int) -> tuple:
    """Read-only (cos s, sin s, v): a spread's rule on `points` (odd) offsets s.

    s = linspace(-pi, pi, points + 1)[:-1].  The truncated Laplacian density
    exp(-c|t|) on [-pi, pi], c = sqrt(2)/asd, has the Fourier coefficients
    W_m = (1 - (-1)**m e**(-c*pi)) / ((1 + (m/c)**2) (1 - e**(-c*pi))), that
    is 1 / (1 + (m/c)**2) for even m and coth(c*pi/2) / (1 + (m/c)**2) for
    odd m: no step overflows or divides 0 by 0 for any asd > 0.  The real
    weights v are W_m for |m| <= M = (points - 1)/2, times (-1)**m for the
    FFT's index origin at s = -pi, sent to the points by an inverse FFT, so
    sum_k v_k exp(j*m*s_k) = W_m for every |m| <= M.
    """
    c = math.sqrt(2.0) / asd
    m = np.arange(points // 2 + 1)
    modes = np.where(m & 1, -1.0 / math.tanh(c * math.pi / 2.0), 1.0) / (1.0 + (m / c) ** 2)
    s = np.linspace(-np.pi, np.pi, points + 1)[:-1]
    rule = (np.cos(s), np.sin(s), np.fft.irfft(modes, points))
    for table in rule:
        table.setflags(write=False)
    return rule


def _running_powers(first, ratio: np.ndarray, rows: int) -> np.ndarray:
    """Rows first * ratio**p for p < rows, each the previous row times ratio."""
    out = np.empty((rows, ratio.size), dtype=complex)
    out[0] = first
    for p in range(1, rows):
        np.multiply(out[p - 1], ratio, out=out[p])
    return out


def _lags(n: int, nominal_angle: float, rule: tuple) -> np.ndarray:
    """r[d] = sum_k v_k exp(j*pi*d*sin(phi_k)) for d < n, r[0] = 1, on a rule (cos s, sin s, v).

    phi = nominal_angle + s.  With d = q*B + p, B = ceil(sqrt(n)), r is one
    matrix product of a table of exp(j*pi*p*sin(phi_k)) for p < B and one of
    v_k exp(j*pi*q*B*sin(phi_k)) for q < ceil(n/B).  Both are running
    products of e = exp(j*pi*sin(phi)), the only exponentials: e**B is the
    first table's last row times e.  Lag d takes about d roundings.
    """
    cos_s, sin_s, v = rule
    # sin(a + s) = sin a cos s + cos a sin s
    x = np.pi * (math.sin(nominal_angle) * cos_s + math.cos(nominal_angle) * sin_s)
    e = np.empty(x.size, dtype=complex)  # exp(j*x) bit for bit, and faster
    np.cos(x, out=e.real)
    np.sin(x, out=e.imag)
    step = math.isqrt(n - 1) + 1  # B = ceil(sqrt(n))
    low = _running_powers(1.0, e, step)
    high = _running_powers(v, low[-1] * e, math.ceil(n / step))
    r = (high @ low.T).ravel()[:n]  # r[q*B + p]
    r[0] = 1.0
    return r


def laplacian_covariance(n: int, nominal_angle: float, asd: float) -> np.ndarray:
    """Spatial covariance for a Laplacian angle density on a half-wavelength ULA.

    Entry (m, k) is r[m - k] (r[-d] = conj(r[d])), the integral of
    exp(j*pi*(m-k)*sin(phi)) against a Laplacian density centered at
    nominal_angle with standard deviation asd, truncated to +-pi around the
    center and renormalized.  The lags depend only on the density's Fourier
    modes |m| <= M (see rule_points), which _rule takes in closed form and
    keeps exactly on rule_points(n) points; _lags sums them there, within
    max(1e-13, 2*pi*(n-1)*eps) of that sum taken directly.  Against the
    integral by composite Gauss-Legendre (tools/covariance_accuracy.py) that
    is at most 1.5e-13 from 0.1 to 180 deg at n <= 512.  At asd = 0 the lags
    are the steering vector, r[d] = exp(j*pi*d*sin(nominal_angle)): the
    outer product v v^H, the limit of small spreads.

    The result is read-only, a strided view of the 2n - 1 lags, O(n) memory:
    entry (m, k) and every entry on its diagonal share one element, so the
    matrix is exactly Hermitian.  np.array(cov) gives a writable copy.
    """
    check_int("n", n)
    if not math.isfinite(nominal_angle):
        raise ValueError(f"nominal_angle must be finite, got {nominal_angle!r}")
    if not 0 <= asd < math.inf:  # NaN fails
        raise ValueError(f"asd must be nonnegative and finite, got {asd!r}")
    if asd == 0:
        r = steering_vector(n, nominal_angle)
    else:
        r = _lags(n, nominal_angle, _rule(float(asd), rule_points(n)))
    # toeplitz(r, r^*): row i is the window at n-1-i of [r_{n-1}, ..., r_0, ..., r_{n-1}^*],
    # the usual strided Toeplitz construction; with r[0] real it is exactly Hermitian.
    # Column k is lags[n-1+k] down to lags[k], one contiguous run read backwards, which
    # is how the Cholesky copies it into LAPACK's column-major buffer
    lags = np.concatenate([r[::-1], r[1:].conj()])
    return np.lib.stride_tricks.sliding_window_view(lags, n)[::-1]


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor A with A A^H = cov for a Hermitian PSD matrix.

    Reads the lower triangle of cov in any memory layout, a read-only strided
    view included; both factorizations copy it into a column-major buffer
    first, so the layout changes no bit of A.  A is the Cholesky factor when
    cov is positive definite.  Otherwise A = V sqrt(max(lambda, 0)) from the
    eigendecomposition: eigenvalues down to -1e-10 * lambda_max are rounding
    and clip to 0, a more negative one raises ValueError.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        if vals[0] < -1e-10 * vals[-1]:
            raise ValueError("covariance is not positive semidefinite: "
                             f"lambda_min = {vals[0]:.3g}, lambda_max = {vals[-1]:.3g}") from None
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
    noise normalization; the cascaded rows also carry diag(a) of the BS-RIS
    link, with its amplitude.
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
        if u < cfg.n_blocked:
            loss += cfg.blockage_extra_db
        gain_d = 10.0 ** (-loss / 10.0) / sigma2
        fac_d = psd_factor(laplacian_covariance(n_bs, ang_bs[u], cfg.asd))
        h_direct[u] = math.sqrt(gain_d) * (fac_d @ complex_gaussian(n_bs, rng))

        gain_r = 10.0 ** (-pathloss_db(cfg.pathloss_ris_user, dist_ris[u]) / 10.0) / sigma2
        fac_r = psd_factor(laplacian_covariance(n_ris, ang_ris[u], cfg.asd))
        los = steering_vector(n_ris, ang_ris[u])
        scatter = fac_r @ complex_gaussian(n_ris, rng)
        h_ris_user[u] = math.sqrt(gain_r) * (los_w * los + nlos_w * scatter)

    return ChannelRealization(h_direct=h_direct, h_cascaded=h_ris_user * a_vec[None, :],
                              b_vec=b_vec)
