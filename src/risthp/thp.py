"""Zero-forcing distributed Tomlinson-Harashima precoding.

LQ-based filter construction, modulo arithmetic, per-user SE of the scalar
modulo channels via the wrapped-Gaussian entropy, high-SNR asymptotes with
the shaping loss, MSE-based decoding order and a symbol-level simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# per-user shaping loss of uniform (cubic) signaling: log2(pi*e/6)
SHAPING_LOSS_BITS = math.log2(math.pi * math.e / 6.0)

# THP's rank rule: the rows of H count as dependent when
# sigma_min <= _RANK_TOL * sigma_max (``check_full_row_rank``, run by every
# LQ factorisation).  Linear ZF and the phase branch decide by gram.RANK_TOL
# on Gram-form eigenvalues instead; its comment says why the two differ.
_RANK_TOL = 1e-10

# below this per-dimension std the wrapped Gaussian equals the plain Gaussian
# to far beyond the grid rule's accuracy (tail mass < 1e-130 outside the cell)
_NARROW_SIGMA = 0.02
# above this per-dimension std the wrapped density is uniform to within
# 2*exp(-2*pi^2*sigma^2) < 6e-9: the entropy is 0 to ~1e-17, past the grid's accuracy
_WIDE_SIGMA = 1.0
_N_IMAGES = 20
# Between the two, -g log2 g is periodic and analytic on [-1/2, 1/2), so the
# trapezoid rule on the grid t_i = i/_N_GRID - 1/2 converges geometrically:
# 128 points agree with 8192 to ~2e-15 on that range (64 points to ~2e-12).
_N_GRID = 128
_GRID_IMAGES = ((np.arange(_N_GRID) / _N_GRID - 0.5)[:, None]
                + np.arange(-_N_IMAGES, _N_IMAGES + 1))  # t_i + k, |k| <= _N_IMAGES


class RankDeficientError(ValueError):
    """Channel rows are (numerically) linearly dependent.

    ``deficient`` marks which matrices of the checked stack are dependent, as a
    bool array over its leading axes (0-d for a single matrix).
    """

    def __init__(self, message: str, deficient=True):
        super().__init__(message)
        self.deficient = np.asarray(deficient, dtype=bool)


@dataclass
class ThpFilters:
    l_mat: np.ndarray  # (K, K) lower triangular, positive real diagonal
    q_mat: np.ndarray  # (K, N_B) orthonormal rows
    b_feedback: np.ndarray  # (K, K) unit lower triangular
    p_forward: np.ndarray  # (N_B, K)
    f_receive: np.ndarray  # (K, K) diagonal
    beta: float
    order: np.ndarray  # permutation of the allocated users
    diag_l: np.ndarray  # (K,) positive reals


@dataclass
class ModuloSymbols:
    """Symbol-level record of one simulated transmission (arrays are K x n)."""

    s: np.ndarray
    v: np.ndarray
    a_perturb: np.ndarray
    x: np.ndarray  # (N_B, n)
    y: np.ndarray
    n: np.ndarray
    d_hat: np.ndarray

    @property
    def mean_v_power(self) -> np.ndarray:
        return np.mean(np.abs(self.v) ** 2, axis=1)

    @property
    def mean_x_power(self) -> float:
        return float(np.mean(np.sum(np.abs(self.x) ** 2, axis=0)))

    @property
    def error(self) -> np.ndarray:
        """Per-user residual Mod(y - s)."""
        return modulo(self.y - self.s)


def modulo(z):
    """Componentwise modulo onto [-0.5, 0.5), real and imaginary parts."""
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return modulo(z.real) + 1j * modulo(z.imag)
    return z - np.floor(z + 0.5)


def check_full_row_rank(h: np.ndarray) -> None:
    """Raise RankDeficientError when the rows of H are numerically dependent.

    H may be a stack of matrices over leading axes: one batched SVD tests them
    all, and the error's ``deficient`` marks the dependent ones, so a caller
    can keep the others.  An H with no rows raises ValueError: it is no
    channel, not a deficient one.  More rows than columns are always
    dependent; the SVD of such an H holds only min(K, N) singular values, so
    it cannot show that.
    """
    shape = np.shape(h)
    rows, cols = shape[-2:]
    if rows == 0:
        raise ValueError("channel matrix is empty: it has no rows")
    if rows > cols:
        raise RankDeficientError(f"{rows} rows in {cols} dimensions are dependent",
                                 np.ones(shape[:-2], dtype=bool))
    sv = np.linalg.svd(h, compute_uv=False)
    deficient = sv[..., -1] <= _RANK_TOL * sv[..., 0]
    if np.any(deficient):
        raise RankDeficientError("channel matrix is rank deficient", deficient)


def lq_decompose(h: np.ndarray):
    """LQ decomposition H = L Q with positive real diagonal of L.

    Q has orthonormal rows; raises RankDeficientError when the rows of H are
    numerically dependent.  A stack of matrices over leading axes is factored
    matrix by matrix, as ``np.linalg`` does.
    """
    h = np.asarray(h, dtype=complex)
    check_full_row_rank(h)
    q_t, r = np.linalg.qr(np.swapaxes(h.conj(), -1, -2))
    l_mat = np.swapaxes(r.conj(), -1, -2)
    q_mat = np.swapaxes(q_t.conj(), -1, -2)
    # rotate out the diagonal phases so L_kk > 0
    phases = np.exp(-1j * np.angle(np.diagonal(l_mat, axis1=-2, axis2=-1)))
    l_mat = l_mat * phases[..., None, :]
    q_mat = q_mat * phases[..., :, None].conj()
    return l_mat, q_mat


def build_filters(h: np.ndarray, order, tx_power: float) -> ThpFilters:
    """THP filters for the given decoding order and transmit power."""
    if not tx_power > 0:
        raise ValueError("tx_power must be positive")
    order = np.asarray(order)
    h_ord = np.asarray(h)[order]
    k = h_ord.shape[0]
    l_mat, q_mat = lq_decompose(h_ord)
    diag_l = np.real(np.diag(l_mat)).copy()
    beta = math.sqrt(6.0 * tx_power / k)
    b_feedback = l_mat / diag_l[:, None]
    p_forward = beta * q_mat.conj().T
    f_receive = np.diag(1.0 / (beta * diag_l))
    return ThpFilters(l_mat=l_mat, q_mat=q_mat, b_feedback=b_feedback,
                      p_forward=p_forward, f_receive=f_receive, beta=beta,
                      order=order, diag_l=diag_l)


def wrapped_noise_entropy(var_complex: float) -> float:
    """Differential entropy (bits) of complex Gaussian noise wrapped to the unit square.

    Twice the entropy of a real N(0, var/2) wrapped to [-0.5, 0.5).  Always
    <= 0; tends to 0 (uniform) for large variance.
    """
    if not var_complex > 0:
        raise ValueError("variance must be positive")
    sigma2 = var_complex / 2.0
    sigma = math.sqrt(sigma2)
    if sigma < _NARROW_SIGMA:
        # wrapping is a no-op at this scale; use the Gaussian entropy directly
        h_real = 0.5 * math.log2(2.0 * math.pi * math.e * sigma2)
    elif sigma >= _WIDE_SIGMA:
        h_real = 0.0
    else:
        # g >= exp(-312.5) / sigma > 0 on the grid, so g log2 g is finite
        g = np.sum(np.exp(-0.5 * (_GRID_IMAGES / sigma) ** 2), axis=1) \
            / (math.sqrt(2.0 * math.pi) * sigma)
        h_real = -float(np.mean(g * np.log2(g)))
    return 2.0 * h_real


def per_user_se(l_kk: float, p_bar: float, mode: str = "exact") -> float:
    """SE (bits) of one scalar modulo channel with gain L_kk at power p_bar."""
    if not (l_kk > 0 and p_bar > 0):
        raise ValueError("l_kk and p_bar must be positive")
    if mode == "asymptote":
        return float(se_asymptote(l_kk, p_bar))
    if mode == "exact":
        return -wrapped_noise_entropy(1.0 / (6.0 * p_bar * l_kk ** 2))
    raise ValueError(f"unknown mode {mode!r}")


def se_asymptote(diag_l, p_bar: float) -> np.ndarray:
    """High-SNR SE (bits) of the modulo channels with gains diag_l at power p_bar.

    log2(6 p_bar L_kk^2 / (pi e)) entry by entry, for any array of gains.
    """
    diag_l = np.asarray(diag_l, dtype=float)
    if not (np.all(diag_l > 0) and p_bar > 0):  # NaN fails
        raise ValueError("l_kk and p_bar must be positive")
    return np.log2(6.0 * p_bar * diag_l ** 2 / (math.pi * math.e))


def sum_se_asymptote(h: np.ndarray, p_bar: float) -> float:
    """High-SNR THP sum SE: log2 det(p_bar H H^H) - K log2(pi e / 6)."""
    if not p_bar > 0:
        raise ValueError("p_bar must be positive")
    h = np.asarray(h, dtype=complex)
    k = h.shape[0]
    gram = h @ h.conj().T
    check_full_row_rank(h)
    _, logdet = np.linalg.slogdet(gram)
    return k * math.log2(p_bar) + logdet / math.log(2.0) - k * SHAPING_LOSS_BITS


def thp_mse(diag_l, tx_power: float) -> float:
    """Analytic E||d_hat - d||^2 = (K / (6 P_Tx)) sum_k 1/L_kk^2, K = diag_l.size."""
    diag_l = np.asarray(diag_l, dtype=float)
    if not np.all(diag_l > 0):  # NaN fails
        raise ValueError("all diagonal entries must be positive")
    if not tx_power > 0:
        raise ValueError("tx_power must be positive")
    return diag_l.size / (6.0 * tx_power) * float(np.sum(1.0 / diag_l ** 2))


def order_users(h: np.ndarray):
    """MSE-based decoding order and the gains it gives: (order, diag_l).

    Built from the last decoding position backwards: at each step the user
    whose channel component orthogonal to the span of the still-unplaced
    users' channels has maximal squared norm L_kk^2 = 1/[(H_R H_R^H)^-1]_kk
    (H_R: the unplaced rows) is placed, the first one on ties, and diag_l
    is the diagonal of L in ``lq_decompose(h[order])``.  A stack of matrices
    over leading axes is ordered matrix by matrix.

    With R = L^H of one ``lq_decompose(h)``, whose rank test is the only one,
    and W = R^-1, (H H^H)^-1 = W W^H: the diagonal entries are the squared
    row norms of W, which avoids squaring the condition number of H.
    Placing user j removes row j of H; the inverse of the remaining Gram
    matrix is then W' W'^H, W' being W with row w_j projected out of every
    row (modified Gram-Schmidt on R^-1, Hassibi's square-root ordering).  So
    one inverse serves every step.  Placed rows are masked with +inf.
    """
    h = np.asarray(h, dtype=complex)
    r = np.swapaxes(lq_decompose(h)[0].conj(), -1, -2)
    lead, k = h.shape[:-2], h.shape[-2]
    w = np.linalg.inv(r).reshape(-1, k, k)
    stack = np.arange(len(w))
    order, diag_l = np.empty((len(w), k), dtype=int), np.empty((len(w), k))
    placed = np.zeros((len(w), k), dtype=bool)
    for pos in range(k - 1, -1, -1):
        inv_diag = np.sum(np.abs(w) ** 2, axis=2)
        inv_diag[placed] = np.inf
        best = np.argmin(inv_diag, axis=1)
        best_sq = inv_diag[stack, best]
        order[:, pos], diag_l[:, pos] = best, best_sq ** -0.5
        placed[stack, best] = True
        if pos:
            row = w[stack, best]
            w = w - ((w @ row.conj()[:, :, None]) / best_sq[:, None, None]) * row[:, None, :]
    return order.reshape(*lead, k), diag_l.reshape(*lead, k)


def simulate_transmission(filters: ThpFilters, h: np.ndarray, n_symbols: int,
                          rng: np.random.Generator,
                          noise_power: float = 1.0) -> ModuloSymbols:
    """Run the successive modulo feedback loop over n_symbols channel uses.

    Data symbols have independent real/imaginary parts uniform on
    [-0.5, 0.5).  Receiver-side quantities use the effective channel
    h[order] with unit-variance AWGN scaled by sqrt(noise_power).
    """
    h_ord = np.asarray(h)[filters.order]
    k = h_ord.shape[0]
    l_mat = filters.l_mat
    diag_l = filters.diag_l

    s = rng.uniform(-0.5, 0.5, size=(k, n_symbols)) \
        + 1j * rng.uniform(-0.5, 0.5, size=(k, n_symbols))
    v = np.empty_like(s)
    for i in range(k):
        feedback = (l_mat[i, :i] @ v[:i]) / diag_l[i] if i else 0.0
        v[i] = modulo(s[i] - feedback)

    # equivalent linear form: v = s + (I - B) v + a with Gaussian-integer a
    a_perturb = filters.b_feedback @ v - s
    x = filters.p_forward @ v
    if noise_power > 0:
        noise = math.sqrt(noise_power / 2.0) * (
            rng.standard_normal((k, n_symbols))
            + 1j * rng.standard_normal((k, n_symbols)))
    else:
        noise = np.zeros((k, n_symbols), dtype=complex)
    y_pre = filters.f_receive @ (h_ord @ x + noise)
    y = modulo(y_pre)
    return ModuloSymbols(s=s, v=v, a_perturb=a_perturb, x=x, y=y, n=noise,
                         d_hat=y_pre - a_perturb)
