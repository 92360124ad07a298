"""Gram-matrix decomposition of the rank-one-link channel and DPC sum SE.

With theta_bar = [theta^H, 1]^H the Gram matrix of the effective channel
satisfies H H^H = C + D theta_bar theta_bar^H D^H, where
C = H_d (I - b b^H) H_d^H and D = [H_c, H_d b].
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

# An eigenvalue of a K x K Gram-form matrix (C, or H H^H = C + d d^H) at or
# below RANK_TOL * lambda_max counts as zero.  This rule decides whether C
# has exactly one zero eigenvalue, which selects the closed-form alignment
# branch and, as that eigenvalue's eigenvector, its direction; and it is the
# only feasibility rule of linear ZF: a subset whose C + d d^H has a zero
# eigenvalue scores 0, in the phase sweep and in ``baseline.zf_linear`` alike
# (a singular-value ratio of about 3.2e-5).  THP decides on H itself, by
# thp._RANK_TOL on its singular values, because it factors H by QR and never
# squares its condition number; a ratio of 1e-20, the square of that
# threshold, is below what a Gram matrix in double precision resolves.
RANK_TOL = 1e-9


class DegenerateRankError(RuntimeError):
    """More than one eigenvalue of C is numerically zero."""


@dataclass
class GramDecomposition:
    """The pair (C, D) of one user subset, or of a stack of subsets of one size.

    A stack holds C as (c, K, K) and D as (c, K, N_R + 1), one subset per
    leading index, and ``users`` holds one tuple per subset; ``eig`` and
    ``factor`` broadcast over the stack.
    """

    c_mat: np.ndarray  # (K, K) Hermitian PSD
    d_mat: np.ndarray  # (K, N_R + 1)
    users: tuple  # the rows of the realization, in the order C and D hold them

    @functools.cached_property
    def eig(self) -> tuple:
        """Read-only (lam, V), C = V diag(lam) V^H, lam ascending, clipped at 0 (C is PSD)."""
        lam, vecs = np.linalg.eigh(self.c_mat)
        lam = np.clip(lam, 0.0, None)
        lam.flags.writeable = vecs.flags.writeable = False
        return lam, vecs

    def factor(self, p_bar: float) -> np.ndarray:
        """G = diag(1/p_bar + lam)^-1/2 V^H D, so G^H G = D^H (I/p_bar + C)^-1 D.

        p_bar = inf gives C^-1/2 D (invertible C only).  Once
        p_bar * lam_max * eps >~ 1, a zero eigenvalue of C is not resolved
        from rounding: G is defined and finite, but not accurate.
        """
        if not p_bar > 0:
            raise ValueError("p_bar must be positive")
        lam, vecs = self.eig
        return (conj_t(vecs) @ self.d_mat) / np.sqrt(1.0 / p_bar + lam)[..., None]

    def take(self, mask) -> GramDecomposition:
        """The subsets of a stack that the bool array ``mask`` selects, as a stack."""
        return GramDecomposition(self.c_mat[mask], self.d_mat[mask],
                                 tuple(itertools.compress(self.users, mask)))


def conj_t(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes: A^H, matrix by matrix over a stack."""
    return a.conj().swapaxes(-1, -2)


def check_users(real, users):
    """The subset as a list of row indices of ``real``.

    Raises ValueError naming the first entry that is not an integer in
    [0, K): negative, too large, a bool or not an integer (numpy integers
    are integers).  A repeated user passes; its subset is rank deficient.
    A stack of subsets is a 2-D integer array (c, K), returned as it is;
    an array of another dtype (bool included) fails at its first entry.
    """
    if isinstance(users, np.ndarray) and users.ndim == 2:
        bad = (users[(users < 0) | (users >= real.n_users)]
               if users.dtype.kind in "iu" else users.ravel())
        if bad.size:
            raise ValueError(f"user index {bad[0]!r} is not an integer in "
                             f"[0, {real.n_users})")
        return users
    users = list(users)
    for user in users:
        if (isinstance(user, bool) or not isinstance(user, numbers.Integral)
                or not 0 <= user < real.n_users):
            raise ValueError(f"user index {user!r} is not an integer in "
                             f"[0, {real.n_users})")
    return users


def decompose(real, users) -> GramDecomposition:
    """Build C and D for the selected user subset, or for a stack of subsets.

    ``users`` is one subset, or a 2-D integer array (c, K) of subsets
    (``check_users``); a stack gets one set of products for all of them.
    """
    users = check_users(real, users)
    stacked = isinstance(users, np.ndarray)
    if not (users.size if stacked else users):
        raise ValueError("user subset must be nonempty")
    h_d = real.h_direct[users]
    h_c = real.h_cascaded[users]
    b = real.b_vec
    h_d_b = h_d @ b
    c_mat = h_d @ conj_t(h_d) - h_d_b[..., :, None] * h_d_b[..., None, :].conj()
    c_mat = 0.5 * (c_mat + conj_t(c_mat))
    d_mat = np.concatenate([h_c, h_d_b[..., None]], axis=-1)
    users = tuple(map(tuple, users.tolist())) if stacked else tuple(users)
    return GramDecomposition(c_mat, d_mat, users)


def effective_channel(real, users, theta: np.ndarray) -> np.ndarray:
    """H = H_d + H_c theta b^H for the selected rows.

    For a stack of subsets (a 2-D integer array, ``check_users``) ``theta``
    is one phase vector for every subset or one row per subset (c, N_R), and
    H is (c, K, N_B), from one product and one unit-modulus check.
    """
    theta = np.asarray(theta)
    if not np.max(np.abs(np.abs(theta) - 1.0)) <= 1e-9:  # NaN fails
        raise ValueError("theta entries must be unit modulus")
    users = check_users(real, users)
    h_c_theta = (real.h_cascaded[users] @ theta[..., None])[..., 0]
    return real.h_direct[users] + h_c_theta[..., None] * real.b_vec.conj()


def extend_theta(theta: np.ndarray) -> np.ndarray:
    """theta_bar = [theta^H, 1]^H, i.e. theta with a trailing 1."""
    return np.concatenate([np.asarray(theta, dtype=complex), [1.0]])


def count_zero_eigenvalues(lam: np.ndarray):
    """Number of eigenvalues that count as zero (<= RANK_TOL * lambda_max).

    ``lam`` holds the eigenvalues of one Gram-form matrix along its last axis;
    a stack of spectra gives one count per matrix.
    """
    lam_max = np.maximum(np.max(lam, axis=-1, keepdims=True), 0.0)
    return np.sum(lam <= RANK_TOL * lam_max, axis=-1)


def _check_theta_bar(theta_bar):
    theta_bar = np.asarray(theta_bar, dtype=complex)
    if not abs(theta_bar[-1] - 1.0) <= 1e-9:  # NaN fails
        raise ValueError("last entry of theta_bar must equal 1")
    return theta_bar


def rayleigh_objective(gram: GramDecomposition, theta_bar, p_bar: float) -> float:
    """Quadratic form theta_bar^H D^H (I/p_bar + C)^-1 D theta_bar = ||G theta_bar||^2."""
    y = gram.factor(p_bar) @ np.asarray(theta_bar, dtype=complex)
    return float(np.real(np.vdot(y, y)))


def dpc_sum_se(gram: GramDecomposition, theta_bar, p_bar: float) -> float:
    """DPC sum SE log2 det(I + p_bar H H^H) = sum_k log2(1 + p_bar lam_k) + log2(1 + quad)."""
    quad = rayleigh_objective(gram, _check_theta_bar(theta_bar), p_bar)
    lam, _ = gram.eig
    return float(np.sum(np.log2(1.0 + p_bar * lam)) + np.log2(1.0 + quad))


def dpc_asymptote(gram: GramDecomposition, theta_bar, p_bar: float) -> float:
    """High-power DPC sum SE.

    Full-rank C: log2 det(p_bar C) + log2(theta_bar^H D^H C^-1 D theta_bar).
    Exactly one zero eigenvalue: sum_k>1 log2(lambda_k p_bar)
    + log2(p_bar |u_1^H D theta_bar|^2), with lambda ascending.
    """
    if not p_bar > 0:
        raise ValueError("p_bar must be positive")
    theta_bar = _check_theta_bar(theta_bar)
    lam, vecs = gram.eig
    n_zero = count_zero_eigenvalues(lam)
    if n_zero == 0:
        quad = rayleigh_objective(gram, theta_bar, np.inf)
        return np.sum(np.log2(lam * p_bar)) + np.log2(quad)
    if n_zero == 1:
        gain = np.abs(vecs[:, 0].conj() @ gram.d_mat @ theta_bar) ** 2
        return np.sum(np.log2(lam[1:] * p_bar)) + np.log2(p_bar * gain)
    raise DegenerateRankError(
        f"{n_zero} eigenvalues of C below tolerance; asymptote undefined")
