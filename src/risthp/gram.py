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

# The one rank rule: an eigenvalue of C or C + d d^H at or below RANK_TOL * lambda_max, or a
# singular value of H at or below sqrt(RANK_TOL) * sigma_max, counts as zero.  It picks the
# alignment branch; a subset with a zero is infeasible for linear ZF and THP alike.
RANK_TOL = 1e-9
UNIT_MODULUS_TOL = 1e-12  # the one bound on | |theta_n| - 1 | (``is_unit_modulus``)


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

    def factor(self, p_bar) -> np.ndarray:
        """G = diag(1/p_bar + lam)^-1/2 V^H D, so G^H G = D^H (I/p_bar + C)^-1 D.

        ``p_bar`` is one number, or one per subset of a stack (c,).
        p_bar = inf gives C^-1/2 D (invertible C only).  Once
        p_bar * lam_max * eps >~ 1, a zero eigenvalue of C is not resolved
        from rounding: G is defined and finite, but not accurate.  Raises
        ValueError naming the first p_bar that is not positive (NaN fails),
        or for another count of them.
        """
        p_bar = np.asarray(p_bar, dtype=float)
        if p_bar.ndim and p_bar.shape != self.c_mat.shape[:-2]:
            raise ValueError(f"{p_bar.size} powers p_bar for {self.c_mat[..., 0, 0].size} subsets")
        bad = p_bar[~(p_bar > 0)]
        if bad.size:
            raise ValueError(f"p_bar must be positive, got {bad[0].item()!r}")
        lam, vecs = self.eig
        return (conj_t(vecs) @ self.d_mat) / np.sqrt(1.0 / p_bar[..., None] + lam)[..., None]

    def take(self, index) -> GramDecomposition:
        """The subsets of a stack that a bool mask selects, as a stack, or the one at a position.

        A computed ``eig`` comes along, read-only; none is computed here.
        """
        users = (self.users[index] if isinstance(index, numbers.Integral)
                 else tuple(itertools.compress(self.users, index)))
        taken = GramDecomposition(self.c_mat[index], self.d_mat[index], users)
        if "eig" in self.__dict__:
            lam, vecs = (part[index] for part in self.eig)
            lam.flags.writeable = vecs.flags.writeable = False
            taken.eig = lam, vecs
        return taken


def conj_t(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes: A^H, matrix by matrix over a stack."""
    return a.conj().swapaxes(-1, -2)


def check_users(real, users):
    """The subset as a list of row indices of ``real``.

    Raises ValueError naming the first entry that is not an integer in
    [0, K): negative, too large, a bool or not an integer (numpy integers
    are integers).  A repeated user passes; its subset is rank deficient.
    A stack of subsets is a 2-D integer array (c, K), checked by one vector
    test and returned as it is; a bool, float or complex array fails at its
    first entry, and an empty one, or a non-numeric one (object, str, ...)
    of any size, names its dtype.
    """
    if isinstance(users, np.ndarray) and users.ndim == 2:
        if users.dtype.kind not in "iu" and not (users.size and users.dtype.kind in "bfc"):
            raise ValueError(f"user index array has dtype {users.dtype}, not an integer dtype")
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


def check_single(gram: GramDecomposition) -> None:
    """Raise ValueError if ``gram`` is a stack, where one subset is meant."""
    if gram.c_mat.ndim != 2:
        raise ValueError(f"a stack of {len(gram.users)} subsets where one is meant: "
                         "take(i) gives subset i")


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
    if not is_unit_modulus(theta):
        raise ValueError("theta entries must be unit modulus")
    users = check_users(real, users)
    h_c_theta = (real.h_cascaded[users] @ theta[..., None])[..., 0]
    return real.h_direct[users] + h_c_theta[..., None] * real.b_vec.conj()


def extend_theta(theta: np.ndarray) -> np.ndarray:
    """theta_bar = [theta^H, 1]^H, i.e. theta with a trailing 1 (each row of a stack)."""
    theta = np.asarray(theta, dtype=complex)
    return np.concatenate([theta, np.ones(theta.shape[:-1] + (1,))], axis=-1)


def count_zero_eigenvalues(lam: np.ndarray):
    """Number of eigenvalues that count as zero (<= RANK_TOL * lambda_max).

    ``lam`` holds the eigenvalues of one Gram-form matrix along its last axis;
    a stack of spectra gives one count per matrix.
    """
    lam_max = np.maximum(lam.max(axis=-1, keepdims=True), 0.0)
    return (lam <= RANK_TOL * lam_max).sum(axis=-1)


def rank_deficient(sv: np.ndarray):
    """Whether sigma_min <= sqrt(RANK_TOL) * sigma_max, ``sv`` descending along its last axis.

    The rule of ``count_zero_eigenvalues`` on sigma^2, compared on sigma so nothing overflows.
    """
    return sv[..., -1] <= RANK_TOL ** 0.5 * sv[..., 0]


def is_unit_modulus(z) -> bool:
    """Whether every entry of z lies within UNIT_MODULUS_TOL of the unit circle (NaN fails)."""
    return bool(np.abs(np.abs(z) - 1.0).max(initial=0.0) <= UNIT_MODULUS_TOL)  # [] passes


def _check_theta_bar(theta_bar):
    theta_bar = np.asarray(theta_bar, dtype=complex)
    if not (is_unit_modulus(theta_bar) and abs(theta_bar[-1] - 1.0) <= UNIT_MODULUS_TOL):
        raise ValueError("theta_bar must be unit modulus, and its last entry must equal 1")
    return theta_bar


def rayleigh_objective(gram: GramDecomposition, theta_bar, p_bar: float) -> float:
    """Quadratic form theta_bar^H D^H (I/p_bar + C)^-1 D theta_bar = ||G theta_bar||^2."""
    check_single(gram)
    y = gram.factor(p_bar) @ np.asarray(theta_bar, dtype=complex)
    return float(np.vdot(y, y).real)


def dpc_sum_se(gram: GramDecomposition, theta_bar, p_bar: float) -> float:
    """DPC sum SE log2 det(I + p_bar H H^H) = sum_k log2(1 + p_bar lam_k) + log2(1 + quad)."""
    quad = rayleigh_objective(gram, _check_theta_bar(theta_bar), p_bar)
    lam, _ = gram.eig
    return float(np.log2(1.0 + p_bar * lam).sum() + np.log2(1.0 + quad))


def dpc_asymptote(gram: GramDecomposition, theta_bar, p_bar: float) -> float:
    """High-power DPC sum SE.

    Full-rank C: log2 det(p_bar C) + log2(theta_bar^H D^H C^-1 D theta_bar).
    Exactly one zero eigenvalue: sum_k>1 log2(lambda_k p_bar)
    + log2(p_bar |u_1^H D theta_bar|^2), with lambda ascending.
    """
    if not p_bar > 0:
        raise ValueError("p_bar must be positive")
    check_single(gram)
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
