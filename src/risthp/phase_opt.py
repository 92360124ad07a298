"""RIS phase-shift optimization.

Closed-form alignment when C has exactly one zero eigenvalue, a
principal-eigenvector heuristic otherwise, plus element-wise coordinate
ascent for refinement and for the binary (+-1) phase alphabet.  Every
function reads only the decomposition (C, D) of ``gram.decompose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np
import scipy.linalg

from . import gram as gram_mod
from .gram import GramDecomposition, extend_theta
from .gram import rayleigh_objective  # the phase objective, shared with dpc_sum_se

DEFAULT_MAX_SWEEPS = 50
SWEEP_REL_TOL = 1e-10


class NotApplicableError(RuntimeError):
    """The closed-form zero-eigenvalue solution does not apply."""


@dataclass
class PhaseConfig:
    theta: np.ndarray
    alphabet: str = "continuous"  # "continuous" or "binary"

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=complex)
        if self.alphabet == "continuous":
            if np.max(np.abs(np.abs(self.theta) - 1.0)) > 1e-12:
                raise ValueError("continuous phases must be unit modulus")
        elif self.alphabet == "binary":
            if not np.all(np.isin(self.theta, [-1.0 + 0j, 1.0 + 0j])):
                raise ValueError("binary phases must be exactly +-1")
        else:
            raise ValueError(f"unknown alphabet {self.alphabet!r}")


def random_phases(n_ris: int, rng: np.random.Generator) -> PhaseConfig:
    """I.i.d. uniform unit-modulus phases."""
    return PhaseConfig(np.exp(2j * np.pi * rng.uniform(size=n_ris)))


def zero_eig_direction(gram: GramDecomposition) -> np.ndarray:
    """Unit eigenvector of C for its zero eigenvalue.

    One eigendecomposition of C decides: when exactly one eigenvalue counts
    as zero (``gram.count_zero_eigenvalues``), its eigenvector is returned;
    any other count raises NotApplicableError.
    """
    vals, vecs = np.linalg.eigh(gram.c_mat)
    n_zero = gram_mod.count_zero_eigenvalues(vals)
    if n_zero != 1:
        raise NotApplicableError(
            f"{n_zero} eigenvalues of C count as zero; alignment needs exactly one")
    return vecs[:, 0]


def _lift(gram: GramDecomposition, w: np.ndarray) -> PhaseConfig:
    """Phases of D^H w relative to its last entry, so theta_bar ends in 1.

    Shared by both branches; a call of ``align_phases`` therefore always
    means the alignment branch ran.
    """
    w_bar = gram.d_mat.conj().T @ w
    return PhaseConfig(np.exp(1j * (np.angle(w_bar[:-1]) - np.angle(w_bar[-1]))))


def align_phases(gram: GramDecomposition, u_k: np.ndarray) -> PhaseConfig:
    """Optimal continuous phases by alignment for the zero-eigenvalue case.

    The phases of D^H u_K relative to its last entry make all terms of
    u_K^H D theta_bar add up in phase (a zero entry counts as angle 0).
    """
    return _lift(gram, u_k)


def heuristic_phases(gram: GramDecomposition, p_bar: float) -> PhaseConfig:
    """Principal-eigenvector phase heuristic.

    Computes the principal eigenvector w' of the K x K matrix
    (I/p_bar + C)^-1 D D^H and lifts it like ``align_phases``: the phases of
    D^H w' relative to its last entry.  D^H w' vanishes only for D = 0, where
    every theta is optimal and the all-ones phases are returned.
    """
    if not p_bar > 0:
        raise ValueError("p_bar must be positive")
    _, vecs = scipy.linalg.eigh(gram.ddh, gram.a_mat(p_bar))
    return _lift(gram, vecs[:, -1])


def _phase_factor(gram: GramDecomposition, p_bar: float,
                  direction: np.ndarray | None) -> np.ndarray:
    """Factor G with phase objective ||G theta_bar||^2, i.e. M = G^H G.

    With a zero-eigenvalue direction u, G is the single row u^H D (objective
    |u^H D theta_bar|^2).  Otherwise I/p_bar + C = L L^H and G = L^-1 D, so
    G^H G is the Rayleigh quotient matrix D^H (I/p_bar + C)^-1 D.
    """
    d = gram.d_mat
    if direction is not None:
        return (direction.conj() @ d)[None, :]
    if not p_bar > 0:
        raise ValueError("p_bar must be positive")
    # np.linalg.solve, not scipy.linalg.solve_triangular: with two OpenBLAS
    # threads scipy's trsm stalled for up to ~8 ms on these K x (N_R+1) systems
    return np.linalg.solve(np.linalg.cholesky(gram.a_mat(p_bar)), d)


def refine_elementwise(gram: GramDecomposition, theta_init: PhaseConfig,
                       p_bar: float, max_sweeps: int = DEFAULT_MAX_SWEEPS,
                       direction: np.ndarray | None = None) -> PhaseConfig:
    """Coordinate ascent on the phase objective, one RIS element at a time.

    Continuous alphabet: each element is set to the closed-form unit-modulus
    maximizer of the objective as a function of that element alone.  Binary
    alphabet: each element is set to the better of {-1, +1}, ties keep the
    current value.  The objective is nondecreasing; stops after a full sweep
    without relative improvement or after max_sweeps.

    Works on the K-row factor G of the objective ||G theta_bar||^2 and
    carries y = G theta_bar, so an element costs O(K) scalar operations on
    Python lists; y is recomputed once per sweep.
    """
    if max_sweeps <= 0:
        raise ValueError("max_sweeps must be positive")
    g_mat = _phase_factor(gram, p_bar, direction)
    cols = g_mat.T.tolist()
    cols_conj = g_mat.T.conj().tolist()
    col_norms = np.sum(np.abs(g_mat) ** 2, axis=0).tolist()
    theta_bar = extend_theta(theta_init.theta)
    th = theta_bar.tolist()
    binary = theta_init.alphabet == "binary"

    y = g_mat @ theta_bar
    obj = float(np.real(np.vdot(y, y)))
    for _ in range(max_sweeps):
        changed = False
        yl = y.tolist()
        for n in range(gram.n_ris):
            # objective in theta_n: 2 Re(conj(theta_n) c_n) + const,
            # c_n = g_n^H y - ||g_n||^2 theta_n
            old = th[n]
            c_n = sum(map(mul, cols_conj[n], yl)) - col_norms[n] * old
            if binary:
                new = 1.0 if c_n.real > 0 else (-1.0 if c_n.real < 0 else old)
            else:
                new = c_n / abs(c_n) if c_n != 0 else old
            if new != old:
                step = new - old
                yl = [y_k + g_k * step for y_k, g_k in zip(yl, cols[n])]
                th[n] = new
                changed = True
        theta_bar = np.array(th, dtype=complex)
        y = g_mat @ theta_bar
        new_obj = float(np.real(np.vdot(y, y)))
        if not changed or new_obj - obj <= SWEEP_REL_TOL * max(abs(obj), 1.0):
            break
        obj = new_obj

    theta = theta_bar[:-1]
    if binary:
        theta = np.real(theta).round().astype(complex)
    else:
        theta = theta / np.abs(theta)
    return PhaseConfig(theta, alphabet=theta_init.alphabet)


def discretize_binary(theta: PhaseConfig) -> PhaseConfig:
    """Per-element closest +-1 pattern to a continuous phase vector."""
    signs = np.where(np.real(theta.theta) >= 0.0, 1.0, -1.0).astype(complex)
    return PhaseConfig(signs, alphabet="binary")
