"""RIS phase-shift optimization.

Closed-form alignment when C has exactly one zero eigenvalue, a
principal-eigenvector heuristic otherwise, plus refinement: a
majorization-minimization fixed point for continuous phases and element-wise
coordinate ascent for the binary (+-1) alphabet.  Every function reads only
the pair (C, D) of ``gram.decompose``, through its ``eig`` or its factor G.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

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

    ``gram.eig`` decides: when exactly one eigenvalue counts as zero
    (``gram.count_zero_eigenvalues``), its eigenvector is returned; any
    other count raises NotApplicableError.
    """
    lam, vecs = gram.eig
    n_zero = gram_mod.count_zero_eigenvalues(lam)
    if n_zero != 1:
        raise NotApplicableError(
            f"{n_zero} eigenvalues of C count as zero; alignment needs exactly one")
    return vecs[:, 0]


def _lift(w_bar: np.ndarray) -> PhaseConfig:
    """Phases of w_bar relative to its last entry, so theta_bar ends in 1.

    Shared by both branches; a call of ``align_phases`` therefore always
    means the alignment branch ran.
    """
    return PhaseConfig(np.exp(1j * (np.angle(w_bar[:-1]) - np.angle(w_bar[-1]))))


def align_phases(gram: GramDecomposition, u_k: np.ndarray) -> PhaseConfig:
    """Optimal continuous phases by alignment for the zero-eigenvalue case.

    The phases of D^H u_K relative to its last entry make all terms of
    u_K^H D theta_bar add up in phase (a zero entry counts as angle 0).
    """
    return _lift(gram.d_mat.conj().T @ u_k)


def heuristic_phases(g_mat: np.ndarray) -> PhaseConfig:
    """Principal-eigenvector phase heuristic on the phase factor G.

    Lifts G^H x like ``align_phases``, x the principal eigenvector of G G^H;
    with G = ``gram.factor(p_bar)`` that is D^H w', w' the principal
    eigenvector of (I/p_bar + C)^-1 D D^H.  G^H x vanishes only for G = 0,
    where every theta is optimal and the all-ones phases are returned.
    """
    _, vecs = np.linalg.eigh(g_mat @ g_mat.conj().T)
    return _lift(g_mat.conj().T @ vecs[:, -1])


def refine_elementwise(g_mat: np.ndarray, theta_init: PhaseConfig,
                       max_sweeps: int = DEFAULT_MAX_SWEEPS) -> PhaseConfig:
    """Refine phases by ascent on the phase objective ||G theta_bar||^2.

    G is a K-row phase factor: ``gram.factor(p_bar)``, or the single row
    u^H D along a zero-eigenvalue direction u.  Each pass updates every RIS
    element once; the objective never falls, and refinement stops after a
    pass whose relative rise is at most SWEEP_REL_TOL or after max_sweeps
    passes.

    Continuous alphabet: the majorization-minimization fixed point
    theta_bar <- exp(j angle(G^H y)), y = G theta_bar, over the whole vector
    (an entry with (G^H y)_n = 0 keeps its value), rescaled so theta_bar ends
    in 1; a pass that does not raise the objective is not taken.  A pass is
    two K x (N_R+1) products.

    Binary alphabet: coordinate ascent, each element set to the better of
    {-1, +1}, ties keep the current value, so the result is single-flip
    optimal.  It carries y = G theta_bar on Python lists, so an element costs
    O(K) scalar operations; y is recomputed once per sweep.
    """
    if max_sweeps <= 0:
        raise ValueError("max_sweeps must be positive")
    theta_bar = extend_theta(theta_init.theta)
    if theta_init.alphabet == "binary":
        return PhaseConfig(_binary_ascent(g_mat, theta_bar, max_sweeps), alphabet="binary")
    return PhaseConfig(_mm_ascent(g_mat, theta_bar, max_sweeps))


def _rose_enough(obj: float, new_obj: float) -> bool:
    """Whether a pass raised the objective by more than SWEEP_REL_TOL relative."""
    return new_obj - obj > SWEEP_REL_TOL * max(abs(obj), 1.0)


def _mm_ascent(g_mat: np.ndarray, theta_bar: np.ndarray,
               max_passes: int) -> np.ndarray:
    """Continuous refinement: theta (without the trailing 1) after MM passes.

    The MM step maximizes Re(theta_bar^H G^H y), a minorizer of the objective
    that touches it at the current point, so ||G theta_bar||^2 never falls
    (Soltanalian & Stoica, IEEE TSP 2014).
    """
    g_h = g_mat.conj().T
    y = g_mat @ theta_bar
    obj = float(np.real(np.vdot(y, y)))
    for _ in range(max_passes):
        z = g_h @ y
        mag = np.abs(z)
        if mag[-1] > 0:  # rotate z so that the new theta_bar ends in 1
            z *= z[-1].conj() / mag[-1]
        new = np.divide(z, mag, out=theta_bar.copy(), where=mag > 0)
        new[-1] = 1.0
        new_y = g_mat @ new
        new_obj = float(np.real(np.vdot(new_y, new_y)))
        if not new_obj > obj:
            break
        rose = _rose_enough(obj, new_obj)
        theta_bar, y, obj = new, new_y, new_obj
        if not rose:
            break
    return theta_bar[:-1]


def _binary_ascent(g_mat: np.ndarray, theta_bar: np.ndarray,
                   max_sweeps: int) -> np.ndarray:
    """Binary refinement: theta (without the trailing 1) after +-1 sweeps."""
    cols = g_mat.T.tolist()
    cols_conj = g_mat.T.conj().tolist()
    col_norms = np.sum(np.abs(g_mat) ** 2, axis=0).tolist()
    th = theta_bar.tolist()
    y = g_mat @ theta_bar
    obj = float(np.real(np.vdot(y, y)))
    for _ in range(max_sweeps):
        changed = False
        yl = y.tolist()
        for n in range(len(th) - 1):
            # objective in theta_n: 2 Re(conj(theta_n) c_n) + const,
            # c_n = g_n^H y - ||g_n||^2 theta_n
            old = th[n]
            c_n = sum(map(mul, cols_conj[n], yl)) - col_norms[n] * old
            new = 1.0 if c_n.real > 0 else (-1.0 if c_n.real < 0 else old)
            if new != old:
                step = new - old
                yl = [y_k + g_k * step for y_k, g_k in zip(yl, cols[n])]
                th[n] = new
                changed = True
        y = g_mat @ np.array(th, dtype=complex)
        new_obj = float(np.real(np.vdot(y, y)))
        if not changed or not _rose_enough(obj, new_obj):
            break
        obj = new_obj
    return np.real(np.array(th[:-1], dtype=complex)).round().astype(complex)


def discretize_binary(theta: PhaseConfig) -> PhaseConfig:
    """Per-element closest +-1 pattern to a continuous phase vector."""
    signs = np.where(np.real(theta.theta) >= 0.0, 1.0, -1.0).astype(complex)
    return PhaseConfig(signs, alphabet="binary")
