"""RIS phase-shift optimization.

Closed-form alignment when C has exactly one zero eigenvalue, a
principal-eigenvector heuristic otherwise, plus refinement: a
majorization-minimization fixed point for continuous phases and element-wise
coordinate ascent for the binary (+-1) alphabet.  Every function reads only
the pair (C, D) of ``gram.decompose``, through its ``eig`` or its factor G.
The branch functions (``zero_eig_direction``, ``align_phases``,
``heuristic_phases``) broadcast over a stack of subsets; refinement runs on
one subset at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gram as gram_mod
from .gram import GramDecomposition, extend_theta

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
        if self.alphabet not in ("continuous", "binary"):
            raise ValueError(f"unknown alphabet {self.alphabet!r}")
        if self.alphabet == "continuous" and not gram_mod.is_unit_modulus(self.theta):
            raise ValueError("continuous phases must be unit modulus")
        if self.alphabet == "binary" and not ((self.theta == 1.0) | (self.theta == -1.0)).all():
            raise ValueError("binary phases must be exactly +-1")


def random_phases(n_ris: int, rng: np.random.Generator) -> PhaseConfig:
    """I.i.d. uniform unit-modulus phases; ValueError without an rng."""
    if rng is None:
        raise ValueError("random phases need an rng")
    return PhaseConfig(np.exp(2j * np.pi * rng.uniform(size=n_ris)))


def zero_eig_direction(gram: GramDecomposition) -> np.ndarray:
    """Unit eigenvector of C for its zero eigenvalue.

    ``gram.eig`` decides: when exactly one eigenvalue counts as zero
    (``gram.count_zero_eigenvalues``), its eigenvector is returned; any
    other count raises NotApplicableError.  A stack returns one vector per
    subset (c, K), or raises when any subset has another count.
    """
    lam, vecs = gram.eig
    n_zero = gram_mod.count_zero_eigenvalues(lam)
    if not (n_zero == 1).all():
        counted = (f"{n_zero} eigenvalues of C count as zero" if n_zero.ndim == 0 else
                   f"C has another number of zero eigenvalues in "
                   f"{np.count_nonzero(n_zero != 1)} of {n_zero.size} subsets")
        raise NotApplicableError(f"{counted}; alignment needs exactly one")
    return vecs[..., :, 0]


def _lift(w_bar: np.ndarray) -> PhaseConfig:
    """Phases of w_bar relative to its last entry, so theta_bar ends in 1.

    Shared by both branches; a call of ``align_phases`` therefore always
    means the alignment branch ran.
    """
    angles = np.arctan2(w_bar.imag, w_bar.real)  # np.angle(w_bar)
    return PhaseConfig(np.exp(1j * (angles[..., :-1] - angles[..., -1:])))


def align_phases(gram: GramDecomposition, u_k: np.ndarray) -> PhaseConfig:
    """Optimal continuous phases by alignment for the zero-eigenvalue case.

    The phases of D^H u_K relative to its last entry make all terms of
    u_K^H D theta_bar add up in phase (a zero entry counts as angle 0).
    A stacked ``gram`` takes one u per subset (c, K) and gives theta (c, N_R).
    """
    return _lift((gram_mod.conj_t(gram.d_mat) @ u_k[..., None])[..., 0])


def heuristic_phases(g_mat: np.ndarray) -> PhaseConfig:
    """Principal-eigenvector phase heuristic on the phase factor G.

    Lifts G^H x like ``align_phases``, x the principal eigenvector of G G^H;
    with G = ``gram.factor(p_bar)`` that is D^H w', w' the principal
    eigenvector of (I/p_bar + C)^-1 D D^H.  G^H x vanishes only for G = 0,
    where every theta is optimal and the all-ones phases are returned.
    A stack of factors (c, K, N_R + 1) takes one batched eigh and gives
    theta (c, N_R).
    """
    g_h = gram_mod.conj_t(g_mat)
    _, vecs = np.linalg.eigh(g_mat @ g_h)
    return _lift((g_h @ vecs[..., :, -1:])[..., 0])


def refine_elementwise(g_mat: np.ndarray, theta_init: PhaseConfig) -> PhaseConfig:
    """Refine phases by ascent on the phase objective ||G theta_bar||^2.

    G is a K-row phase factor: ``gram.factor(p_bar)``, or the single row
    u^H D along a zero-eigenvalue direction u.  Each pass updates every RIS
    element once; the objective never falls, and refinement stops after a
    pass whose relative rise is at most SWEEP_REL_TOL or after
    DEFAULT_MAX_SWEEPS passes, read when the call is made.

    Continuous alphabet: the majorization-minimization fixed point
    theta_bar <- exp(j angle(G^H y)), y = G theta_bar, over the whole vector
    (an entry with (G^H y)_n = 0 keeps its value), rescaled so theta_bar ends
    in 1; a pass that does not raise the objective is not taken.  A pass is
    two K x (N_R+1) products.

    Binary alphabet: coordinate ascent in element order, each element set to
    the better of {-1, +1}, ties keep the current value, so the result is
    single-flip optimal.  It carries y = G theta_bar and searches for the
    first improvement: one product scores the next elements of the pass, the
    first that flips is moved, and the next scan starts after it.  A pass
    starts with a scan of every element; later scans are twice as long as
    the gap to the last flip, or as the last scan when it found none.  So a
    pass costs about one product per flip, not a step per element.  y is
    recomputed once per sweep.

    Raises ValueError unless theta has one entry per RIS column of G
    (G.shape[1] - 1).
    """
    if theta_init.theta.size != g_mat.shape[1] - 1:
        raise ValueError(f"theta has {theta_init.theta.size} entries, G has "
                         f"{g_mat.shape[1] - 1} RIS columns")
    theta_bar = extend_theta(theta_init.theta)
    if theta_init.alphabet == "binary":
        return PhaseConfig(_binary_ascent(g_mat, theta_bar), alphabet="binary")
    return PhaseConfig(_mm_ascent(g_mat, theta_bar))


def _rose_enough(obj: float, new_obj: float) -> bool:
    """Whether a pass raised the objective by more than SWEEP_REL_TOL relative."""
    return new_obj - obj > SWEEP_REL_TOL * max(abs(obj), 1.0)


def _mm_ascent(g_mat: np.ndarray, theta_bar: np.ndarray) -> np.ndarray:
    """Continuous refinement: theta (without the trailing 1) after MM passes.

    The MM step maximizes Re(theta_bar^H G^H y), a minorizer of the objective
    that touches it at the current point, so ||G theta_bar||^2 never falls
    (Soltanalian & Stoica, IEEE TSP 2014).
    """
    g_h = g_mat.conj().T
    y = g_mat @ theta_bar
    obj = float(np.vdot(y, y).real)
    for _ in range(DEFAULT_MAX_SWEEPS):
        z = g_h @ y
        mag = np.abs(z)
        if mag[-1] > 0:  # rotate z so that the new theta_bar ends in 1
            z *= z[-1].conj() / mag[-1]
        new = np.divide(z, mag, out=theta_bar.copy(), where=mag > 0)
        new[-1] = 1.0
        new_y = g_mat @ new
        new_obj = float(np.vdot(new_y, new_y).real)
        if not new_obj > obj:
            break
        rose = _rose_enough(obj, new_obj)
        theta_bar, y, obj = new, new_y, new_obj
        if not rose:
            break
    return theta_bar[:-1]


def _binary_ascent(g_mat: np.ndarray, theta_bar: np.ndarray) -> np.ndarray:
    """Binary refinement: theta (without the trailing 1) after +-1 sweeps."""
    g_h = g_mat[:, :-1].conj().T
    col_norms = (g_h * g_h.conj()).real.sum(axis=1)
    signs = theta_bar[:-1].real.copy()
    y = g_mat @ theta_bar
    obj = float(np.vdot(y, y).real)
    for _ in range(DEFAULT_MAX_SWEEPS):
        start = signs.copy()
        n, width = 0, signs.size  # the next element to judge, the scan's length
        while n < signs.size:
            # objective in theta_n: 2 Re(conj(theta_n) c_n) + const,
            # c_n = g_n^H y - ||g_n||^2 theta_n; theta_n flips where Re(c_n) theta_n < 0,
            # that is theta_n Re(g_n^H y) < ||g_n||^2 (theta_n = +-1, so the products
            # are exact and a rounded difference has the sign of the exact one)
            end = n + width
            flips = ((g_h[n:end] @ y).real * signs[n:end] < col_norms[n:end]).nonzero()[0]
            if flips.size:  # the next scan is twice as long as the gap to this flip
                j = n + int(flips[0])
                y += g_mat[:, j] * (-2.0 * signs[j])
                signs[j] = -signs[j]
                n, width = j + 1, 2 * (j + 1 - n)
            else:
                n, width = end, min(2 * width, signs.size)
        y = g_mat @ np.concatenate([signs, [1.0]])
        new_obj = float(np.vdot(y, y).real)
        if (signs == start).all() or not _rose_enough(obj, new_obj):
            break
        obj = new_obj
    return signs.astype(complex)


def discretize_binary(theta: PhaseConfig) -> PhaseConfig:
    """Per-element closest +-1 pattern to a continuous phase vector."""
    signs = np.where(theta.theta.real >= 0.0, 1.0, -1.0).astype(complex)
    return PhaseConfig(signs, alphabet="binary")
