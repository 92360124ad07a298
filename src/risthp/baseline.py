"""Linear zero-forcing precoding baseline.

Shares the phase optimizers and the greedy allocation shape with the THP
pipeline so paired comparisons consume identical realizations and seeds.
Power is split equally across allocated users.  Phases and rates are scored
from the pair (C, d = D theta_bar) of ``gram.decompose`` alone: the channel H
and its precoder are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import alloc, gram as gram_mod, phase_opt
from .phase_opt import PhaseConfig


@dataclass
class LinearSolution:
    users: list
    theta: PhaseConfig
    per_user_se: np.ndarray  # bits, all 0 when infeasible
    feasible: bool

    @property
    def sum_se(self) -> float:
        return float(self.per_user_se.sum())


# Phase sweep of the linear baseline: an N_GRID-point angular grid per element
# for the continuous alphabet, at most MAX_SWEEPS passes over the elements.
N_GRID = 8
MAX_SWEEPS = 2


def zf_se_gram(c_mat: np.ndarray, d_vecs: np.ndarray, tx_power: float):
    """Equal-power ZF per-user SE for each row d of ``d_vecs``, in K x K form.

    The Gram matrix of H is C + d d^H, so the squared column norms of the
    pseudo-inverse H^+ are g_k = [(C + d d^H)^-1]_kk and user k gets
    log2(1 + (P/K) / g_k).  Returns (se, ok): se is (rows, K), and ok marks
    the rows whose Gram matrix has no zero eigenvalue
    (``gram.count_zero_eigenvalues``); the other rows are infeasible, with se 0.
    """
    k = c_mat.shape[0]
    grams = c_mat + d_vecs[:, :, None] * d_vecs[:, None, :].conj()
    lam, vecs = np.linalg.eigh(grams)
    ok = gram_mod.count_zero_eigenvalues(lam) == 0
    gains = np.einsum("cki,ci->ck", np.abs(vecs[ok]) ** 2, 1.0 / lam[ok])
    se = np.zeros((len(d_vecs), k))
    se[ok] = np.log2(1.0 + (tx_power / k) / gains)
    return se, ok


def zf_linear(dec: gram_mod.GramDecomposition, theta: PhaseConfig,
              tx_power: float) -> LinearSolution:
    """Equal-power ZF for the subset of ``dec`` at phases ``theta``.

    Scores d = D theta_bar with ``zf_se_gram``, the formula and zero-eigenvalue
    rule the phase sweep falls back to, so neither H nor a precoder is formed.
    Raises ValueError unless ``tx_power`` is positive (NaN fails).
    """
    if not tx_power > 0:
        raise ValueError("tx_power must be positive")
    gram_mod.check_single(dec)
    d_vec = dec.d_mat @ gram_mod.extend_theta(theta.theta)
    se, ok = zf_se_gram(dec.c_mat, d_vec[None, :], tx_power)
    return LinearSolution(users=list(dec.users), theta=theta, per_user_se=se[0],
                          feasible=bool(ok[0]))


def zf_sum_se_rank_one(c_inv_diag: np.ndarray, d_vecs: np.ndarray,
                       e_vecs: np.ndarray, tx_power: float) -> np.ndarray:
    """Sum SE of ``zf_se_gram`` by the Sherman-Morrison update of an invertible C.

    With e = C^-1 d, g_k = [(C + d d^H)^-1]_kk = [C^-1]_kk - |e_k|^2 / (1 + d^H e),
    O(K) per row of ``d_vecs`` and ``e_vecs``.  The subtraction loses up to
    eps * (lam_max(C) + ||d||^2) / lam_min(C) of g_k, relative.  There is no
    zero-score rule: the caller keeps it for rows where C + d d^H has no
    zero eigenvalue.
    """
    quad = (d_vecs.conj() * e_vecs).sum(axis=1).real
    gains = c_inv_diag - (e_vecs * e_vecs.conj()).real / (1.0 + quad)[:, None]
    return np.log2(1.0 + (tx_power / c_inv_diag.size) / gains).sum(axis=1)


def _sweep_phases_linear(dec: gram_mod.GramDecomposition, theta: PhaseConfig,
                         tx_power: float) -> PhaseConfig:
    """Element-wise ascent of the ZF sum SE over candidate phase values.

    Continuous alphabet uses an N_GRID-point angular grid per element; binary
    uses {-1, +1}.  Every candidate is scored in K x K form through
    ||H^+[:, k]||^2 = [(C + d d^H)^-1]_kk with d = D theta_bar, so H is
    never built: setting theta_n = c moves d by D[:, n] delta, delta =
    c - theta_n.

    When C has no zero eigenvalue, C^-1 = V diag(1/lam) V^H comes from the
    cached ``dec.eig`` and e = C^-1 d moves by (C^-1 D)[:, n] delta, so
    ``zf_sum_se_rank_one`` scores a candidate in O(K).  It scores an element
    when every row, current value and candidates, has
    lam_min(C) > RANK_TOL * (lam_max(C) + ||d||^2).  That bound keeps every
    eigenvalue of C + d d^H above RANK_TOL * lam_max, so no row falls under
    ``zf_se_gram``'s zero-score rule, and it holds the rank-one rounding
    below eps / RANK_TOL (about 2e-7) relative.  Any other element, and every
    element when C is singular (|S| >= N_B), takes ``zf_se_gram``'s
    batched eigendecomposition of its own rows.

    Each element scores its current value with the same scorer as its
    candidates and moves to its best candidate, the first on ties, when that
    strictly beats the current sum SE; its current value is not a candidate.
    Elements are taken in order by first-improvement search: a scan builds
    the rows of the next elements against the current (d, e), and those
    before the first element that breaks the bound are scored in one
    rank-one call.  The first of them that gains moves; if none does, the
    element that breaks the bound is judged alone.  The next scan starts
    after the element handled, so each element is judged in the state an
    element-by-element loop would give it.  A pass starts with a scan of
    every element; later scans are twice as long as the gap to the last
    move, or as the last scan when it found none, so dense moves do not
    rebuild the rest of the pass each time.  The sweep stops after a pass
    that changes nothing or after MAX_SWEEPS.
    """
    theta_vec = theta.theta.copy()
    if theta.alphabet == "binary":
        candidates = np.array([-1.0 + 0j, 1.0 + 0j])
    else:
        candidates = np.exp(2j * np.pi * np.arange(N_GRID) / N_GRID)
    k = dec.d_mat.shape[0]
    lam, vecs = dec.eig
    # cols[n] is D[:, n], followed by E[:, n] (E = C^-1 D) when C is invertible;
    # ||d||^2 < max_sq is lam_min(C) > RANK_TOL * (lam_max(C) + ||d||^2)
    cols, max_sq = dec.d_mat, -np.inf
    if gram_mod.count_zero_eigenvalues(lam) == 0:
        c_inv = (vecs / lam) @ vecs.conj().T
        c_inv_diag = c_inv.diagonal().real
        cols = np.concatenate([cols, c_inv @ cols])
        max_sq = lam[0] / gram_mod.RANK_TOL - lam[-1]
    de = cols @ gram_mod.extend_theta(theta_vec)  # d, then e = C^-1 d
    cols = cols[:, :-1].T.copy()
    for _ in range(MAX_SWEEPS):
        start = theta_vec.copy()
        m, width = 0, theta_vec.size  # the next element to judge, the scan's length
        while m < theta_vec.size:
            # rows[i, j] sets element m + i to candidate j: for the next width
            # elements when d keeps the bound (never when C is singular, where
            # max_sq = -inf), else for element m alone; flat[0] is (d, e)
            scan = max_sq > 0 and (de[:k] * de[:k].conj()).sum().real < max_sq
            end = m + width if scan else m + 1
            rows = de + (candidates - theta_vec[m:end, None])[:, :, None] * cols[m:end, None]
            n_ok = 0  # the elements before the first that breaks the bound
            if scan:
                d_sq = (rows[..., :k] * rows[..., :k].conj()).sum(axis=2).real
                n_ok = int(np.logical_and.accumulate(d_sq.max(axis=1) < max_sq).sum())
            flat = np.concatenate([de[None], rows[:max(n_ok, 1)].reshape(-1, de.size)])
            if n_ok:  # rank one judges those
                vals = zf_sum_se_rank_one(c_inv_diag, flat[:, :k], flat[:, k:], tx_power)
            else:  # eigh judges element m alone
                vals = zf_se_gram(dec.c_mat, flat[:, :k], tx_power)[0].sum(axis=1)
            scores = vals[1:].reshape(-1, candidates.size)
            scores[candidates == theta_vec[m:m + len(scores), None]] = -np.inf
            moves = (scores.max(axis=1) > vals[0]).nonzero()[0]
            if moves.size:  # the next scan is twice as long as the gap to this move
                j = int(moves[0])
                i = int(scores[j].argmax())
                theta_vec[m + j], de = candidates[i], rows[j, i]
                m, width = m + j + 1, 2 * (j + 1)
            else:
                m, width = m + len(scores), min(2 * width, theta_vec.size)
        if (theta_vec == start).all():
            break
    return PhaseConfig(theta_vec, alphabet=theta.alphabet)


def evaluate_allocation_linear(reals: list, steps: list, p_bar, phases: list) -> alloc.Round:
    """ZF solutions for one round of lanes, one list per lane, each lane at P = p_bar * K.

    The lanes are those of ``alloc.evaluate_allocation``, checked and solved
    by ``alloc.check_round``.  For "continuous" and "binary", the round's one
    ``alloc.optimize_phases`` call gives each subset its continuous phases
    and its stored decomposition (C, D and eig), read by the sweep and the
    score; the sweep starts from those phases (discretized for binary).  A
    PhaseConfig skips the solve and the sweep, and is scored on the rows of
    one ``gram.decompose`` of the lane's stack.  A subset with more users
    than BS antennas is infeasible, as in ``alloc.evaluate_allocation``.
    Raises ValueError unless every lane has 0 < P < inf, before any is phased.
    """
    for real, p_bar_i in zip(reals, alloc._lane_powers(p_bar, len(reals))):
        if p_bar_i * real.n_users == np.inf:  # p_bar_i is positive and finite
            raise ValueError(f"tx_power must be positive and finite, got {p_bar_i * real.n_users}")
    p_bars, checked, solves = alloc.check_round(reals, steps, p_bar, phases)
    lanes = alloc.Round()
    for real, (_, stack), p_bar_i, phases_i, lane_solves in zip(
            reals, checked, p_bars, phases, solves):
        tx_power = p_bar_i * real.n_users
        if lane_solves is None:
            dec = gram_mod.decompose(real, stack)
            lanes.append([zf_linear(dec.take(i), phases_i, tx_power) for i in range(len(stack))])
            continue
        seeds = [(phase_opt.discretize_binary(theta) if phases_i == "binary" else theta, dec)
                 for theta, _, dec in lane_solves]
        lanes.append([zf_linear(dec, _sweep_phases_linear(dec, seed, tx_power), tx_power)
                      for seed, dec in seeds])
    return lanes


def greedy_allocate_linear(reals: list, p_bar, phases: list) -> list:
    """Greedy user allocations with the ZF sum SE as the metric, one per lane.

    The lanes are those of ``alloc.greedy_allocate``, run in lockstep by
    ``alloc._greedy``, one ``evaluate_allocation_linear`` call per round.
    """
    return alloc._greedy(reals, p_bar, phases, evaluate_allocation_linear, lambda s: s.sum_se)
