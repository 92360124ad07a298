"""Linear zero-forcing precoding baseline.

Shares the phase optimizers and the greedy allocation shape with the THP
pipeline so paired comparisons consume identical realizations and seeds.
Power is split equally across allocated users.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import alloc, gram as gram_mod, phase_opt, thp
from .phase_opt import PhaseConfig


@dataclass
class LinearSolution:
    users: list
    precoder: np.ndarray  # (N_B, |users|), unit-norm columns
    powers: np.ndarray  # per-user transmit power
    per_user_se: np.ndarray  # bits
    theta: PhaseConfig = None

    @property
    def feasible(self) -> bool:
        return self.precoder.size > 0 or not self.users

    @property
    def sum_se(self) -> float:
        return float(np.sum(self.per_user_se)) if self.per_user_se.size else 0.0


def _infeasible(users, theta):
    return LinearSolution(users=list(users), precoder=np.empty((0, 0)),
                          powers=np.array([]), per_user_se=np.array([]),
                          theta=theta)


def zf_linear(real, users, theta: PhaseConfig, tx_power: float) -> LinearSolution:
    """Zero-forcing precoder with equal power split for a user subset."""
    users = list(users)
    h = gram_mod.effective_channel(real, users, theta.theta)
    try:
        thp.check_full_row_rank(h)
    except thp.RankDeficientError:
        return _infeasible(users, theta)
    pinv = np.linalg.pinv(h)  # (N_B, K), columns w_k with H @ pinv = I
    col_norms = np.linalg.norm(pinv, axis=0)
    precoder = pinv / col_norms[None, :]
    k = len(users)
    powers = np.full(k, tx_power / k)
    se = np.log2(1.0 + powers / col_norms ** 2)
    return LinearSolution(users=users, precoder=precoder, powers=powers,
                          per_user_se=se, theta=theta)


def _sweep_phases_linear(real, users, theta: PhaseConfig, tx_power: float,
                         n_grid: int = 8, max_sweeps: int = 2) -> PhaseConfig:
    """Element-wise ascent of the ZF sum SE over candidate phase values.

    Continuous alphabet uses an n_grid-point angular grid per element plus
    the current value; binary uses {-1, +1}.
    """
    theta_vec = theta.theta.copy()
    if theta.alphabet == "binary":
        candidates = np.array([-1.0 + 0j, 1.0 + 0j])
    else:
        candidates = np.exp(2j * np.pi * np.arange(n_grid) / n_grid)

    def objective(vec):
        return zf_linear(real, users, PhaseConfig(vec, alphabet=theta.alphabet),
                         tx_power).sum_se

    best = objective(theta_vec)
    for _ in range(max_sweeps):
        changed = False
        for n in range(theta_vec.size):
            current = theta_vec[n]
            for cand in candidates:
                if cand == current:
                    continue
                theta_vec[n] = cand
                val = objective(theta_vec)
                if val > best:
                    best = val
                    current = cand
                    changed = True
            theta_vec[n] = current
        if not changed:
            break
    return PhaseConfig(theta_vec, alphabet=theta.alphabet)


def evaluate_allocation_linear(real, users, tx_power: float, phase_mode: str,
                               rng=None, fixed_theta: PhaseConfig | None = None,
                               p_bar: float | None = None) -> LinearSolution:
    """ZF solution for a subset with phase optimization per mode."""
    users = list(users)
    if fixed_theta is not None:
        return zf_linear(real, users, fixed_theta, tx_power)
    if phase_mode == "random":
        if rng is None:
            raise ValueError("random phase mode needs an rng")
        return zf_linear(real, users, phase_opt.random_phases(real.n_ris, rng),
                         tx_power)
    if phase_mode not in ("continuous", "binary"):
        raise ValueError(f"unknown phase mode {phase_mode!r}")
    # seed the sweep from the nonlinear continuous heuristic
    p_bar = tx_power / max(len(users), 1) if p_bar is None else p_bar
    theta = alloc.optimize_phases(real, users, p_bar, "continuous")
    if phase_mode == "binary":
        theta = phase_opt.discretize_binary(theta)
    theta = _sweep_phases_linear(real, users, theta, tx_power)
    return zf_linear(real, users, theta, tx_power)


def greedy_allocate_linear(real, p_bar: float, phase_mode: str,
                           rng=None) -> LinearSolution:
    """Greedy user allocation with the ZF sum SE as the metric."""
    tx_power = p_bar * real.n_users
    fixed_theta = (phase_opt.random_phases(real.n_ris, rng)
                   if phase_mode == "random" else None)

    def evaluate(users):
        return evaluate_allocation_linear(real, users, tx_power, phase_mode, rng,
                                          fixed_theta=fixed_theta, p_bar=p_bar)

    return alloc._greedy(real, evaluate, lambda s: s.sum_se)
