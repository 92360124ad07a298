"""Greedy user allocation for ZF-dTHP.

Maximizes the high-SNR sum-SE lower bound sum_k max(0, SE_k) with phase and
decoding-order re-optimization per candidate allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gram as gram_mod
from . import phase_opt, thp
from .phase_opt import NotApplicableError, PhaseConfig


@dataclass
class Allocation:
    users: list
    theta: PhaseConfig
    order: np.ndarray
    se_bound: float  # sum_k max(0, asymptotic SE_k), bits
    p_bar: float  # per-user power the gains diag_l were evaluated at
    diag_l: np.ndarray

    @property
    def feasible(self) -> bool:
        return bool(np.isfinite(self.se_bound))

    @property
    def se_exact(self) -> float:
        """Sum of exact modulo-channel SEs, bits (0.0 if infeasible); computed when read."""
        return float(sum(thp.per_user_se(l, self.p_bar, "exact") for l in self.diag_l))


def _infeasible(users, theta, p_bar):
    return Allocation(users=list(users), theta=theta, order=np.array([], dtype=int),
                      se_bound=-np.inf, p_bar=p_bar, diag_l=np.array([]))


def check_optimized_mode(phase_mode: str) -> None:
    """Raise ValueError unless phases of ``phase_mode`` are optimized per subset."""
    if phase_mode == "random":
        raise ValueError("random phases are drawn by greedy_allocate and "
                         "greedy_allocate_linear; pass them as fixed_theta")
    if phase_mode not in ("continuous", "binary"):
        raise ValueError(f"unknown phase mode {phase_mode!r}")


def _continuous_stage(gram: gram_mod.GramDecomposition, p_bar: float):
    """Continuous phases of the subset of ``gram`` and their phase factor G.

    Alignment along C's zero-eigenvalue direction u (G the row u^H D) when C
    has exactly one zero eigenvalue, else the eigenvector heuristic on
    G = ``gram.factor(p_bar)``; then refinement on ||G theta_bar||^2.
    """
    try:
        direction = phase_opt.zero_eig_direction(gram)
    except NotApplicableError:
        g_mat = gram.factor(p_bar)
        theta = phase_opt.heuristic_phases(g_mat)
    else:
        g_mat = (direction.conj() @ gram.d_mat)[None, :]
        theta = phase_opt.align_phases(gram, direction)
    return phase_opt.refine_elementwise(g_mat, theta), g_mat


def optimize_phases(gram: gram_mod.GramDecomposition, p_bar: float,
                    phase_mode: str) -> PhaseConfig:
    """Phase configuration for the user subset of ``gram`` under the requested mode.

    continuous: the continuous stage (``_continuous_stage``).  binary: its
    result discretized, then element-wise +-1 sweeps on the same factor G.

    The continuous stage is read from, or stored read-only in, the
    realization's table ``gram.solves`` as (theta, G) under (``gram.users``,
    p_bar), so methods that share the realization solve each subset once.
    """
    check_optimized_mode(phase_mode)
    key = (gram.users, p_bar)
    if key in gram.solves:
        theta, g_mat = gram.solves[key]
    else:
        theta, g_mat = _continuous_stage(gram, p_bar)
        theta.theta.setflags(write=False)
        g_mat.setflags(write=False)
        gram.solves[key] = (theta, g_mat)
    if phase_mode == "binary":
        theta = phase_opt.refine_elementwise(g_mat, phase_opt.discretize_binary(theta))
    return theta


class Step(list):
    """The allocations of one greedy step, in the order of its subsets."""

    @property
    def feasible(self) -> bool:
        """Whether every subset of the step is feasible.

        Read as ``Allocation.feasible`` is, so the benchmark's outcome counter
        for ``evaluate_allocation`` counts the steps with an infeasible subset.
        """
        return all(a.feasible for a in self)


def evaluate_allocation(real, subsets, p_bar: float, phase_mode: str, *,
                        fixed_theta: PhaseConfig | None = None) -> Step:
    """Phase + order optimization and the SE bound for user subsets of one size.

    Each subset gets its own phases (``optimize_phases``, or ``fixed_theta``,
    used for random phases that are a property of the RIS, not of the
    allocation).  Their effective channels are stacked, so one call of
    ``thp.order_users`` runs the rank test, the QR, the inverse and the
    ordering for all of them, and the bounds come from one vector step.  A
    subset whose rows are dependent is infeasible; the others are ordered
    again without it.
    """
    subsets = [list(users) for users in subsets]
    if not subsets:
        raise ValueError("no user subsets to evaluate")
    size = len(subsets[0])
    if any(len(users) != size for users in subsets):
        raise ValueError("user subsets of one step must have the same size")
    if not size:
        raise ValueError("user subset must be nonempty")
    if size > real.n_bs:
        raise ValueError("cannot allocate more users than BS antennas")

    thetas = [fixed_theta if fixed_theta is not None else optimize_phases(
        gram_mod.decompose(real, users), p_bar, phase_mode) for users in subsets]
    h_eff = np.stack([gram_mod.effective_channel(real, users, theta.theta)
                      for users, theta in zip(subsets, thetas)])
    feasible = np.ones(len(subsets), dtype=bool)
    try:
        order, diag_l = thp.order_users(h_eff)
    except thp.RankDeficientError as exc:
        feasible = ~exc.deficient
        order, diag_l = thp.order_users(h_eff[feasible])
    se_bound = np.maximum(0.0, thp.se_asymptote(diag_l, p_bar)).sum(axis=1)
    solved = iter(zip(order, se_bound, diag_l))
    step = Step()
    for users, theta, ok in zip(subsets, thetas, feasible):
        if ok:
            order_u, bound, gains = next(solved)
            step.append(Allocation(users=users, theta=theta, order=order_u,
                                   se_bound=float(bound), p_bar=p_bar, diag_l=gains))
        else:
            step.append(_infeasible(users, theta, p_bar))
    return step


def _greedy(real, p_bar: float, phase_mode: str, rng, evaluate, score):
    """Greedy allocation: add users one by one while the score rises.

    ``evaluate(real, subsets, p_bar, phase_mode, fixed_theta=...)`` solves
    the user subsets of one step, all of one size, and returns their
    solutions in order; ``score`` maps a solution to a float.
    Random phases are drawn here, once, as a property of the RIS, and shared
    by every candidate subset.  Starts from the single user with the largest score.
    Each step appends every unallocated user in index order, keeps the first
    maximum of the score, and stops when that does not raise the score or
    when min(K, N_B) users are allocated.
    """
    fixed_theta = None
    if phase_mode == "random":
        if rng is None:
            raise ValueError("random phases need an rng")
        fixed_theta = phase_opt.random_phases(real.n_ris, rng)

    def solve(subsets):
        return max(evaluate(real, subsets, p_bar, phase_mode, fixed_theta=fixed_theta),
                   key=score)

    k = real.n_users
    best = solve([[u] for u in range(k)])
    while len(best.users) < min(k, real.n_bs):
        step = solve([best.users + [u] for u in range(k) if u not in best.users])
        if score(step) <= score(best):
            break
        best = step
    return best


def greedy_allocate(real, p_bar: float, phase_mode: str,
                    rng: np.random.Generator | None = None) -> Allocation:
    """Greedy allocation maximizing the high-SNR sum-SE bound."""
    return _greedy(real, p_bar, phase_mode, rng, evaluate_allocation,
                   lambda a: a.se_bound)

