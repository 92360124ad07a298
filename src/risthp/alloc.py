"""Greedy user allocation for ZF-dTHP.

Maximizes the high-SNR sum-SE lower bound sum_k max(0, SE_k) with phase and
decoding-order re-optimization per candidate allocation.
"""

from __future__ import annotations

import itertools
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


def _continuous_stage(gram: gram_mod.GramDecomposition, p_bar: float) -> list:
    """Continuous phases and phase factor G, as [(theta, G)], of each subset of a stack.

    One ``zero_eig_direction`` call picks each subset's branch: alignment
    along C's zero-eigenvalue direction u (G the row u^H D) when C has
    exactly one zero eigenvalue, else the eigenvector heuristic on
    G = ``gram.factor(p_bar)``.  Each branch runs once, on the stack of its
    subsets; refinement on ||G theta_bar||^2 runs per subset.
    """
    try:
        directions = phase_opt.zero_eig_direction(gram)
        aligned = np.ones(len(directions), dtype=bool)
    except NotApplicableError as exc:
        aligned = exc.applicable
    n_aligned, solved = np.count_nonzero(aligned), [None] * aligned.size

    def refine(mask, theta: PhaseConfig, g_mat: np.ndarray):
        for i, theta_i, g_i in zip(np.flatnonzero(mask), theta.theta, g_mat):
            solved[i] = (phase_opt.refine_elementwise(g_i, PhaseConfig(theta_i)), g_i)

    if n_aligned:
        group = gram
        if n_aligned < aligned.size:  # the first call raised: one more on these subsets
            group = gram.take(aligned)
            directions = phase_opt.zero_eig_direction(group)
        refine(aligned, phase_opt.align_phases(group, directions),
               directions.conj()[..., None, :] @ group.d_mat)
    if n_aligned < aligned.size:
        group = gram.take(~aligned) if n_aligned else gram
        g_mat = group.factor(p_bar)
        refine(~aligned, phase_opt.heuristic_phases(g_mat), g_mat)
    return solved


def optimize_phases(real, stack: np.ndarray, p_bar: float, phase_mode: str) -> list:
    """Phase configuration of each user subset (row) of ``stack`` under the requested mode.

    ``stack`` is a 2-D integer array (c, K) of subsets (``gram.check_users``).
    This is the only route into the realization's table ``real.solves``,
    which holds each continuous solve (theta, G) read-only under
    (users, p_bar), so methods that share the realization solve each subset
    once.  The table is read first; the subsets it lacks are decomposed as
    one stack, solved by ``_continuous_stage`` and stored.

    continuous: the stored theta.  binary: it discretized, then element-wise
    +-1 sweeps on the stored G.
    """
    check_optimized_mode(phase_mode)
    keys = [(tuple(users), p_bar) for users in gram_mod.check_users(real, stack).tolist()]
    missed = [i for i, key in enumerate(keys) if key not in real.solves]
    if missed:
        solved = _continuous_stage(gram_mod.decompose(real, stack[missed]), p_bar)
        for i, (theta, g_mat) in zip(missed, solved):
            theta.theta.setflags(write=False)
            g_mat.setflags(write=False)
            real.solves[keys[i]] = (theta, g_mat)
    thetas = []
    for key in keys:
        theta, g_mat = real.solves[key]
        if phase_mode == "binary":
            theta = phase_opt.refine_elementwise(g_mat, phase_opt.discretize_binary(theta))
        thetas.append(theta)
    return thetas


def check_step(real, subsets) -> tuple:
    """The user subsets of one greedy step, as lists and as one (c, K) integer array.

    Raises ValueError for a step without subsets, subsets of different
    sizes, an empty subset, or a bad user index (``gram.check_users``, run
    on every entry before the array is built, so none is converted).
    """
    subsets = [list(users) for users in subsets]
    if not subsets:
        raise ValueError("no user subsets to evaluate")
    size = len(subsets[0])
    if any(len(users) != size for users in subsets):
        raise ValueError("user subsets of one step must have the same size")
    if not size:
        raise ValueError("user subset must be nonempty")
    gram_mod.check_users(real, itertools.chain.from_iterable(subsets))
    return subsets, np.array(subsets)


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

    Each subset gets its own phases, as ``optimize_phases`` gives them, or
    ``fixed_theta``, used for random phases that are a property of the RIS,
    not of the allocation.  The effective channels come from one batched product,
    so one call of ``thp.order_users`` runs the rank test, the QR, the
    inverse and the ordering for all of them, and the bounds come from one
    vector step.  A subset whose rows are dependent is infeasible; the others
    are ordered again without it.
    """
    subsets, stack = check_step(real, subsets)
    if stack.shape[1] > real.n_bs:
        raise ValueError("cannot allocate more users than BS antennas")

    if fixed_theta is not None:
        thetas = [fixed_theta] * len(subsets)
        theta_rows = fixed_theta.theta
    else:
        thetas = optimize_phases(real, stack, p_bar, phase_mode)
        theta_rows = np.stack([theta.theta for theta in thetas])
    h_eff = gram_mod.effective_channel(real, stack, theta_rows)
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

