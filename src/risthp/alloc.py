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
from .phase_opt import PhaseConfig


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
        return float(sum(thp.per_user_se(l, self.p_bar) for l in self.diag_l))


def _infeasible(users, theta, p_bar):
    return Allocation(users=list(users), theta=theta, order=np.array([], dtype=int),
                      se_bound=-np.inf, p_bar=p_bar, diag_l=np.array([]))


def check_phases(real, phases: str | PhaseConfig) -> None:
    """Raise ValueError unless ``phases`` is "continuous", "binary" or N_R phases for every subset.

    Random phases are such a PhaseConfig, drawn once by ``phase_opt.random_phases``.
    """
    if isinstance(phases, PhaseConfig):
        if phases.theta.shape != (real.n_ris,):
            raise ValueError(f"phases: {phases.theta.shape} phases for {real.n_ris} RIS elements")
    elif phases == "random":
        raise ValueError("phases: draw random phases once with phase_opt.random_phases")
    elif phases not in ("continuous", "binary"):
        raise ValueError(f"phases: unknown phase mode {phases!r}")


def _continuous_stage(gram: gram_mod.GramDecomposition, p_bar: float) -> list:
    """Continuous phases and phase factor G, as [(theta, G)], of each subset of a stack.

    One batched eigh of C (``gram.eig``) picks each subset's branch:
    alignment along C's zero-eigenvalue direction u (G the row u^H D) when C
    has exactly one zero eigenvalue (``gram.count_zero_eigenvalues``), else
    the eigenvector heuristic on G = ``gram.factor(p_bar)``.  Each branch
    runs once, on the sub-stack of its subsets (``take`` keeps that eig), or
    on the stack itself when every subset takes it; refinement on
    ||G theta_bar||^2 runs per subset.
    """
    aligned = gram_mod.count_zero_eigenvalues(gram.eig[0]) == 1
    solved = [None] * aligned.size

    def refine(mask, theta: PhaseConfig, g_mat: np.ndarray):
        for i, theta_i, g_i in zip(np.flatnonzero(mask), theta.theta, g_mat):
            solved[i] = (phase_opt.refine_elementwise(g_i, PhaseConfig(theta_i)), g_i)

    if aligned.any():
        group = gram if aligned.all() else gram.take(aligned)
        directions = phase_opt.zero_eig_direction(group)
        refine(aligned, phase_opt.align_phases(group, directions),
               directions.conj()[..., None, :] @ group.d_mat)
    if not aligned.all():
        g_mat = (gram.take(~aligned) if aligned.any() else gram).factor(p_bar)
        refine(~aligned, phase_opt.heuristic_phases(g_mat), g_mat)
    return solved


def optimize_phases(real, stack: np.ndarray, p_bar: float) -> list:
    """The stored continuous solves (theta, G, gram) of the user subsets (rows) of ``stack``.

    ``stack`` is a 2-D integer array (c, K) of subsets (``gram.check_users``).
    This is the only route into the realization's table ``real.solves``,
    which holds each solve read-only under (users, p_bar): the refined
    phases theta, the phase factor G they were refined on, and the subset's
    own row gram of the stacked ``gram.decompose``, with C, D and the eig
    its branch was picked by.  So methods that share the realization
    decompose and solve each subset once.  The table is read first; the
    subsets it lacks are decomposed as one stack, solved by
    ``_continuous_stage`` and stored.  The triples returned are the stored
    ones; a discrete method refines theta on its own objective.  A
    realization cannot change after its construction, so no solve goes stale.
    """
    keys = [(tuple(users), p_bar) for users in gram_mod.check_users(real, stack).tolist()]
    missed = [i for i, key in enumerate(keys) if key not in real.solves]
    if missed:
        dec = gram_mod.decompose(real, stack[missed])
        for j, (theta, g_mat) in enumerate(_continuous_stage(dec, p_bar)):
            row = dec.take(j)
            for array in (theta.theta, g_mat, row.c_mat, row.d_mat):
                array.setflags(write=False)
            real.solves[keys[missed[j]]] = (theta, g_mat, row)
    return [real.solves[key] for key in keys]


def check_step(real, subsets) -> tuple:
    """The user subsets of one greedy step, as lists of ints and as one (c, K) integer array.

    ``subsets`` is the step as one 2-D array, one subset per row, as
    ``_greedy`` builds it: ``gram.check_users`` tests its dtype and range in
    one vector operation.  Any other iterable of subsets is checked entry by
    entry before the array is built, so none is converted.  Raises
    ValueError for a step without subsets, subsets of different sizes, an
    empty subset, or a bad user index.  The evaluators call it after ``check_phases``.
    """
    if not (isinstance(subsets, np.ndarray) and subsets.ndim == 2):
        subsets = [list(users) for users in subsets]
        if any(len(users) != len(subsets[0]) for users in subsets):
            raise ValueError("user subsets of one step must have the same size")
        gram_mod.check_users(real, itertools.chain.from_iterable(subsets))
        subsets = np.array(subsets)
    if not len(subsets):
        raise ValueError("no user subsets to evaluate")
    if not subsets.shape[1]:
        raise ValueError("user subset must be nonempty")
    stack = gram_mod.check_users(real, subsets)
    return stack.tolist(), stack


class Step(list):
    """The allocations of one greedy step, in the order of its subsets."""

    @property
    def feasible(self) -> bool:
        """Whether every subset of the step is feasible.

        Read as ``Allocation.feasible`` is, so the benchmark's outcome counter
        for ``evaluate_allocation`` counts the calls with an infeasible subset.
        """
        return all(a.feasible for a in self)


class Round(Step):
    """The steps of one lockstep round, one per lane: feasible when every step is."""


def _step_phases(real, stack: np.ndarray, p_bar: float, phases: str | PhaseConfig):
    """The phases of each subset of one lane's step, as PhaseConfigs and as (c, N_R) rows."""
    if isinstance(phases, PhaseConfig):
        return [phases] * len(stack), phases.theta
    thetas = [phase_opt.refine_elementwise(g_mat, phase_opt.discretize_binary(theta))
              if phases == "binary" else theta
              for theta, g_mat, _ in optimize_phases(real, stack, p_bar)]
    return thetas, np.array([theta.theta for theta in thetas])


def evaluate_allocation(real, subsets, p_bar: float, phases: str | PhaseConfig) -> Step | Round:
    """Phase + order optimization and the SE bound for user subsets of one size.

    ``phases`` (``check_phases``) is "continuous" or "binary", solved per
    subset, or one PhaseConfig that every subset uses, such as the random
    phases of the RIS.  Solved phases are the continuous theta that
    ``optimize_phases`` returns; for binary, theta discretized, then
    element-wise +-1 sweeps on the returned G
    (``phase_opt.refine_elementwise``).  The effective channels come from
    one batched product, so one call of ``thp.order_users`` runs the rank
    test, the QR, the inverse and the ordering for all of them, and the
    bounds come from one vector step.  The rank rule is the only gate: a
    subset with dependent rows, as any of more users than BS antennas, is
    infeasible, and the others, if any, are ordered again without it.

    Several lanes (greedy runs) are evaluated together when ``real``,
    ``subsets`` and ``phases`` are lists of one entry per lane: one
    realization, one step and one phases value each, every step of one
    subset size on one BS array size.  Every lane is checked before any is
    phased, and they are phased in list order, so lanes on one realization
    meet its solve table as one call per lane in that order would.  One ``order_users`` call then
    orders the joined stack of every lane's channels, which orders each
    matrix as if alone, and the result is a Round: one Step per lane.
    """
    one = not isinstance(real, list)
    reals, steps, lane_phases = ([real], [subsets], [phases]) if one else (real, subsets, phases)
    if not len(reals) == len(steps) == len(lane_phases):
        raise ValueError(f"lanes: {len(reals)} realizations, {len(steps)} steps and "
                         f"{len(lane_phases)} phases")
    for real_i, phases_i in zip(reals, lane_phases):
        check_phases(real_i, phases_i)
    checked = [check_step(real_i, step) for real_i, step in zip(reals, steps)]
    if len({(stack.shape[1], real_i.n_bs) for real_i, (_, stack) in zip(reals, checked)}) > 1:
        raise ValueError("lanes: the steps of one round need one subset size and one BS array")

    thetas, channels = [], []
    for real_i, (_, stack), phases_i in zip(reals, checked, lane_phases):
        lane_thetas, theta_rows = _step_phases(real_i, stack, p_bar, phases_i)
        thetas.append(lane_thetas)
        channels.append(gram_mod.effective_channel(real_i, stack, theta_rows))
    h_eff = np.concatenate(channels)
    feasible = np.ones(len(h_eff), dtype=bool)
    try:
        order, diag_l = thp.order_users(h_eff)
    except thp.RankDeficientError as exc:
        feasible = ~exc.deficient
        order, diag_l = (thp.order_users(h_eff[feasible]) if feasible.any()
                         else ((), np.empty((0, h_eff.shape[1]))))
    se_bound = np.maximum(0.0, thp.se_asymptote(diag_l, p_bar)).sum(axis=1)
    solved, ok = iter(zip(order, se_bound, diag_l)), iter(feasible)
    result = Round()
    for (lane_subsets, _), lane_thetas in zip(checked, thetas):
        step = Step()
        for users, theta in zip(lane_subsets, lane_thetas):
            if next(ok):
                order_u, bound, gains = next(solved)
                step.append(Allocation(users=users, theta=theta, order=order_u,
                                       se_bound=float(bound), p_bar=p_bar, diag_l=gains))
            else:
                step.append(_infeasible(users, theta, p_bar))
        result.append(step)
    return result[0] if one else result


def _greedy(reals: list, p_bar: float, phases: list, evaluate, score) -> list:
    """Greedy allocation in lockstep lanes: add users one by one while the score rises.

    A lane is one greedy run, on ``reals[i]`` at ``phases[i]``; the result
    holds each lane's kept solution, in lane order.  Each round,
    ``evaluate(reals, steps, p_bar, phases)``, given the active lanes in
    lane order, solves one step per lane, all of one size, and returns each
    lane's solutions in order; ``score`` maps a solution to a float.  A
    lane's ``phases`` goes to every step as it is, so a PhaseConfig (random
    phases, drawn once by the caller) is shared by every candidate subset.
    Each step is handed over as one (c, K) integer array, one subset per
    row, so ``check_step`` checks it by one vector test, not entry by
    entry.  A lane starts from the single user with the largest score.  Each
    step appends every unallocated user in index order, keeps the first
    maximum of the score, and the lane stops when that does not raise the
    score or when min(K, N_B) users are allocated.
    """
    if len(phases) != len(reals):
        raise ValueError(f"lanes: {len(reals)} realizations and {len(phases)} phases")

    def solve(active, steps):
        round_ = evaluate([reals[i] for i in active], steps, p_bar, [phases[i] for i in active])
        return [max(step, key=score) for step in round_]

    caps = [min(real.n_users, real.n_bs) for real in reals]
    active = range(len(reals))
    best = solve(active, [np.arange(real.n_users)[:, None] for real in reals])
    while active := [i for i in active if len(best[i].users) < caps[i]]:
        steps = [np.array([best[i].users + [u] for u in range(reals[i].n_users)
                           if u not in best[i].users]) for i in active]
        grown = []
        for i, step in zip(active, solve(active, steps)):
            if score(step) > score(best[i]):
                best[i] = step
                grown.append(i)
        active = grown
    return best


def greedy_allocate(real, p_bar: float, phases: str | PhaseConfig) -> Allocation | list:
    """Greedy allocation maximizing the high-SNR sum-SE bound at ``phases`` (``check_phases``).

    With lists ``real`` and ``phases``, one entry per lane, the lanes run in
    lockstep (``_greedy``), one ``evaluate_allocation`` call per round, and
    the result is the list of their allocations.
    """
    one = not isinstance(real, list)
    best = _greedy([real] if one else real, p_bar, [phases] if one else phases,
                   evaluate_allocation, lambda a: a.se_bound)
    return best[0] if one else best
