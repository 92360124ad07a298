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


def _continuous_stage(gram: gram_mod.GramDecomposition, p_bar: np.ndarray) -> list:
    """Continuous phases and phase factor G, as [(theta, G)], of each subset of a stack.

    ``p_bar`` holds one power per subset.  One batched eigh of C
    (``gram.eig``) picks each subset's branch: alignment along C's
    zero-eigenvalue direction u (G the row u^H D) when C has exactly one
    zero eigenvalue (``gram.count_zero_eigenvalues``), else the eigenvector
    heuristic on G = ``gram.factor(p_bar)``.  Each branch runs once, on the
    sub-stack of its subsets (``take`` keeps that eig), or on the stack
    itself when every subset takes it, and its phases are refined on
    ||G theta_bar||^2 as one stack.
    """
    aligned = gram_mod.count_zero_eigenvalues(gram.eig[0]) == 1
    solved = [None] * aligned.size

    def refine(mask, theta: PhaseConfig, g_mat: np.ndarray):
        refined = phase_opt.refine_elementwise(g_mat, theta)
        for i, theta_i, g_i in zip(np.flatnonzero(mask), refined, g_mat):
            solved[i] = (theta_i, g_i)

    if aligned.any():
        group = gram if aligned.all() else gram.take(aligned)
        directions = phase_opt.zero_eig_direction(group)
        refine(aligned, phase_opt.align_phases(group, directions),
               directions.conj()[..., None, :] @ group.d_mat)
    if not aligned.all():
        g_mat = (gram.take(~aligned).factor(p_bar[~aligned]) if aligned.any()
                 else gram.factor(p_bar))
        refine(~aligned, phase_opt.heuristic_phases(g_mat), g_mat)
    return solved


def optimize_phases(reals: list, stacks: list, p_bars: list) -> list:
    """The stored continuous solves (theta, G, gram) of a round's lanes, one list per lane.

    A lane is one realization ``reals[i]``, a 2-D integer array (c, K) of
    user subsets ``stacks[i]`` (``gram.check_users``) and one power
    ``p_bars[i]``; a single caller passes one lane.  This is the only route
    into a realization's table ``real.solves``, which holds each solve
    read-only under (users, p_bar): the refined phases theta, the phase
    factor G they were refined on, and the subset's own row gram of a
    stacked ``gram.decompose``, with C, D and the eig its branch was picked
    by.  So methods that share the realization decompose and solve each
    subset once.  The tables are read first, and each missed (realization,
    users, p_bar) key is solved once, even when two lanes miss it.  Each
    lane's misses are decomposed as one stack; the misses of every lane
    whose D has one shape are joined into one stack, whose one
    ``_continuous_stage`` call takes one eigh of C, one branch split, one
    heuristic eigh and one refinement per branch, each subset at its own
    lane's p_bar.  Every stored triple equals the one a call on its subset
    alone stores, bit for bit.  The triples returned are the stored ones; a
    discrete method refines theta on its own objective.  A realization
    cannot change after its construction, so no solve goes stale.
    """
    keys = [[(tuple(users), p_bar) for users in gram_mod.check_users(real, stack).tolist()]
            for real, stack, p_bar in zip(reals, stacks, p_bars, strict=True)]
    groups, seen = {}, set()  # shape of D -> [((lane, row) of each miss, their decomposition)]
    for lane, (real, stack, lane_keys) in enumerate(zip(reals, stacks, keys)):
        rows = []
        for row, key in enumerate(lane_keys):
            if key not in real.solves and (id(real), key) not in seen:
                seen.add((id(real), key))
                rows.append(row)
        if rows:
            dec = gram_mod.decompose(real, stack[rows])
            groups.setdefault(dec.d_mat.shape[1:], []).append(([(lane, row) for row in rows], dec))
    for group in groups.values():
        decs = [dec for _, dec in group]
        dec = gram_mod.GramDecomposition(
            np.concatenate([d.c_mat for d in decs]), np.concatenate([d.d_mat for d in decs]),
            tuple(itertools.chain.from_iterable(d.users for d in decs)))
        targets = [target for lane_rows, _ in group for target in lane_rows]
        p_rows = np.array([p_bars[lane] for lane, _ in targets])
        for j, ((lane, row), (theta, g_mat)) in enumerate(
                zip(targets, _continuous_stage(dec, p_rows))):
            stored = dec.take(j)
            for array in (theta.theta, g_mat, stored.c_mat, stored.d_mat):
                array.setflags(write=False)
            reals[lane].solves[keys[lane][row]] = (theta, g_mat, stored)
    return [[real.solves[key] for key in lane_keys] for real, lane_keys in zip(reals, keys)]


def check_step(real, subsets) -> tuple:
    """The user subsets of one greedy step, as lists of ints and as one (c, K) integer array.

    ``subsets`` is the step as one 2-D array, one subset per row, as
    ``_greedy`` builds it: ``gram.check_users`` tests its dtype and range in
    one vector operation.  Any other iterable of subsets is checked entry by
    entry before the array is built, so none is converted.  Raises
    ValueError for a step without subsets, subsets of different sizes, an
    empty subset, or a bad user index.  ``check_round`` calls it after ``check_phases``.
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


class Round(list):
    """The solutions of one lockstep round, from either evaluator: one list per lane, in order."""

    @property
    def feasible(self) -> bool:
        """Whether every solution of every lane is feasible.

        Read as ``Allocation.feasible`` is, so the benchmark's outcome counter
        for ``evaluate_allocation`` counts the calls with an infeasible subset.
        """
        return all(a.feasible for step in self for a in step)


def _step_phases(stack: np.ndarray, phases: str | PhaseConfig, solves):
    """The phases of each subset of one lane's step, as PhaseConfigs and as (c, N_R) rows.

    ``solves`` are the lane's stored continuous solves, or None for a PhaseConfig.
    """
    if isinstance(phases, PhaseConfig):
        return [phases] * len(stack), phases.theta
    thetas = [phase_opt.refine_elementwise(g_mat, phase_opt.discretize_binary(theta))
              if phases == "binary" else theta
              for theta, g_mat, _ in solves]
    return thetas, np.array([theta.theta for theta in thetas])


def _lane_powers(p_bar, n_lanes: int) -> list:
    """The per-user power p_bar of each of ``n_lanes`` lanes, as floats.

    ``p_bar`` is one number, which every lane takes, or one per lane.
    Raises ValueError for a count other than one or ``n_lanes``, and unless
    every power is positive and finite (NaN fails).
    """
    p_bars = np.asarray(p_bar, dtype=float)
    if p_bars.ndim == 0:
        p_bars = np.full(n_lanes, p_bars)
    elif p_bars.shape != (n_lanes,):
        raise ValueError(f"lanes: {n_lanes} lanes and {p_bars.size} powers p_bar")
    bad = p_bars[~((p_bars > 0) & (p_bars < np.inf))]
    if bad.size:
        raise ValueError(f"p_bar must be positive and finite, got {bad[0].item()!r}")
    return p_bars.tolist()


def check_round(reals: list, steps: list, p_bar, phases: list) -> tuple:
    """Check one round of lanes, then solve them: (p_bars, checked, solves), one entry per lane.

    A lane is one greedy run: ``reals``, ``steps`` and ``phases`` hold one
    realization, one step of user subsets (``check_step``) and one phases
    value (``check_phases``) per lane, every step of one subset size on one
    BS array size; ``p_bar`` is one per-user power for every lane or one per
    lane (``_lane_powers``).  Every lane is checked before any is phased,
    then one ``optimize_phases`` call returns the stored solves of every
    lane whose phases are "continuous" or "binary"; a PhaseConfig lane gets
    None.  Raises ValueError for a round without lanes.
    """
    if not len(reals) == len(steps) == len(phases):
        raise ValueError(f"lanes: {len(reals)} realizations, {len(steps)} steps and "
                         f"{len(phases)} phases")
    if not reals:
        raise ValueError("lanes: no lanes to evaluate")
    p_bars = _lane_powers(p_bar, len(reals))
    for real, phases_i in zip(reals, phases):
        check_phases(real, phases_i)
    checked = [check_step(real, step) for real, step in zip(reals, steps)]
    if len({(stack.shape[1], real.n_bs) for real, (_, stack) in zip(reals, checked)}) > 1:
        raise ValueError("lanes: the steps of one round need one subset size and one BS array")
    solving = [i for i, phases_i in enumerate(phases) if not isinstance(phases_i, PhaseConfig)]
    solved = iter(optimize_phases(
        [reals[i] for i in solving], [checked[i][1] for i in solving],
        [p_bars[i] for i in solving]) if solving else ())
    return p_bars, checked, [None if isinstance(phases_i, PhaseConfig) else next(solved)
                             for phases_i in phases]


def evaluate_allocation(reals: list, steps: list, p_bar, phases: list) -> Round:
    """Phase + order optimization and the SE bound for one round of lanes (``check_round``).

    A lane's power keys its solves and goes into its allocations.  Its
    phases are "continuous" or "binary", solved per subset, or one
    PhaseConfig that every subset uses, such as the random phases of the
    RIS.  For binary, the solved theta is discretized, then refined by
    element-wise +-1 sweeps on the returned G (``phase_opt.refine_elementwise``).
    A key that two lanes miss is solved once, so lanes on one realization
    read the same stored solves as one call per lane in list order would.
    The effective channels come from one batched product per lane, and one
    call of ``thp.order_users`` runs the rank test, the QR, the inverse and
    the ordering for the joined stack of every lane, which orders each
    matrix as if alone; the bounds come from one vector step.  The rank
    rule is the only gate: a subset with dependent rows, as any of more
    users than BS antennas, is infeasible, and the others, if any, are
    ordered again without it.
    """
    p_bars, checked, solves = check_round(reals, steps, p_bar, phases)
    thetas, channels = [], []
    for real, (_, stack), phases_i, lane_solves in zip(reals, checked, phases, solves):
        lane_thetas, theta_rows = _step_phases(stack, phases_i, lane_solves)
        thetas.append(lane_thetas)
        channels.append(gram_mod.effective_channel(real, stack, theta_rows))
    h_eff = np.concatenate(channels)
    p_rows = np.repeat(p_bars, [len(stack) for _, stack in checked])
    feasible = np.ones(len(h_eff), dtype=bool)
    try:
        order, diag_l = thp.order_users(h_eff)
    except thp.RankDeficientError as exc:
        feasible = ~exc.deficient
        order, diag_l = (thp.order_users(h_eff[feasible]) if feasible.any()
                         else ((), np.empty((0, h_eff.shape[1]))))
    se_bound = np.maximum(0.0, thp.se_asymptote(diag_l, p_rows[feasible][:, None])).sum(axis=1)
    solved, ok = iter(zip(order, se_bound, diag_l)), iter(feasible)

    def allocation(users, theta, p_bar_i):
        if not next(ok):
            return _infeasible(users, theta, p_bar_i)
        order_u, bound, gains = next(solved)
        return Allocation(users=users, theta=theta, order=order_u, se_bound=float(bound),
                          p_bar=p_bar_i, diag_l=gains)

    return Round([allocation(users, theta, p_bar_i)
                  for users, theta in zip(lane_subsets, lane_thetas)]
                 for (lane_subsets, _), lane_thetas, p_bar_i in zip(checked, thetas, p_bars))


def _greedy(reals: list, p_bar, phases: list, evaluate, score) -> list:
    """Greedy allocation in lockstep lanes: add users one by one while the score rises.

    A lane is one greedy run, on ``reals[i]`` at its power (``_lane_powers``
    of ``p_bar``, checked first) and ``phases[i]``; the result holds each
    lane's kept solution, in lane order.  Each round, ``evaluate(reals,
    steps, p_bars, phases)``, given the active lanes in lane order, solves
    one step per lane, all of one size, and returns each lane's solutions in
    order; ``score`` maps a solution to a float.  A lane's ``phases`` goes
    to every step as it is, so a PhaseConfig (random phases, drawn once by
    the caller) is shared by every candidate subset.
    Each step is handed over as one (c, K) integer array, one subset per
    row, so ``check_step`` checks it by one vector test, not entry by
    entry.  A lane starts from the single user with the largest score.  Each
    step appends every unallocated user in index order, keeps the first
    maximum of the score, and the lane stops when that does not raise the
    score or when min(K, N_B) users are allocated.
    """
    p_bars = _lane_powers(p_bar, len(reals))
    if len(phases) != len(reals):
        raise ValueError(f"lanes: {len(reals)} realizations and {len(phases)} phases")

    def solve(active, steps):
        round_ = evaluate([reals[i] for i in active], steps, [p_bars[i] for i in active],
                          [phases[i] for i in active])
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


def greedy_allocate(reals: list, p_bar, phases: list) -> list:
    """Greedy allocations maximizing the high-SNR sum-SE bound, one per lane.

    ``reals[i]`` at ``phases[i]`` (``check_phases``) and its power p_bar,
    one for every lane or one per lane (``_lane_powers``, checked before any
    lane is phased), is a lane; the lanes run in lockstep (``_greedy``), one
    ``evaluate_allocation`` call per round.
    """
    return _greedy(reals, p_bar, phases, evaluate_allocation, lambda a: a.se_bound)
