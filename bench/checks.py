"""Correctness checks the benchmark applies to every record it collects.

Per record: finite, nonnegative SE; an allocation size in [1, min(K, N_B)],
and K users for ``dpc_rate``; SE no larger than the sum of the users'
single-user capacities at full power.  The capacity bound is computed here
with plain numpy from the channel realization, regenerated with the seed
derivation of ``sim.run``.  Per run: the paper's orderings of the method
means, and bit-identical records (``wall_time_ms`` aside) when a seeded
trial is run again.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict

import numpy as np

from risthp import channel

from workloads import Workload, scenario_at


def capacity_bound(h_direct, h_cascaded, b_vec, tx_power: float) -> float:
    """Sum over users of log2(1 + P (||h_d,k|| + ||h_c,k||_1 ||b||)^2).

    For any unit-modulus phases the effective channel of user k has norm at
    most ||h_d,k|| + ||h_c,k||_1 ||b||, so no precoder and no allocation can
    exceed this sum of single-user capacities at full power P.
    """
    gain = (np.linalg.norm(h_direct, axis=1)
            + np.abs(h_cascaded).sum(axis=1) * np.linalg.norm(b_vec))
    return float(np.sum(np.log2(1.0 + tx_power * gain ** 2)))


def regenerate(scenario, sweep_idx: int, trial: int = 0):
    """The realization sim.run draws for (sweep index, trial) of this scenario."""
    ss = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(sweep_idx, trial))
    return channel.draw_realization(scenario, np.random.default_rng(ss))


def record_problems(rec, n_users: int, n_bs: int, bound: float) -> list:
    """Reasons one record is wrong; empty when it passes."""
    problems = []
    se = rec.sum_se_bits
    if not (math.isfinite(se) and se >= 0.0):
        problems.append(f"sum_se_bits={se!r} is not finite and >= 0")
    elif se > bound:
        problems.append(f"sum_se_bits={se:.6f} exceeds the capacity bound {bound:.6f}")
    if not 1 <= rec.n_allocated <= min(n_users, n_bs):
        problems.append(f"n_allocated={rec.n_allocated} outside [1, {min(n_users, n_bs)}]")
    if rec.method == "dpc_rate" and rec.n_allocated != n_users:
        problems.append(f"dpc_rate allocated {rec.n_allocated} of {n_users} users")
    return problems


def sweep_bounds(workload: Workload, scenario_seed: int) -> list:
    """(scenario, capacity bound) of each sweep point of one figure-trial."""
    out = []
    for sweep_idx, value in enumerate(workload.sweep_points):
        scenario = scenario_at(workload, scenario_seed, value)
        real = regenerate(scenario, sweep_idx)
        out.append((scenario, capacity_bound(real.h_direct, real.h_cascaded,
                                             real.b_vec, scenario.tx_power)))
    return out


def check_figure_trial(workload: Workload, bounds, records) -> list:
    """Problems of each (sweep point, method) operation of one figure-trial.

    ``bounds`` comes from ``sweep_bounds``.  Returns one list of reasons per
    operation, in sweep-then-method order; an operation whose record is
    missing or repeated fails too.
    """
    by_key = defaultdict(list)
    for rec in records:
        by_key[(rec.sweep_value, rec.method)].append(rec)
    results = []
    for value, (scenario, bound) in zip(workload.sweep_points, bounds):
        for method in workload.methods:
            found = by_key.pop((float(value), method), [])
            if len(found) != 1:
                results.append([f"{len(found)} records for {method} at {value}"])
                continue
            results.append(record_problems(found[0], scenario.n_users,
                                           scenario.n_bs, bound))
    for key, recs in by_key.items():
        results.append([f"unexpected record {key}"] * len(recs))
    return results


def paper_properties(workload: Workload, records) -> list:
    """(property, holds, detail) for each paper ordering that applies to the workload."""
    sums = defaultdict(lambda: [0.0, 0])
    for rec in records:
        for key in (rec.method, (rec.method, rec.sweep_value)):
            sums[key][0] += rec.sum_se_bits
            sums[key][1] += 1

    def mean(key):
        total, count = sums[key]
        return total / count if count else math.nan

    methods = set(workload.methods)
    out = []
    for hi, lo, strict in (("thp", "thp_random", True), ("thp", "thp_discrete", False),
                           ("linear_zf", "linear_zf_random", True)):
        if {hi, lo} <= methods:
            a, b = mean(hi), mean(lo)
            out.append((f"mean {hi} {'>' if strict else '>='} {lo}",
                        a > b if strict else a >= b, f"{a:.4f} vs {b:.4f}"))
    if "thp" in methods and workload.sweep_name == "tx_dbm":
        curve = [mean(("thp", float(v))) for v in sorted(workload.sweep_values)]
        out.append(("mean thp increases with tx_dbm",
                    all(b > a for a, b in zip(curve, curve[1:])),
                    " < ".join(f"{v:.3f}" for v in curve)))
    if "thp" in methods and workload.sweep_name == "n_ris":
        lo_nr, hi_nr = min(workload.sweep_values), max(workload.sweep_values)
        a, b = mean(("thp", float(hi_nr))), mean(("thp", float(lo_nr)))
        out.append((f"mean thp at n_ris={hi_nr} > at n_ris={lo_nr}", a > b,
                    f"{a:.4f} vs {b:.4f}"))
    return out


def _fields(rec) -> dict:
    row = dataclasses.asdict(rec)
    del row["wall_time_ms"]
    return row


def reproducibility_problems(first, second) -> list:
    """Differences between two runs of the same seeded trials, wall_time_ms aside."""
    a = [_fields(r) for r in first]
    b = [_fields(r) for r in second]
    if len(a) != len(b):
        return [f"{len(a)} records against {len(b)}"]
    return [f"{x} != {y}" for x, y in zip(a, b) if x != y]
