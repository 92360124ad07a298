"""Workloads of the risthp benchmark and the seeds of their figure-trials.

A figure-trial is one trial index run at every sweep point of a workload with
every method of the workload, channel draws included.  The benchmark runs one
figure-trial per ``sim.run`` call: a ``RunConfig`` with ``trials=1`` whose
scenario seed is derived from the run's ``--seed`` and the figure-trial index.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from risthp.channel import ScenarioConfig
from risthp.sim import RunConfig

THP_FAMILY = ("thp", "thp_discrete", "thp_random", "thp_no_ris", "dpc_rate")
LINEAR_FAMILY = ("linear_zf", "linear_zf_discrete", "linear_zf_random")


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple
    sweep_name: str  # a sim.SWEEP_NAMES entry or "none"
    sweep_values: tuple
    scenario: dict  # ScenarioConfig overrides of the default scenario
    inputs: int  # figure-trials of a run, timed or traced, seeded from --seed

    @property
    def sweep_points(self) -> tuple:
        """Sweep values as sim.run enumerates them (one 0.0 point without a sweep)."""
        return self.sweep_values if self.sweep_name != "none" else (0.0,)

    @property
    def ops_per_trial(self) -> int:
        return len(self.sweep_points) * len(self.methods)


# Every run times the same number of inputs, so how fast the host is cannot
# change which figure-trials a run measures.
WORKLOADS = {w.name: w for w in (
    Workload("nr_sweep", THP_FAMILY, "n_ris", (64, 128, 256, 512), {}, inputs=4),
    Workload("linear_zf", LINEAR_FAMILY, "none", (), {"n_ris": 64}, inputs=8),
    Workload("tx_sweep", THP_FAMILY, "tx_dbm", (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
             {"n_ris": 32}, inputs=8),
)}


def trial_seed(seed: int, index: int) -> int:
    """Scenario seed of figure-trial ``index`` of a run started with ``--seed seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def figure_trial_config(workload: Workload, scenario_seed: int) -> RunConfig:
    """RunConfig of one figure-trial."""
    return RunConfig(scenario=ScenarioConfig(seed=scenario_seed, **workload.scenario),
                     trials=1, methods=workload.methods,
                     sweep_name=workload.sweep_name, sweep_values=workload.sweep_values)


def scenario_at(workload: Workload, scenario_seed: int, sweep_value) -> ScenarioConfig:
    """Scenario of one sweep point, built independently of sim.run."""
    scenario = ScenarioConfig(seed=scenario_seed, **workload.scenario)
    cast = {"n_ris": int, "asd": float, "tx_dbm": float}
    if workload.sweep_name == "none":
        return scenario
    return dataclasses.replace(
        scenario, **{workload.sweep_name: cast[workload.sweep_name](sweep_value)})
