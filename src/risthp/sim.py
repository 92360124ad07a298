"""Monte Carlo harness, scenario configs, CSV emission and CLI.

Every method inside a (sweep point, trial) cell consumes the identical
channel realization so the comparisons are paired.  Per-trial generators are
derived from (seed, sweep index, trial index).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import alloc, baseline, channel, gram as gram_mod, phase_opt, thp
from .channel import (PATHLOSS_PRESETS, PathlossModel, ScenarioConfig,
                      draw_realization)

# swept ScenarioConfig field -> type of its values
SWEEP_TYPES = {"asd": float, "n_ris": int, "tx_dbm": float}
SWEEP_NAMES = tuple(SWEEP_TYPES)

CSV_HEADER = "trial,method,sweep_name,sweep_value,n_allocated,sum_se_bits,wall_time_ms"


@dataclass
class RunConfig:
    scenario: ScenarioConfig
    trials: int = 10
    methods: tuple = ("thp", "linear_zf")
    sweep_name: str = "none"
    sweep_values: tuple = ()

    def __post_init__(self):
        if (isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral)
                or self.trials < 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (isinstance(self.methods, (list, tuple)) and self.methods):
            raise ValueError(f"methods: expected a nonempty list of method names, "
                             f"got {self.methods!r}")
        self.methods = tuple(self.methods)
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"methods: unknown method {m!r}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods: {list(self.methods)} names a method twice")
        if self.sweep_name == "none" and self.sweep_values:
            raise ValueError(f"sweep: values {list(self.sweep_values)} need a sweep name")
        if self.sweep_name != "none":
            if self.sweep_name not in SWEEP_NAMES:
                raise ValueError(f"sweep: unknown sweep {self.sweep_name!r}")
            if not self.sweep_values:
                raise ValueError("sweep: value list must be nonempty")
            cast = SWEEP_TYPES[self.sweep_name]
            for value in self.sweep_values:
                try:
                    # a point runs at cast(value) and is recorded as value
                    if isinstance(value, bool):
                        raise ValueError("a bool is not a sweep value")
                    if cast(value) != value:
                        raise ValueError(f"would run as {cast(value)!r}")
                    _scenario_at(self.scenario, self.sweep_name, value)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"sweep: {self.sweep_name}={value!r}: {exc}") from exc
            # the CSV tells sweep points apart by their value only
            if len(set(self.sweep_values)) < len(self.sweep_values):
                raise ValueError(f"sweep: {self.sweep_name} repeats a value in "
                                 f"{list(self.sweep_values)}")


@dataclass
class ResultRecord:
    trial: int
    method: str
    sweep_name: str
    sweep_value: float
    n_allocated: int
    sum_se_bits: float
    wall_time_ms: float


class ConfigError(ValueError):
    """Scenario/run config validation failure, with the offending field path."""


def _parse_pathloss(value, path):
    if isinstance(value, str):
        if value not in PATHLOSS_PRESETS:
            raise ConfigError(f"{path}: unknown pathloss preset {value!r}")
        return PATHLOSS_PRESETS[value]
    if isinstance(value, dict):
        allowed = {"alpha_db", "beta_exponent", "label"}
        unknown = set(value) - allowed
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        try:
            return PathlossModel(**value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}: expected preset name or mapping")


def parse_scenario(data: dict, path: str = "scenario") -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {data!r}")
    allowed = {f.name for f in fields(ScenarioConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("pathloss_direct", "pathloss_ris_user", "pathloss_bs_ris"):
        if key in kwargs:
            kwargs[key] = _parse_pathloss(kwargs[key], f"{path}.{key}")
    for key in ("bs_pos", "ris_pos", "user_circle_center"):
        if key in kwargs:
            if not isinstance(kwargs[key], list):
                raise ConfigError(f"{path}.{key}: expected an [x, y] list, got {kwargs[key]!r}")
            kwargs[key] = tuple(kwargs[key])
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_run_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a mapping, got {data!r}")
    allowed = {"scenario", "trials", "methods", "sweep"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    if "scenario" not in data:
        raise ConfigError("config.scenario: required")
    scenario = parse_scenario(data["scenario"])
    sweep_name, sweep_values = "none", ()
    sweep = data.get("sweep", "none")
    if sweep != "none" and sweep is not None:
        if not isinstance(sweep, dict) or len(sweep) != 1:
            raise ConfigError("config.sweep: expected 'none' or a single-key mapping")
        sweep_name, values = next(iter(sweep.items()))
        if sweep_name not in SWEEP_NAMES:
            raise ConfigError(f"config.sweep: unknown sweep {sweep_name!r}")
        if not isinstance(values, list):
            raise ConfigError(f"config.sweep.{sweep_name}: expected a list, got {values!r}")
        sweep_values = tuple(values)
    try:
        return RunConfig(scenario=scenario, trials=data.get("trials", 10),
                         methods=data.get("methods", ("thp", "linear_zf")),
                         sweep_name=sweep_name, sweep_values=sweep_values)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def load_run_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_run_config(json.load(fh))


def _scenario_at(scenario: ScenarioConfig, sweep_name: str, value) -> ScenarioConfig:
    """The scenario of one sweep point, validated by ScenarioConfig."""
    if sweep_name == "none":
        return scenario
    return dataclasses.replace(scenario, **{sweep_name: SWEEP_TYPES[sweep_name](value)})


def _thp(reals, p_bar, phases):
    """THP on lanes, one (realization, phases) each, run by one lockstep greedy."""
    return [(len(a.users), max(0.0, a.se_exact))
            for a in alloc.greedy_allocate(reals, p_bar, phases)]


def _dpc(real, p_bar, phases):
    (theta, _, dec), = alloc.optimize_phases(real, np.arange(real.n_users)[None], p_bar)
    return real.n_users, gram_mod.dpc_sum_se(dec, gram_mod.extend_theta(theta.theta), p_bar)


def _linear_zf(real, p_bar, phases):
    sol = baseline.greedy_allocate_linear(real, p_bar, phases)
    return len(sol.users), sol.sum_se


# method -> (family, phases).  The order is part of the results: sim.run
# derives each method's random stream from its index in METHODS.
_METHOD_TABLE = {
    "thp": (_thp, "continuous"),
    "thp_random": (_thp, "random"),
    "thp_discrete": (_thp, "binary"),
    "thp_no_ris": (_thp, "random"),
    "dpc_rate": (_dpc, "continuous"),
    "linear_zf": (_linear_zf, "continuous"),
    "linear_zf_random": (_linear_zf, "random"),
    "linear_zf_discrete": (_linear_zf, "binary"),
}
METHODS = tuple(_METHOD_TABLE)
# the methods that run on the realization without the RIS: a zero cascade
_NO_RIS = ("thp_no_ris",)


def run_methods(methods, real, p_bar: float, rngs) -> list:
    """Run methods of one family on one realization; one (n_allocated, sum_se_bits) each.

    ``rngs[i]`` draws method i's phases, once, for every subset it tries,
    when they are random.  THP methods run as the lanes of one lockstep
    greedy (``alloc.greedy_allocate``), in the order given; the others run
    one after another.
    """
    if not methods:
        raise ValueError("methods: no methods to run")
    for method in methods:
        if method not in _METHOD_TABLE:
            raise ValueError(f"unknown method {method!r}")
    families = {_METHOD_TABLE[method][0] for method in methods}
    if len(families) != 1:
        raise ValueError(f"methods: {list(methods)} are not of one family")
    reals, phases = [], []
    for method, rng in zip(methods, rngs, strict=True):
        phases_i = _METHOD_TABLE[method][1]
        if phases_i == "random":
            phases_i = phase_opt.random_phases(real.n_ris, rng)
        phases.append(phases_i)
        reals.append(dataclasses.replace(real, h_cascaded=np.zeros_like(real.h_cascaded))
                     if method in _NO_RIS else real)
    family, = families
    if family is _thp:
        return _thp(reals, p_bar, phases)
    return [family(real_i, p_bar, phases_i) for real_i, phases_i in zip(reals, phases)]


def run(config: RunConfig) -> list:
    """Execute the Monte Carlo grid; records sorted by (sweep, trial, method).

    The methods of a (sweep point, trial) cell share its realization, and so
    its continuous phase solves, and run in ``sorted(methods)`` order, each
    alone but the THP methods: they run together, where the first of them
    sorts, as the lanes of one lockstep greedy (``run_methods``).  A
    method's ``wall_time_ms`` is the time of its own run, or an equal share
    of its THP group's, and excludes the solves a method before it already
    made.
    """
    records = []
    sweep_points = (list(config.sweep_values)
                    if config.sweep_name != "none" else [0.0])
    methods = sorted(config.methods)
    thp = [method for method in methods if _METHOD_TABLE[method][0] is _thp]
    groups = [thp if method in thp else [method] for method in methods if method not in thp[1:]]
    for sweep_idx, sweep_value in enumerate(sweep_points):
        scenario = _scenario_at(config.scenario, config.sweep_name, sweep_value)
        p_bar = scenario.tx_power / scenario.n_users
        for trial in range(config.trials):
            ss = np.random.SeedSequence(
                entropy=scenario.seed, spawn_key=(sweep_idx, trial))
            rng = np.random.default_rng(ss)
            real = draw_realization(scenario, rng)
            for group in groups:
                rngs = [np.random.default_rng(np.random.SeedSequence(
                    entropy=scenario.seed,
                    spawn_key=(sweep_idx, trial, METHODS.index(method)))) for method in group]
                start = time.perf_counter()
                results = run_methods(group, real, p_bar, rngs)
                elapsed_ms = (time.perf_counter() - start) * 1e3 / len(group)
                for method, (n_alloc, sum_se) in zip(group, results):
                    records.append(ResultRecord(
                        trial=trial, method=method, sweep_name=config.sweep_name,
                        sweep_value=float(sweep_value), n_allocated=n_alloc,
                        sum_se_bits=sum_se, wall_time_ms=elapsed_ms))
    records.sort(key=lambda r: (r.sweep_value, r.trial, r.method))
    return records


def uniformity_test(samples, alpha: float):
    """One-sample KS test against the uniform distribution on [-0.5, 0.5).

    Returns (statistic, passed) using the asymptotic critical value
    sqrt(-ln(alpha/2)/2)/sqrt(n), which needs 0 < alpha < 1.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1000:
        raise ValueError("need at least 1000 samples")
    if not np.all((samples >= -0.5) & (samples < 0.5)):  # NaN fails
        raise ValueError("samples must lie in [-0.5, 0.5)")
    sorted_s = np.sort(samples) + 0.5  # uniform CDF on [0, 1)
    n = sorted_s.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    stat = float(max(np.max(ecdf_hi - sorted_s), np.max(sorted_s - ecdf_lo)))
    critical = math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)
    return stat, stat < critical


def format_record(rec: ResultRecord) -> str:
    return ",".join([
        str(rec.trial), rec.method, rec.sweep_name,
        format(rec.sweep_value, ".12g"), str(rec.n_allocated),
        format(rec.sum_se_bits, ".12g"), format(rec.wall_time_ms, ".12g"),
    ])


def emit_csv(records, path) -> None:
    """Write records as UTF-8 CSV with LF line endings, 12 significant digits."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in records:
                fh.write(format_record(rec) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def parse_csv(path) -> list:
    """Inverse of emit_csv (used for round-trip checks)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        for line in fh:
            t, method, name, value, n_alloc, se, wall = line.rstrip("\n").split(",")
            records.append(ResultRecord(
                trial=int(t), method=method, sweep_name=name,
                sweep_value=float(value), n_allocated=int(n_alloc),
                sum_se_bits=float(se), wall_time_ms=float(wall)))
    return records


# ---------------------------------------------------------------------------
# built-in validation checks (CLI `validate`)

def _validate_checks():
    rng = np.random.default_rng(1234)
    checks = []

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def realization(h_direct, h_cascaded, b_vec):
        return channel.ChannelRealization(h_direct, h_cascaded, b_vec / np.linalg.norm(b_vec))

    # Gram identity on random instances
    worst = 0.0
    for _ in range(50):
        real = realization(gaussian(3, 4), gaussian(3, 8), gaussian(4))
        dec = gram_mod.decompose(real, range(3))
        theta = np.exp(2j * np.pi * rng.uniform(size=8))
        tb = gram_mod.extend_theta(theta)
        lhs = dec.c_mat + np.outer(dec.d_mat @ tb, (dec.d_mat @ tb).conj())
        h = gram_mod.effective_channel(real, range(3), theta)
        worst = max(worst, float(np.max(np.abs(lhs - h @ h.conj().T))))
    checks.append(("gram identity (max abs err < 1e-10)", worst < 1e-10))

    # modulo properties
    m = thp.modulo(rng.standard_normal(1000) * 3.0)
    checks.append(("modulo range and idempotence",
                   bool(np.all((m >= -0.5) & (m < 0.5)) and np.allclose(thp.modulo(m), m))))

    # THP loop uniformity
    h = gaussian(4, 6)
    filters = thp.build_filters(h, thp.order_users(h)[0], tx_power=4.0)
    syms = thp.simulate_transmission(filters, h, 20000, rng)
    stat, passed = uniformity_test(syms.v.real.ravel(), alpha=0.01)
    checks.append((f"THP v-symbol KS uniformity (stat={stat:.4f})", passed))

    # one rank rule: two users share a strong cascade and their direct rows differ by eps,
    # which puts H's sigma ratio either side of sqrt(RANK_TOL); both families must agree
    ones, verdicts, ratios = phase_opt.PhaseConfig(np.ones(4)), [], []
    for eps in (1e-3, 8e-2):
        real = realization(np.array([[1.0, 0, 0], [1.0, eps, 0]], dtype=complex),
                           np.full((2, 4), 100.0, dtype=complex), np.array([0, 0, 1.0]))
        sv = np.linalg.svd(gram_mod.effective_channel(real, [0, 1], ones.theta), compute_uv=False)
        ratios.append(f"{sv[-1] / sv[0]:.2e}")
        verdicts += [alloc.evaluate_allocation([real], [[[0, 1]]], 1.0, [ones]).feasible,
                     baseline.evaluate_allocation_linear(real, [[0, 1]], 1.0, ones)[0].feasible]
    checks.append((f"THP and linear ZF reject sigma ratio {ratios[0]} and accept {ratios[1]}",
                   verdicts == [False, False, True, True]))

    # the covariance on rule_points(n) points against the same modes on a finer grid
    n, asd = 512, math.radians(15.0)
    points = channel.rule_points(n)
    full = 2 * points + 1
    worst = max(float(np.max(np.abs(
        channel._lags(n, nominal, channel._rule(asd, points))
        - channel._lags(n, nominal, channel._rule.__wrapped__(asd, full)))))
        for nominal in (-3.0, -0.7, 0.3, 1.1, math.pi))
    tol = max(1e-13, 2.0 * math.pi * (n - 1) * np.finfo(float).eps)
    checks.append((f"covariance on {points} of {full} points, n={n}, asd=15 deg "
                   f"(max |delta| {worst:.1e} <= {tol:.1e})", worst <= tol))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risthp",
        description="RIS-aided MIMO broadcast channel precoding simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments shared by run and sweep
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the JSON run config")
    common.add_argument("--out", default="results.csv", help="output CSV path")
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)

    sub.add_parser("run", parents=[common], help="run a Monte Carlo experiment")
    sub.add_parser("validate", help="run the built-in invariant checks")
    p_sweep = sub.add_parser("sweep", parents=[common], help="run with a sweep override")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--sweep-asd", help="comma-separated ASD values (degrees)")
    group.add_argument("--sweep-nr", help="comma-separated RIS element counts")
    group.add_argument("--sweep-tx", help="comma-separated transmit powers (dBm)")

    args = parser.parse_args(argv)

    if args.command == "validate":
        checks = _validate_checks()
        failed = 0
        for name, ok in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
            failed += not ok
        return 1 if failed else 0

    try:
        config = load_run_config(args.config)
        # overrides go through dataclasses.replace, so RunConfig and
        # ScenarioConfig validate them like config-file values
        changes = {}
        if args.trials is not None:
            changes["trials"] = args.trials
        if args.seed is not None:
            changes["scenario"] = dataclasses.replace(config.scenario, seed=args.seed)
        if args.command == "sweep":
            if args.sweep_asd:
                name, values = "asd", [math.radians(float(v))
                                       for v in args.sweep_asd.split(",")]
            elif args.sweep_nr:
                name, values = "n_ris", [int(v) for v in args.sweep_nr.split(",")]
            else:
                name, values = "tx_dbm", [float(v) for v in args.sweep_tx.split(",")]
            changes.update(sweep_name=name, sweep_values=tuple(values))
        config = dataclasses.replace(config, **changes)
        # an output path that cannot be written fails here, before any trial runs
        open(args.out, "w", encoding="utf-8").close()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = run(config)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
