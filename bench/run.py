"""risthp benchmark: paper-figure workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload nr_sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's fixed number of figure-trials (inputs) in
whole rounds for about ``--seconds``, at least one round, with no tracing, and
reports the end-to-end metrics.  Every duration is scaled to the host's speed
around it by ``hostspeed.py``.  ``--trace 1`` runs each of the same inputs
once traced and once untraced, and reports the per-layer metrics per
figure-trial plus the tracing overhead.  Every record passes through the
checks of ``checks.py``.  Metrics are printed by name with their unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file, and in traced runs
a span file, are written to ``bench/out/``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import benchenv

benchenv.prepare()

from risthp import sim  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import (LINEAR_FAMILY, THP_FAMILY, WORKLOADS,  # noqa: E402
                       figure_trial_config, trial_seed)

SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60.0
OUT_DIR = benchenv.ROOT / "bench" / "out"

END_TO_END_UNITS = {"trials_per_s": "1/s", "trial_s_p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "se_bits_mean": "bits"}


def layer_metric_units() -> dict:
    units = {}
    for name in spans.TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in spans.OUTCOMES})
    units.update({f"sim.run_method.{m}.s": "s" for m in THP_FAMILY + LINEAR_FAMILY})
    units.update({"trace.trials_per_s": "1/s", "trace.untraced_trials_per_s": "1/s",
                  "trace.overhead_pct": "%"})
    return units


def measure_setup(workload, seed, clock) -> list:
    """Seconds from starting a fresh interpreter to the probe's ``ready`` line,
    raw and scaled to the host speed."""
    times = []
    for _ in range(SETUP_PROBES):
        before = clock.last
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(benchenv.ROOT / "bench" / "probe.py"),
                               workload.name, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code} before it was ready")
        times.append((elapsed, clock.scale(elapsed, before)))
    return times


class Trials:
    """Figure-trials run so far: records and duration of every run of each input."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.runs = {}  # scenario seed -> [(records, raw s, scaled s)], one per round
        self.attempted = 0
        self.failed = 0

    def run(self, scenario_seed):
        self.attempted += self.workload.ops_per_trial
        before = self.clock.last
        start = time.perf_counter()
        try:
            records = sim.run(figure_trial_config(self.workload, scenario_seed))
        except Exception:  # one failed figure-trial must not end the run
            traceback.print_exc()
            self.failed += self.workload.ops_per_trial
            return
        raw = time.perf_counter() - start
        self.runs.setdefault(scenario_seed, []).append(
            (records, raw, self.clock.scale(raw, before)))

    def durations(self, scaled=True) -> list:
        """Mean over the runs of each input, scaled to the host speed or raw."""
        return [statistics.fmean(run[2 if scaled else 1] for run in reps)
                for reps in self.runs.values()]

    def first_records(self) -> list:
        """Records of the first run of each input."""
        return [rec for reps in self.runs.values() for rec in reps[0][0]]

    def check(self, bounds: dict) -> tuple:
        """Applies the per-record checks and compares each repeat with the first run.

        ``bounds`` caches ``checks.sweep_bounds`` by scenario seed.  Returns
        the reasons records failed, which count in ``failed``, and the
        differences between repeats, which make the run incorrect.
        """
        failures, mismatches = [], []
        for seed, reps in self.runs.items():
            if seed not in bounds:
                bounds[seed] = checks.sweep_bounds(self.workload, seed)
            for records, *_ in reps:
                for reasons in checks.check_figure_trial(self.workload, bounds[seed], records):
                    if reasons:
                        self.failed += 1
                        failures.append(f"seed {seed}: " + "; ".join(reasons))
            for records, *_ in reps[1:]:
                mismatches += [f"seed {seed} differs when run again: {p}" for p in
                               checks.reproducibility_problems(reps[0][0], records)]
        return failures, mismatches


def judge(workload, all_trials, property_records) -> tuple:
    """Checks every record of every run and the paper properties on ``property_records``.

    Returns (failures, problems): a failed record counts in ``failed``; a
    repeat that differs or a paper property that fails is a problem, and a
    run with any problem is not correct.
    """
    bounds, failures, problems = {}, [], []
    for trials in all_trials:
        failed_records, mismatches = trials.check(bounds)
        failures += failed_records
        problems += mismatches
    for name, holds, detail in checks.paper_properties(workload, property_records):
        print(f"check {'PASS' if holds else 'FAIL'} {name} ({detail})")
        if not holds:
            problems.append(f"paper property fails: {name} ({detail})")
    return failures, problems


def timed_run(workload, seed, seconds, clock):
    """Rounds over the workload's inputs: one, then more while a whole round
    still fits in ``seconds``."""
    trials = Trials(workload, clock)
    seeds = [trial_seed(seed, index) for index in range(workload.inputs)]
    start = time.perf_counter()
    rounds = 0
    while True:
        for scenario_seed in seeds:
            trials.run(scenario_seed)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return trials


def traced_run(workload, seed, clock):
    """The workload's inputs, each once untraced and once traced, alternating
    which goes first."""
    plain, traced = Trials(workload, clock), Trials(workload, clock)
    tracer = spans.Tracer()
    for index in range(workload.inputs):
        scenario_seed = trial_seed(seed, index)
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                plain.run(scenario_seed)
                continue
            tracer.trial = index
            tracer.install()
            try:
                traced.run(scenario_seed)
            finally:
                tracer.uninstall()
    return plain, traced, tracer


def layer_metrics(traced, plain, tracer) -> dict:
    """Per-layer figures per traced figure-trial run, and the tracing overhead."""
    n = sum(len(reps) for reps in traced.runs.values())
    values = {}
    for name in spans.TRACED:
        values[f"{name}.calls"] = tracer.calls[name] / n
        values[f"{name}.self_s"] = tracer.self_s[name] / n
    values.update({name: count / n for name, count in tracer.counts.items()})
    for method in THP_FAMILY + LINEAR_FAMILY:
        values[f"sim.run_method.{method}.s"] = sum(
            rec.wall_time_ms for reps in traced.runs.values() for records, *_ in reps
            for rec in records if rec.method == method) / 1e3 / n
    traced_rate = len(traced.runs) / sum(traced.durations())
    plain_rate = len(plain.runs) / sum(plain.durations())
    values["trace.trials_per_s"] = traced_rate
    values["trace.untraced_trials_per_s"] = plain_rate
    values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    environment = benchenv.describe()
    for key, value in environment.items():
        print(f"env {key}: {value}")

    clock = hostspeed.ScaledClock()
    setup_times = [] if args.trace else measure_setup(workload, args.seed, clock)

    # The fixed SE set, scenario seed 0 whatever --seed is, runs twice: the
    # first run also warms up lazy imports and caches before timing, the
    # second must repeat it exactly.
    se_set = Trials(workload, clock)
    se_set.run(0)
    se_set.run(0)

    problems = []
    if args.trace:
        main_trials, traced, tracer = traced_run(workload, args.seed, clock)
        problems += [f"traced run differs: {p}" for p in checks.reproducibility_problems(
            main_trials.first_records(), traced.first_records())]
        all_trials = (se_set, main_trials, traced)
    else:
        main_trials = timed_run(workload, args.seed, args.seconds, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_trials = (se_set, main_trials)
    if not all(t.runs for t in all_trials):
        sys.exit("error: no figure-trial completed; see the tracebacks above")

    failures, judged = judge(workload, all_trials,
                             se_set.first_records() + main_trials.first_records())
    problems += judged
    attempted = sum(t.attempted for t in all_trials)
    failed = sum(t.failed for t in all_trials)
    for line in failures + problems:
        print(f"problem: {line}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(traced, main_trials, tracer)
        units = layer_metric_units()
        for name in tracer.missing:
            print(f"note: {name} is not defined by risthp; reported as 0", file=sys.stderr)
    else:
        scaled, raw = main_trials.durations(), main_trials.durations(scaled=False)
        metrics = {
            "trials_per_s": len(scaled) / sum(scaled),
            "trial_s_p50": statistics.median(scaled),
            "setup_s": statistics.median(t[1] for t in setup_times),
            "peak_rss_mb": peak_rss_mb,
            "se_bits_mean": statistics.fmean(r.sum_se_bits for r in se_set.first_records()),
        }
        units = END_TO_END_UNITS
        runs = sum(len(reps) for reps in main_trials.runs.values())
        print(f"figure-trials timed: {runs} runs of {len(scaled)} inputs")
        print(f"unscaled: trials_per_s = {len(raw) / sum(raw):.6g} 1/s, trial_s_p50 = "
              f"{statistics.median(raw):.6g} s, setup_s = "
              f"{statistics.median(t[0] for t in setup_times):.6g} s")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "environment": environment,
                   "setup_samples_raw_scaled_s": setup_times,
                   "durations_raw_scaled_s": {seed: [run[1:] for run in reps]
                                              for seed, reps in main_trials.runs.items()},
                   "problems": failures + problems}, fh, indent=1)
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
