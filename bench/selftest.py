"""Self-test of the benchmark: every check passes real records and fails corrupted ones.

    python3 bench/selftest.py
"""

import dataclasses
import json
import math
import unittest

import benchenv

benchenv.prepare()

from risthp import channel, sim  # noqa: E402
from risthp.sim import ResultRecord  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (LINEAR_FAMILY, THP_FAMILY, Workload,  # noqa: E402
                       figure_trial_config)

TINY = Workload("tiny", THP_FAMILY + LINEAR_FAMILY, "tx_dbm", (20.0, 40.0),
                {"n_ris": 8}, inputs=1)
SEED = 3


def _records():
    return sim.run(figure_trial_config(TINY, SEED))


RECORDS = _records()
BOUNDS = checks.sweep_bounds(TINY, SEED)


def _failures(records):
    return [r for r in checks.check_figure_trial(TINY, BOUNDS, records) if r]


def _corrupt(records, method, sweep_value, **changes):
    return [dataclasses.replace(r, **changes)
            if (r.method, r.sweep_value) == (method, sweep_value) else r
            for r in records]


def _synthetic(workload, se):
    """One record per (sweep point, method) with SE se(method, sweep value)."""
    return [ResultRecord(trial=0, method=m, sweep_name=workload.sweep_name,
                         sweep_value=float(v), n_allocated=3, sum_se_bits=se(m, v),
                         wall_time_ms=1.0)
            for v in workload.sweep_points for m in workload.methods]


def _failed_properties(workload, records):
    return [name for name, holds, _ in checks.paper_properties(workload, records)
            if not holds]


class RecordChecks(unittest.TestCase):
    def test_real_records_pass(self):
        self.assertEqual(_failures(RECORDS), [])

    def test_nonfinite_or_negative_se_fails(self):
        for bad in (math.nan, math.inf, -1.0):
            self.assertEqual(len(_failures(_corrupt(RECORDS, "thp", 20.0,
                                                    sum_se_bits=bad))), 1)

    def test_se_above_capacity_bound_fails(self):
        scenario = dataclasses.replace(channel.ScenarioConfig(seed=SEED, n_ris=8),
                                       tx_dbm=40.0)
        real = checks.regenerate(scenario, sweep_idx=1)
        bound = checks.capacity_bound(real.h_direct, real.h_cascaded, real.b_vec,
                                      scenario.tx_power)
        self.assertEqual(bound, BOUNDS[1][1])
        rec = next(r for r in RECORDS if (r.method, r.sweep_value) == ("dpc_rate", 40.0))
        self.assertLess(rec.sum_se_bits, bound)
        failures = _failures(_corrupt(RECORDS, "dpc_rate", 40.0,
                                      sum_se_bits=bound * (1 + 1e-9)))
        self.assertEqual(len(failures), 1)
        self.assertIn("capacity bound", failures[0][0])

    def test_allocation_size_outside_range_fails(self):
        for bad in (0, 7):
            self.assertEqual(len(_failures(_corrupt(RECORDS, "linear_zf", 40.0,
                                                    n_allocated=bad))), 1)

    def test_dpc_rate_with_fewer_than_k_users_fails(self):
        self.assertEqual(len(_failures(_corrupt(RECORDS, "dpc_rate", 20.0,
                                                n_allocated=5))), 1)

    def test_missing_or_repeated_record_fails(self):
        self.assertEqual(len(_failures(RECORDS[1:])), 1)
        self.assertEqual(len(_failures(RECORDS + RECORDS[:1])), 1)


class PaperProperties(unittest.TestCase):
    NR = Workload("nr", THP_FAMILY, "n_ris", (64, 512), {}, 1)
    TX = Workload("tx", THP_FAMILY, "tx_dbm", (0.0, 10.0, 20.0), {}, 1)
    LIN = Workload("lin", LINEAR_FAMILY, "none", (), {}, 1)
    ORDER = {"thp": 10.0, "thp_discrete": 9.0, "thp_random": 8.0, "thp_no_ris": 7.0,
             "dpc_rate": 11.0, "linear_zf": 9.0, "linear_zf_discrete": 8.5,
             "linear_zf_random": 8.0}

    def good(self, workload):
        return _synthetic(workload, lambda m, v: self.ORDER[m] + float(v) / 100.0)

    def test_good_means_pass(self):
        for workload in (self.NR, self.TX, self.LIN):
            self.assertEqual(_failed_properties(workload, self.good(workload)), [])

    def test_each_violated_ordering_fails(self):
        cases = [
            (self.TX, "thp", "thp_random", "mean thp > thp_random"),
            (self.TX, "thp", "thp_discrete", "mean thp >= thp_discrete"),
            (self.LIN, "linear_zf", "linear_zf_random", "mean linear_zf > linear_zf_random"),
        ]
        for workload, hi, lo, name in cases:
            swapped = [dataclasses.replace(r, method={hi: lo, lo: hi}.get(r.method, r.method))
                       for r in self.good(workload)]
            self.assertIn(name, _failed_properties(workload, swapped))

    def test_flat_power_curve_fails(self):
        records = [dataclasses.replace(r, sum_se_bits=10.0) if r.method == "thp" else r
                   for r in self.good(self.TX)]
        self.assertEqual(_failed_properties(self.TX, records),
                         ["mean thp increases with tx_dbm"])

    def test_ris_size_without_gain_fails(self):
        records = [dataclasses.replace(r, sum_se_bits=20.0 - r.sweep_value / 100.0)
                   if r.method == "thp" else r for r in self.good(self.NR)]
        self.assertEqual(_failed_properties(self.NR, records),
                         ["mean thp at n_ris=512 > at n_ris=64"])


class Reproducibility(unittest.TestCase):
    def test_rerun_is_identical_except_wall_time(self):
        again = _records()
        self.assertEqual(checks.reproducibility_problems(RECORDS, again), [])
        self.assertNotEqual([r.wall_time_ms for r in RECORDS],
                            [r.wall_time_ms for r in again])

    def test_changed_or_missing_record_fails(self):
        changed = _corrupt(RECORDS, "thp", 40.0, n_allocated=1)
        self.assertEqual(len(checks.reproducibility_problems(RECORDS, changed)), 1)
        thp_40 = next(r for r in RECORDS if (r.method, r.sweep_value) == ("thp", 40.0))
        nudged = _corrupt(RECORDS, "thp", 40.0,
                          sum_se_bits=math.nextafter(thp_40.sum_se_bits, math.inf))
        self.assertEqual(len(checks.reproducibility_problems(RECORDS, nudged)), 1)
        self.assertEqual(len(checks.reproducibility_problems(RECORDS, RECORDS[1:])), 1)


class RunVerdict(unittest.TestCase):
    """The checks as ``run.py`` applies them to the figure-trials of a run."""

    def judge(self, repeat):
        trials = run.Trials(TINY, clock=None)
        trials.runs[SEED] = [(RECORDS, 1.0, 1.0), (repeat, 1.0, 1.0)]
        failures, problems = run.judge(TINY, [trials], trials.first_records())
        return trials.failed, failures, problems

    def test_identical_repeat_is_correct(self):
        self.assertEqual(self.judge(list(RECORDS)), (0, [], []))

    def test_repeat_that_differs_makes_the_run_incorrect(self):
        failed, failures, problems = self.judge(
            _corrupt(RECORDS, "thp", 40.0, n_allocated=1))
        self.assertEqual((failed, failures), (0, []))
        self.assertEqual(len(problems), 1)
        self.assertIn("differs when run again", problems[0])

    def test_failed_record_counts_in_failed(self):
        failed, failures, problems = self.judge(
            _corrupt(RECORDS, "thp", 20.0, sum_se_bits=math.nan))
        self.assertEqual((failed, len(failures)), (1, 1))
        self.assertEqual(len(problems), 1)  # the repeat differs from the first run


class Tracing(unittest.TestCase):
    def test_wrappers_count_and_are_removed(self):
        originals = {name: getattr(spans.MODULES[name.split(".")[0]], name.split(".")[1])
                     for name in spans.TRACED}
        tracer = spans.Tracer()
        tracer.install()
        try:
            records = sim.run(figure_trial_config(TINY, SEED))
        finally:
            tracer.uninstall()
        self.assertEqual(checks.reproducibility_problems(RECORDS, records), [])
        for name, fn in originals.items():
            self.assertIs(getattr(spans.MODULES[name.split(".")[0]], name.split(".")[1]), fn)
        self.assertIs(sim.draw_realization, channel.draw_realization)
        self.assertEqual(tracer.missing, [])
        self.assertEqual(tracer.calls["sim.run"], 1)
        self.assertEqual(tracer.calls["channel.draw_realization"], 2)
        for name in spans.TRACED:
            self.assertGreater(tracer.calls[name], 0, name)
        by_id = {s[0]: s for s in tracer.spans}
        for span_id, parent, _, name, start, end in tracer.spans:
            if parent >= 0:
                self.assertLessEqual(by_id[parent][4], start)
                self.assertLessEqual(end, by_id[parent][5])
        total = tracer.spans[-1][5] - tracer.spans[-1][4]  # sim.run ends last
        self.assertAlmostEqual(sum(tracer.self_s.values()), total, delta=1e-6 * total)


class HostSpeed(unittest.TestCase):
    def test_scale_uses_the_kernel_samples_around_the_timing(self):
        clock = hostspeed.ScaledClock()
        before = clock.last
        scaled = clock.scale(2.0, before)
        self.assertAlmostEqual(
            scaled, 2.0 * (hostspeed.REFERENCE_S / (0.5 * (before + clock.last)))
            ** hostspeed.SENSITIVITY)


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(benchenv.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.layer_metric_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
