import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risthp import alloc as A, baseline as B, phase_opt as P, sim as S
from risthp.channel import ScenarioConfig, draw_realization
from risthp.sim import ConfigError, ResultRecord, RunConfig


def small_scenario(**overrides):
    base = dict(n_bs=4, n_users=3, n_ris=8, n_blocked=1, tx_dbm=20.0,
                seed=42)
    base.update(overrides)
    return ScenarioConfig(**base)


def strip_wall_time(records):
    return [(r.trial, r.method, r.sweep_name, r.sweep_value, r.n_allocated,
             r.sum_se_bits) for r in records]


class TestRun:
    def test_record_count(self):
        cfg = RunConfig(scenario=small_scenario(), trials=2,
                        methods=("thp", "linear_zf", "dpc_rate"),
                        sweep_name="tx_dbm", sweep_values=(10.0, 20.0))
        records = S.run(cfg)
        assert len(records) == 2 * 3 * 2

    def test_deterministic_modulo_timing(self):
        cfg = RunConfig(scenario=small_scenario(), trials=2,
                        methods=("thp", "thp_random", "linear_zf_random"))
        r1 = S.run(cfg)
        r2 = S.run(cfg)
        assert strip_wall_time(r1) == strip_wall_time(r2)

    def test_sorted_by_sweep_trial_method(self):
        cfg = RunConfig(scenario=small_scenario(), trials=2,
                        methods=("linear_zf", "thp"),
                        sweep_name="tx_dbm", sweep_values=(20.0, 10.0))
        records = S.run(cfg)
        keys = [(r.sweep_value, r.trial, r.method) for r in records]
        assert keys == sorted(keys)

    def test_ris_methods_beat_no_ris_on_average(self):
        cfg = RunConfig(scenario=small_scenario(n_ris=32), trials=5,
                        methods=("thp", "thp_no_ris"))
        records = S.run(cfg)
        by_method = {}
        for r in records:
            by_method.setdefault(r.method, []).append(r.sum_se_bits)
        assert np.mean(by_method["thp"]) >= np.mean(by_method["thp_no_ris"])

    def test_dpc_rate_dominates_thp(self):
        # DPC sum SE upper-bounds the modulo-channel SE on shared realizations
        cfg = RunConfig(scenario=small_scenario(), trials=5,
                        methods=("thp", "dpc_rate"))
        records = S.run(cfg)
        per_trial = {}
        for r in records:
            per_trial.setdefault(r.trial, {})[r.method] = r.sum_se_bits
        for vals in per_trial.values():
            assert vals["dpc_rate"] >= vals["thp"] - 1e-9

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(scenario=small_scenario(), methods=("nonsense",))

    def test_sweep_values_without_sweep_rejected(self):
        # they would run one point at the scenario's own N_R
        with pytest.raises(ValueError, match="need a sweep name"):
            RunConfig(ScenarioConfig(n_ris=8), trials=1, methods=("thp",),
                      sweep_name="none", sweep_values=(16, 32))


class TestRandomPhases:
    """A random method's phases are drawn once, by run_methods, and shared by its greedy loop."""

    @pytest.mark.parametrize("method", ["thp_random", "thp_no_ris", "linear_zf_random"])
    def test_run_method_is_greedy_on_drawn_phases(self, method):
        scenario = small_scenario(n_ris=16)
        real = draw_realization(scenario, np.random.default_rng(4))
        p_bar = scenario.tx_power / scenario.n_users
        rng, drawn = np.random.default_rng(9), np.random.default_rng(9)
        got = S.run_methods([method], real, p_bar, [rng])[0]
        phases = P.random_phases(real.n_ris, drawn)
        assert rng.uniform() == drawn.uniform()  # the draw is the stream's only use
        if method == "linear_zf_random":
            sol = B.greedy_allocate_linear(dataclasses.replace(real), p_bar, phases)
            want = len(sol.users), sol.sum_se
        else:
            if method == "thp_no_ris":
                real = dataclasses.replace(real, h_cascaded=np.zeros_like(real.h_cascaded))
            out = A.greedy_allocate([dataclasses.replace(real)], p_bar, [phases])[0]
            want = len(out.users), max(0.0, out.se_exact)
        assert got == want

    @pytest.mark.parametrize("method", ["thp_random", "thp_no_ris", "linear_zf_random"])
    def test_random_method_needs_rng(self, method):
        real = draw_realization(small_scenario(n_ris=16), np.random.default_rng(4))
        with pytest.raises(ValueError, match="random phases need an rng"):
            S.run_methods([method], real, 1.0, [None])


class TestUniformityTest:
    def test_uniform_passes(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(-0.5, 0.5, size=100_000)
        stat, passed = S.uniformity_test(samples, alpha=0.01)
        assert passed
        assert stat < 0.006

    def test_narrow_gaussian_fails(self):
        rng = np.random.default_rng(5)
        z = 0.05 * rng.standard_normal(100_000)
        wrapped = z - np.floor(z + 0.5)
        stat, passed = S.uniformity_test(wrapped, alpha=0.01)
        assert not passed

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            S.uniformity_test(np.zeros(10), alpha=0.01)

    def test_out_of_range(self):
        samples = np.linspace(-0.5, 0.6, 2000)
        with pytest.raises(ValueError):
            S.uniformity_test(samples, alpha=0.01)

    def test_nan_samples_rejected(self):
        samples = np.random.default_rng(5).uniform(-0.5, 0.5, size=2000)
        samples = np.concatenate([samples, np.full(10, math.nan)])
        with pytest.raises(ValueError, match=r"\[-0.5, 0.5\)"):
            S.uniformity_test(samples, alpha=0.01)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0, 3.0, -0.1, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        samples = np.random.default_rng(5).uniform(-0.5, 0.5, size=2000)
        with pytest.raises(ValueError, match="alpha"):
            S.uniformity_test(samples, alpha=alpha)


def test_import_loads_no_scipy():
    src = str(Path(S.__file__).resolve().parents[1])
    code = ("import sys, risthp; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


class TestConfigParsing:
    def test_minimal(self):
        cfg = S.parse_run_config({"scenario": {}})
        assert cfg.trials == 10
        assert cfg.sweep_name == "none"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config"):
            S.parse_run_config({"scenario": {}, "bogus": 1})

    def test_unknown_scenario_key(self):
        with pytest.raises(ConfigError, match="scenario"):
            S.parse_run_config({"scenario": {"n_antennas": 4}})

    def test_bad_pathloss_preset(self):
        with pytest.raises(ConfigError, match="pathloss_direct"):
            S.parse_run_config(
                {"scenario": {"pathloss_direct": "no-such-preset"}})

    def test_pathloss_mapping(self):
        cfg = S.parse_run_config({"scenario": {"pathloss_direct": {
            "alpha_db": 30.0, "beta_exponent": 22.0, "label": "custom"}}})
        assert cfg.scenario.pathloss_direct.alpha_db == 30.0

    def test_bad_sweep(self):
        with pytest.raises(ConfigError, match="sweep"):
            S.parse_run_config({"scenario": {}, "sweep": {"frequency": [1]}})

    def test_empty_sweep_values(self):
        with pytest.raises(ConfigError):
            S.parse_run_config({"scenario": {}, "sweep": {"asd": []}})

    @pytest.mark.parametrize("trials", [0, 1.5, "2", True])
    def test_invalid_trials(self, trials):
        with pytest.raises(ConfigError, match="trials"):
            S.parse_run_config({"scenario": {}, "trials": trials})

    def test_invalid_scenario_value(self):
        with pytest.raises(ConfigError, match="scenario"):
            S.parse_run_config({"scenario": {"n_bs": 0}})

    def test_sweep_asd_in_degrees_rejected(self):
        # config sweep values are radians, so degree-sized values must fail
        with pytest.raises(ConfigError, match="radians"):
            S.parse_run_config({"scenario": {}, "sweep": {"asd": [5, 15, 30]}})

    def test_sweep_asd_radians_accepted(self):
        cfg = S.parse_run_config({"scenario": {}, "sweep": {"asd": [0.1, 0.5]}})
        assert cfg.sweep_values == (0.1, 0.5)

    def test_invalid_sweep_point_rejected(self):
        with pytest.raises(ConfigError, match="n_ris"):
            S.parse_run_config({"scenario": {}, "sweep": {"n_ris": [16, 0]}})

    def test_sweep_point_without_linear_power_rejected(self):
        # 10^(3100/10) mW overflows a float: named here, not by OverflowError in run
        with pytest.raises(ConfigError, match=r"tx_dbm=3100: tx_dbm must lie in"):
            S.parse_run_config({"scenario": {}, "sweep": {"tx_dbm": [30.0, 3100]}})

    @pytest.mark.parametrize("name, values, bad", [
        ("n_ris", [8.5, 16], "n_ris=8.5"),
        ("n_ris", [True, 16], "n_ris=True"),
        ("tx_dbm", [10.0, False], "tx_dbm=False"),
        ("tx_dbm", ["20", 30.0], "tx_dbm='20'"),
    ])
    def test_sweep_value_changed_by_its_type_rejected(self, name, values, bad):
        # a point runs at SWEEP_TYPES[name](value) but is recorded as value
        with pytest.raises(ConfigError, match=bad):
            S.parse_run_config({"scenario": {}, "sweep": {name: values}})

    def test_integral_float_sweep_value_accepted(self):
        cfg = S.parse_run_config({"scenario": {}, "sweep": {"n_ris": [16.0, 32]}})
        assert cfg.sweep_values == (16.0, 32)

    @pytest.mark.parametrize("extra, bad", [
        ({"methods": []}, "methods: expected a nonempty list"),
        ({"methods": ["thp", "thp"]}, "methods: .* twice"),
        ({"methods": "thp"}, "methods: expected a nonempty list"),
        ({"sweep": {"tx_dbm": [10, 10]}}, "tx_dbm repeats"),
        ({"sweep": {"n_ris": [16, 16.0]}}, "n_ris repeats"),
        ({"scenario": {"tx_dbm": "30"}}, "tx_dbm must be a finite real"),
        ({"scenario": {"tx_dbm": math.nan}}, "tx_dbm must be a finite real"),
        ({"scenario": {"tx_dbm": math.inf}}, "tx_dbm must be a finite real"),
        ({"scenario": {"noise_dbm": math.nan}}, "noise_dbm must be a finite real"),
        ({"scenario": {"seed": True}}, "seed must be an integer"),
        ({"scenario": {"n_ris": True}}, "n_ris must be an integer"),
    ], ids=["methods_empty", "methods_repeated", "methods_string", "sweep_repeated",
            "sweep_repeated_as_float", "tx_dbm_string", "tx_dbm_nan", "tx_dbm_inf",
            "noise_dbm_nan", "seed_bool", "n_ris_bool"])
    def test_invalid_value_rejected(self, extra, bad):
        with pytest.raises(ConfigError, match=bad):
            S.parse_run_config({"scenario": {}, **extra})


class TestCsv:
    def records(self):
        return [
            ResultRecord(trial=0, method="thp", sweep_name="none",
                         sweep_value=0.0, n_allocated=3,
                         sum_se_bits=12.3456789012, wall_time_ms=1.5),
            ResultRecord(trial=1, method="linear_zf", sweep_name="tx_dbm",
                         sweep_value=30.0, n_allocated=2,
                         sum_se_bits=0.0, wall_time_ms=0.25),
        ]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        S.emit_csv([], path)
        assert path.read_text() == S.CSV_HEADER + "\n"

    def test_known_lines(self, tmp_path):
        path = tmp_path / "two.csv"
        S.emit_csv(self.records(), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "0,thp,none,0,3,12.3456789012,1.5"
        assert lines[2] == "1,linear_zf,tx_dbm,30,2,0,0.25"

    def test_round_trip_byte_stable(self, tmp_path):
        # emit(parse(emit(x))) must reproduce emit(x) byte for byte
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        S.emit_csv(self.records(), p1)
        S.emit_csv(S.parse_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            S.parse_csv(path)


class TestCli:
    def config_file(self, tmp_path, **extra):
        data = {"scenario": {"n_bs": 4, "n_users": 3, "n_ris": 8,
                             "n_blocked": 1, "tx_dbm": 20.0, "seed": 7},
                "trials": 2, "methods": ["thp", "linear_zf"]}
        data.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        rc = S.main(["run", self.config_file(tmp_path), "--out", str(out)])
        assert rc == 0
        records = S.parse_csv(out)
        assert len(records) == 2 * 2

    def test_run_trial_and_seed_overrides(self, tmp_path):
        out1 = tmp_path / "o1.csv"
        out2 = tmp_path / "o2.csv"
        cfg = self.config_file(tmp_path)
        S.main(["run", cfg, "--out", str(out1), "--trials", "1", "--seed", "1"])
        S.main(["run", cfg, "--out", str(out2), "--trials", "1", "--seed", "2"])
        r1, r2 = S.parse_csv(out1), S.parse_csv(out2)
        assert len(r1) == len(r2) == 2
        assert any(a.sum_se_bits != b.sum_se_bits for a, b in zip(r1, r2))

    def test_sweep_nr(self, tmp_path):
        out = tmp_path / "out.csv"
        rc = S.main(["sweep", self.config_file(tmp_path), "--out", str(out),
                     "--trials", "1", "--sweep-nr", "4,8"])
        assert rc == 0
        records = S.parse_csv(out)
        assert sorted({r.sweep_value for r in records}) == [4.0, 8.0]
        assert all(r.sweep_name == "n_ris" for r in records)

    def test_sweep_asd_converts_degrees(self, tmp_path):
        out = tmp_path / "out.csv"
        S.main(["sweep", self.config_file(tmp_path), "--out", str(out),
                "--trials", "1", "--sweep-asd", "15"])
        records = S.parse_csv(out)
        assert records[0].sweep_value == pytest.approx(math.radians(15.0))

    def test_sweep_asd_beyond_pi_exit_code(self, tmp_path, capsys):
        # 200 degrees is more than pi radians
        rc = S.main(["sweep", self.config_file(tmp_path), "--out",
                     str(tmp_path / "out.csv"), "--sweep-asd", "15,200"])
        assert rc == 2
        assert "radians" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_malformed_sweep_value_exit_code(self, tmp_path):
        rc = S.main(["sweep", self.config_file(tmp_path), "--out",
                     str(tmp_path / "out.csv"), "--sweep-nr", "4.5"])
        assert rc == 2

    @pytest.mark.parametrize("command", [[], ["--sweep-nr", "4,8"]])
    @pytest.mark.parametrize("override", [["--trials", "0"], ["--trials", "-2"],
                                          ["--seed", "-1"]])
    def test_bad_override_exit_code(self, tmp_path, capsys, command, override):
        out = tmp_path / "out.csv"
        argv = ["sweep" if command else "run", self.config_file(tmp_path),
                "--out", str(out)] + command + override
        assert S.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and override[0][2:] in err
        assert not out.exists()

    def test_negative_seed_in_config_exit_code(self, tmp_path, capsys):
        data = {"scenario": {"n_bs": 4, "n_users": 3, "n_ris": 8, "seed": -1}}
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(data))
        assert S.main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("asd", True), ("user_circle_radius", math.inf)])
    def test_non_finite_ranged_field_in_config_exit_code(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {field: value}}))
        assert S.main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{field} must be a" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"bogus": 1}}))
        assert S.main(["run", str(path)]) == 2

    @pytest.mark.parametrize("data, path", [
        (5, "config"),
        ({"scenario": 5}, "scenario"),
        ({"scenario": {}, "methods": 5}, "methods"),
        ({"scenario": {}, "sweep": {"tx_dbm": 5}}, "config.sweep.tx_dbm"),
        ({"scenario": {"bs_pos": 5}}, "scenario.bs_pos"),
        ({"scenario": {"pathloss_direct": {"alpha_db": 30.0}}},
         "scenario.pathloss_direct"),
        ({"scenario": {"pathloss_direct": {"alpha_db": "x", "beta_exponent": 22.0}}},
         "scenario.pathloss_direct"),
    ], ids=["top_level", "scenario", "methods", "sweep_values", "bs_pos",
            "pathloss_missing_key", "pathloss_not_a_number"])
    def test_malformed_config_shape_exit_code(self, tmp_path, capsys, data, path):
        cfg = tmp_path / "shape.json"
        cfg.write_text(json.dumps(data))
        assert S.main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err

    def test_unwritable_out_exit_code_before_any_trial(self, tmp_path, capsys,
                                                       monkeypatch):
        def no_run(config):
            raise AssertionError("ran trials for an output it cannot write")

        monkeypatch.setattr(S, "run", no_run)
        out = tmp_path / "missing_dir" / "o.csv"
        assert S.main(["run", self.config_file(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_exit_code(self, tmp_path):
        assert S.main(["run", str(tmp_path / "none.json")]) == 2

    def test_validate_passes(self, capsys):
        assert S.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "THP and linear ZF reject sigma ratio 1.25e-06 and accept 1.00e-04" in out

    def test_deterministic_csv_modulo_timing(self, tmp_path):
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        cfg = self.config_file(tmp_path)
        S.main(["run", cfg, "--out", str(out1)])
        S.main(["run", cfg, "--out", str(out2)])
        assert strip_wall_time(S.parse_csv(out1)) == \
            strip_wall_time(S.parse_csv(out2))
