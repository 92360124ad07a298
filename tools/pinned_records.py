"""Pinned-record check: run a fixed grid of seeded records, or compare two runs.

    PYTHONPATH=src python tools/pinned_records.py write OUT
    python tools/pinned_records.py diff A B
    PYTHONPATH=src python tools/pinned_records.py golden tests/data/golden_n_ris.csv

``write`` runs every method of ``risthp.sim.METHODS`` on one trial of each
grid cell with the ``risthp`` found on the import path, and writes one JSON
line per record, the sum SE as ``float.hex``.  The grid is seeds 0-3 x
``n_blocked`` 0/3/5 x (the N_R sweep 16/64/256/512 at the default 30 dBm,
and the transmit-power sweep 0/20/40/50 dBm at N_R = 32): 768 records.

``diff`` matches the records of two such files by cell and method and prints
the record count, how many sum SEs are exactly equal, every change of
``n_allocated`` and the largest |delta SE| in bits, then per method how many
records changed their sum SE and the smallest and largest delta SE (second
file minus first), in the order the methods first appear.  Writing a file
with the parent tree on the path and one with the changed tree, then diffing
them, shows whether a change keeps every allocation and how far the SE moved.

``golden`` writes the CSV that ``tests/test_golden.py`` pins: every method,
``ScenarioConfig(seed=11)``, two trials, the N_R sweep {16, 64}, written by
``sim.emit_csv`` with ``wall_time_ms`` zeroed.  A change that declares a
re-baseline regenerates that file with this command.
"""

from __future__ import annotations

import dataclasses
import json
import sys

SEEDS = (0, 1, 2, 3)
N_BLOCKED = (0, 3, 5)
SWEEPS = (("n_ris", (16, 64, 256, 512), {}),
          ("tx_dbm", (0.0, 20.0, 40.0, 50.0), {"n_ris": 32}))
KEY = ("seed", "n_blocked", "sweep_name", "sweep_value", "trial", "method")


def write(path):
    from risthp import sim
    from risthp.channel import ScenarioConfig

    with open(path, "w", encoding="utf-8") as fh:
        for seed in SEEDS:
            for n_blocked in N_BLOCKED:
                for name, values, fixed in SWEEPS:
                    scenario = ScenarioConfig(seed=seed, n_blocked=n_blocked, **fixed)
                    config = sim.RunConfig(scenario, trials=1, methods=sim.METHODS,
                                           sweep_name=name, sweep_values=values)
                    for rec in sim.run(config):
                        fh.write(json.dumps({
                            "seed": seed, "n_blocked": n_blocked,
                            "sweep_name": rec.sweep_name, "sweep_value": rec.sweep_value,
                            "trial": rec.trial, "method": rec.method,
                            "n_allocated": rec.n_allocated,
                            "sum_se_bits": float.hex(rec.sum_se_bits)}) + "\n")


def golden(path):
    from risthp import sim
    from risthp.channel import ScenarioConfig

    config = sim.RunConfig(ScenarioConfig(seed=11), trials=2, methods=sim.METHODS,
                           sweep_name="n_ris", sweep_values=(16, 64))
    sim.emit_csv([dataclasses.replace(rec, wall_time_ms=0)
                  for rec in sim.run(config)], path)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {tuple(r[k] for k in KEY): r for r in records}


def diff(path_a, path_b):
    a, b = _read(path_a), _read(path_b)
    if a.keys() != b.keys():
        raise SystemExit(f"{path_a} and {path_b} hold different records: "
                         f"{len(a.keys() - b.keys())} only in the first, "
                         f"{len(b.keys() - a.keys())} only in the second")
    equal, worst, changed, deltas = 0, 0.0, [], {}
    for key, ra in a.items():
        rb = b[key]
        se_a, se_b = float.fromhex(ra["sum_se_bits"]), float.fromhex(rb["sum_se_bits"])
        equal += se_a == se_b
        worst = max(worst, abs(se_a - se_b))
        deltas.setdefault(ra["method"], []).append(se_b - se_a)
        if ra["n_allocated"] != rb["n_allocated"]:
            changed.append((key, ra["n_allocated"], rb["n_allocated"]))
    print(f"records: {len(a)}")
    print(f"equal: {equal}")
    print(f"n_allocated changes: {len(changed)}")
    for key, n_a, n_b in changed:
        print("  " + ", ".join(f"{k}={v}" for k, v in zip(KEY, key)) + f": {n_a} -> {n_b}")
    print(f"max |dSE| bits: {worst:.3g}")
    print("per method: changed records, min and max dSE bits")
    for method, d in deltas.items():
        n_changed = sum(x != 0 for x in d)
        print(f"  {method}: {n_changed} of {len(d)}, {min(d):.3g} .. {max(d):.3g}")


def main(argv):
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
    elif len(argv) == 3 and argv[0] == "diff":
        diff(argv[1], argv[2])
    elif len(argv) == 2 and argv[0] == "golden":
        golden(argv[1])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
