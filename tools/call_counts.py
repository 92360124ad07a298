"""Calls per figure-trial of one benchmark workload, by innermost risthp function.

    python tools/call_counts.py tx_sweep [--figure-trials 4] [--seed 3300]

Runs ``--figure-trials`` figure-trials of a workload of ``bench/workloads.py``,
seeded as ``bench/run.py`` seeds them from ``--seed``, with the ``risthp`` of
this checkout's ``src``, under ``sys.setprofile``.  Every Python call and
every C call the profiler reports (builtins and ndarray methods; a ufunc
call or an operator is no event) counts once, under the innermost
``risthp`` function on the stack: the called function itself when it is
one, else its nearest ``risthp`` caller; calls outside any count under
``(outside risthp)``.  Before counting, one figure-trial of scenario seed 0
runs uncounted, as in ``bench/run.py``, so lazy imports and caches are warm.

The output is the total first, then one row per function, most calls first:
calls per figure-trial (Python + C), Python calls, C calls and the share of
the total.  With the same Python and numpy, a fixed seed gives the same
counts on every run and host, so they show the dispatch work of a change
where the host's speed swings hide it in timings.  This is a report; it gates nothing and times nothing (the profile
hook itself costs more than most of the calls it counts).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import benchenv  # noqa: E402

benchenv.prepare()

from risthp import sim  # noqa: E402
from workloads import WORKLOADS, figure_trial_config, trial_seed  # noqa: E402

OUTSIDE = "(outside risthp)"


def _owner(frame, labels: dict) -> str:
    """The innermost risthp function from ``frame`` outwards, as ``module.qualname``."""
    while frame is not None:
        code = frame.f_code
        label = labels.get(code)
        if label is None:
            module = frame.f_globals.get("__name__", "")
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11+
            label = labels[code] = (f"{module.removeprefix('risthp.')}.{name}"
                                    if module.startswith("risthp.") else "")
        if label:
            return label
        frame = frame.f_back
    return OUTSIDE


def count_calls(workload, seeds) -> tuple:
    """(Python calls, C calls) by innermost risthp function over one figure-trial per seed."""
    python, native, labels = Counter(), Counter(), {}

    def profile(frame, event, arg):
        if event == "call":
            python[_owner(frame, labels)] += 1
        elif event == "c_call":
            native[_owner(frame, labels)] += 1

    for seed in seeds:
        config = figure_trial_config(workload, seed)
        sys.setprofile(profile)
        try:
            sim.run(config)
        finally:
            sys.setprofile(None)
    return python, native


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--figure-trials", type=int, default=4)
    parser.add_argument("--seed", type=int, default=3300)
    args = parser.parse_args(argv)
    if args.figure_trials < 1:
        parser.error("--figure-trials must be at least 1")
    workload = WORKLOADS[args.workload]

    sim.run(figure_trial_config(workload, 0))  # warm-up, not counted
    python, native = count_calls(
        workload, [trial_seed(args.seed, i) for i in range(args.figure_trials)])
    total = python + native
    n = args.figure_trials
    grand = sum(total.values())
    print(f"workload {workload.name}, {n} figure-trials from seed {args.seed}, "
          f"calls per figure-trial")
    print(f"{'calls':>10} {'python':>10} {'c':>10} {'share':>7}  function")

    def row(name, calls, py, c):
        print(f"{calls / n:>10.1f} {py / n:>10.1f} {c / n:>10.1f} "
              f"{100.0 * calls / grand:>6.1f}%  {name}")

    row("total", grand, sum(python.values()), sum(native.values()))
    for name, calls in sorted(total.items(), key=lambda item: (-item[1], item[0])):
        row(name, calls, python[name], native[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
