"""Set-up probe: import risthp, build the first figure-trial's RunConfig, print ``ready``.

``run.py`` starts this script several times and times each start to the
``ready`` line; the median is the benchmark's ``setup_s``.

    python3 bench/probe.py WORKLOAD SEED
"""

import sys

import benchenv

benchenv.prepare()

from workloads import WORKLOADS, figure_trial_config, trial_seed  # noqa: E402

figure_trial_config(WORKLOADS[sys.argv[1]], trial_seed(int(sys.argv[2]), 0))
print("ready", flush=True)
