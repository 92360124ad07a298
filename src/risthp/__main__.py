"""``python -m risthp``: the ``risthp`` command line (``sim.main``)."""

import sys

from .sim import main

if __name__ == "__main__":
    sys.exit(main())
