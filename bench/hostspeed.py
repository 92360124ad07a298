"""Host-speed calibration for timings taken on a shared, contended host.

On a small VM the speed of one vCPU can swing by a factor of two, in phases
that last from seconds to minutes, while the VM's other vCPU stays idle: the
contention comes from outside.  A timing therefore says as much about the
host's phase as about the program.  The benchmark times a fixed kernel of
small numpy linear algebra, Python loops and complex exponentials, the same
mix risthp runs, right before and right after each measurement, and scales
the measurement by (``REFERENCE_S`` over the mean of the two kernel times)
to the power ``SENSITIVITY``.  A scaled duration reads as seconds on a host
where the kernel takes ``REFERENCE_S``.  The kernel does not use risthp, so a
change to risthp cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0075  # kernel time on the reference host in its fast phase
# A figure-trial slows by less than the kernel does: over runs on the
# reference host, scaling by the kernel's full slowdown left a wider spread
# across seeds than scaling by its 0.7th power (0.21 against 0.12 on
# nr_sweep, 0.17 against 0.08 on linear_zf).
SENSITIVITY = 0.7
_KERNEL_REPEATS = 3  # the fastest of three runs is one calibration sample

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((6, 64)) + 1j * _rng.standard_normal((6, 64))
_PHI = np.linspace(-np.pi, np.pi, 4096)


def _kernel() -> float:
    start = time.perf_counter()
    gram = _H @ _H.conj().T + np.eye(6)
    for _ in range(60):
        np.linalg.svd(_H[:4], compute_uv=False)
        np.linalg.qr(_H.T)
        np.linalg.solve(gram, _H[:, 0])
        total = 0.0
        for n in range(64):
            total += abs(complex(_H[n % 6, n]))
    np.exp(1j * np.pi * np.outer(np.arange(16), np.sin(_PHI)))
    return time.perf_counter() - start


def kernel_s() -> float:
    """One calibration sample: seconds the kernel takes now."""
    return min(_kernel() for _ in range(_KERNEL_REPEATS))


class ScaledClock:
    """Scales durations by the host speed measured right before and after them."""

    def __init__(self):
        self.last = kernel_s()  # the latest calibration sample

    def scale(self, raw_s: float, before: float) -> float:
        """Scaled ``raw_s``; ``before`` is ``last`` as read when the timing began."""
        self.last = kernel_s()
        return raw_s * (REFERENCE_S / (0.5 * (before + self.last))) ** SENSITIVITY
