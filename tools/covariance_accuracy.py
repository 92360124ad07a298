"""How far the Laplacian covariance lies from the exact integral.

    PYTHONPATH=src python tools/covariance_accuracy.py

``channel.laplacian_covariance`` takes the truncated Laplacian density's
Fourier modes in closed form and sums the lags on the ``rule_points(n)``
offsets that keep them.  This script measures that covariance against an
independent reference, ``exact_lags``: a composite Gauss-Legendre rule split
at the density's cusp t = 0, with ``NODES`` nodes per panel and panels no wider
than pi/panels, nor, within 50 scale lengths asd/sqrt(2) of the cusp,
wider than 4/panels of that span.
For every spread and array size it prints the largest |delta| over the
covariance's entries and over a few nominal angles, and how far the
reference moves when its panels are halved.  It only reports: it gates
nothing, and its exit status is 0 whatever it measures.
"""

from __future__ import annotations

import math

import numpy as np

ASD_DEG = (0.1, 1.0, 15.0, 60.0, 180.0)
SIZES = (6, 32, 64, 512)
NOMINAL_ANGLES = (-3.0, -0.7, 0.3, 1.1, math.pi)
PANELS = 256
NODES = 16


def _nodes(asd: float, panels: int):
    """Offsets t in [-pi, pi] and weights of the composite Gauss-Legendre rule."""
    scale = asd / math.sqrt(2.0)
    edges = np.union1d(np.linspace(0.0, np.pi, panels + 1),
                       np.linspace(0.0, min(np.pi, 50.0 * scale), panels // 4 + 1))
    x, w = np.polynomial.legendre.leggauss(NODES)
    half = np.diff(edges)[:, None] / 2.0
    t = (edges[:-1, None] + half * (x + 1.0)).ravel()
    w = (half * w).ravel()
    # the density's cusp at t = 0 is a panel edge: each side is smooth
    t, w = np.concatenate([-t[::-1], t]), np.concatenate([w[::-1], w])
    return t, w * np.exp(-np.abs(t) / scale)


def exact_lags(n: int, nominal_angle: float, asd: float, panels: int = PANELS) -> np.ndarray:
    """r[d], d < n: the integral of exp(j*pi*d*sin(phi)) against the truncated Laplacian."""
    t, w = _nodes(asd, panels)
    w = w / w.sum()
    # sin(a + t) = sin a cos t + cos a sin t rounds to within eps of the value at every t,
    # where sin(a + t) rounds a + t first: an error of up to pi*eps near a = +-pi
    sin_phi = math.sin(nominal_angle) * np.cos(t) + math.cos(nominal_angle) * np.sin(t)
    lags = np.pi * np.arange(n)
    r = np.zeros(n, dtype=complex)
    for start in range(0, t.size, 2048):  # a bounded (n, 2048) block at a time
        block = slice(start, start + 2048)
        r += np.exp(1j * np.outer(lags, sin_phi[block])) @ w[block]
    return r


def main() -> int:
    from risthp.channel import laplacian_covariance

    print(f"Gauss-Legendre reference: {NODES} nodes per panel, {PANELS} panels per side "
          f"(halved: {2 * PANELS}); nominal angles {NOMINAL_ANGLES}")
    print("asd_deg      n   max|rule - exact|   max|exact - halved|")
    for asd_deg in ASD_DEG:
        asd = math.radians(asd_deg)
        rule_err = dict.fromkeys(SIZES, 0.0)
        ref_err = dict.fromkeys(SIZES, 0.0)
        for nominal in NOMINAL_ANGLES:
            exact = exact_lags(max(SIZES), nominal, asd)
            halved = exact_lags(max(SIZES), nominal, asd, 2 * PANELS)
            for n in SIZES:
                rule = laplacian_covariance(n, nominal, asd)[:, 0]
                rule_err[n] = max(rule_err[n], float(np.max(np.abs(rule - exact[:n]))))
                ref_err[n] = max(ref_err[n], float(np.max(np.abs(halved[:n] - exact[:n]))))
        for n in SIZES:
            print(f"{asd_deg:7g} {n:6d}   {rule_err[n]:17.2e}   {ref_err[n]:19.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
