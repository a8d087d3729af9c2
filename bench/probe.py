"""Machine-speed probe: fixed benchmark code, never library code.

The host this benchmark was written on changes speed by 20-50% over
minutes.  The probe runs after every group of ops, and the timed
end-to-end metrics are scaled by ``REFERENCE_MS`` over the run's median
probe time, so they read as if measured on the reference machine.  No
library change can move the probe; only the host can.

The kernel is a table search on uniform draws with accumulation, the
shape of the discrete-Gaussian sampler.  On that host it tracked the
speed of all three workloads more closely than an interpreter-bound
kernel (formatting and parsing CSV text), which swung more than the
CLI commands themselves.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Probe time, in ms, on the reference machine.
REFERENCE_MS = 4.5


def machine_probe() -> float:
    """Milliseconds taken by the fixed probe kernel."""
    start = perf_counter()
    rng = np.random.default_rng(12345)
    support = np.arange(-400, 401)
    weights = np.exp(-support.astype(float) ** 2 / 2000.0)
    cdf = np.cumsum(weights / weights.sum())
    total = np.zeros(3125)
    for shift in (1, -1) * 8:
        k = support[np.searchsorted(cdf, rng.random(3125))]
        total += 0.01 * (0.5 - k.astype(float) * shift)
    np.sort(total)
    return (perf_counter() - start) * 1000.0
