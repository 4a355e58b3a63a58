"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed of a core moves by up to a factor of two over
minutes as other tenants load the machine, and every timing moves with it:
process CPU time rises with wall time, so the slowdown is slower
execution, not waiting.  The benchmark therefore runs a fixed kernel, which
calls nothing of pseudolab, beside the work it times, and scales each time
by the kernel's time measured next to it.  A scaled time is in reference
seconds: what the work would have taken on a machine that runs the kernel
in ``REFERENCE_S``.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel's median time on the 2-vCPU x86-64 virtual machine the
# benchmark was written on (Python 3.11, numpy 2.4); a constant, so it only
# sets the scale of the reported times
REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_B = _rng.standard_normal(1 << 16) + 1j * _rng.standard_normal(1 << 16)
_X = _rng.standard_normal(200).tolist()


def kernel() -> float:
    """Run the kernel once and return its wall time.  It makes the mix of
    work the package makes: short vector products in interpreter loops,
    float formatting and parsing as in the CSV files, and whole-array
    arithmetic on a 1 MiB array."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(8):
        for k in range(1, 24):
            s += abs(_A[k, :k] @ _A[:k, k])
    for i in range(5000):
        s += (i * 7) % 13
    s += sum(map(float, ",".join(map(repr, _X)).split(",")))
    s += float(np.abs(_B * _B + _B).max())
    return time.perf_counter() - t0


def scaled_median(times, kernel_times) -> float:
    """Median over i of times[i] in reference seconds, kernel_times[i]
    being the kernel time measured beside it."""
    return statistics.median(t * REFERENCE_S / k for t, k in zip(times, kernel_times))
