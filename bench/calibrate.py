"""Calibration kernel: fixed numpy/scipy work, independent of blockspec.

The machine this benchmark was built on is shared; its speed drifts by 20%
and more over minutes, and every part of a run slows together.  The kernel is
timed in the same process between CLI commands, and the end-to-end times are
stated at the reference speed: measured seconds * K_REF_S / kernel seconds.
Its three parts mirror what the workloads spend their time on: a banded
LAPACK eigensolve, Python-level calls of a small dense eigh (the density
integrand's pattern), and plain interpreter arithmetic (the samplers' loops).
The kernel must never change, or figures before and after stop comparing.
"""

from __future__ import annotations

import functools
import math
import statistics
from time import perf_counter

# the unit of reference seconds: about the kernel's time on the 2-core
# machine of README.md's baseline when that machine was quiet
K_REF_S = 0.0333


@functools.cache
def _inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    band = rng.standard_normal((4, 800))
    small = rng.standard_normal((3, 3))
    return band, small + small.T, np.eye(3)


def kernel_s() -> float:
    """Wall time of one pass of the kernel, in seconds."""
    import numpy as np
    import scipy.linalg

    band, small, eye = _inputs()
    start = perf_counter()
    scipy.linalg.eigvals_banded(band, lower=False)
    acc = 0.0
    for i in range(600):
        values, vectors = np.linalg.eigh(small + (i * 1e-4) * eye)
        acc += math.sqrt(abs(values[0])) * float(vectors[0, 0] ** 2)
    for i in range(100_000):
        acc += math.sin(i) * i
    return perf_counter() - start


def settled_kernel_s() -> float:
    """Median of three passes after a warm-up pass, for a fresh process."""
    kernel_s()
    return statistics.median(kernel_s() for _ in range(3))
