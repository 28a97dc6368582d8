"""Host-speed reference: a fixed numpy/scipy kernel timed between repeats.

The benchmark's host alternates between speed states (on the 2-vCPU VM the
baseline was measured on, the same code runs about 1.4x slower for seconds
to minutes at a time).  Timing this kernel right before and after each unit
of work measures the state the unit ran in, so its wall time can be scaled
to the speed at which the kernel takes ``REFERENCE_S``.  The kernel uses only
numpy and scipy, so a change to ``resom`` cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial.distance import cdist

REFERENCE_S = 0.030  # the kernel's time in the host's fast state
SAMPLES_PER_BLOCK = 3

_rng = np.random.default_rng(0)
_W = _rng.random((64, 16))
_X = _rng.random((400, 16))
_GRID = np.arange(64.0)
_A = _rng.random((600, 784))
_B = _rng.random((100, 784))


def _kernel() -> None:
    """A per-sample online-SOM loop (Python-bound) plus one cdist (compute-bound)."""
    w = _W.copy()
    for v in _X:
        diff = v - w
        np.argmin(np.sqrt(np.sum(diff * diff, axis=1)))
        w += (0.01 * np.exp(-_GRID / 3.0))[:, None] * diff
    cdist(_A, _B)


def block() -> list[float]:
    """Seconds per kernel run, a few times in a row."""
    out = []
    for _ in range(SAMPLES_PER_BLOCK):
        started = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - started)
    return out


def scale(before: list[float], after: list[float]) -> float:
    """Factor that turns a wall time measured between two blocks into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.median(before + after)
