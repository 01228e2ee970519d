"""The machine's current speed, read from a fixed kernel of the benchmark's own.

On the two-vCPU VM the benchmark was tuned on, the same code runs at speeds
that change by up to 1.5x between spells of seconds to minutes. One
60-second run can fall wholly in a fast or a slow spell, so raw wall times
spread between runs by more than any bound a regression check could use.
The benchmark times this kernel before every step and scales each round's
step times by ``REFERENCE_S / median kernel time``: the times it reports
are seconds at the speed the reference machine had when ``REFERENCE_S``
was taken. The kernel imports nothing from distilab, so a change to the
program does not move it. It runs on one thread, so it follows
single-thread work closely and two-thread BLAS work less well (README.md).
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one kernel pass on the reference machine (see README.md).
REFERENCE_S = 0.0054

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((128, 64))
_W = tuple(_rng.standard_normal((64, 64)) * 0.1 for _ in range(3))


def kernel_s() -> float:
    """Wall time of one pass: 18 products of a 128x64 and a 64x64 matrix, each
    through tanh. ``einsum`` without ``optimize`` uses numpy's own loops, not
    BLAS, so the program's BLAS thread count does not change the kernel."""
    t0 = time.perf_counter()
    h = _X
    for _ in range(6):
        for w in _W:
            h = np.tanh(np.einsum("ij,jk->ik", h, w))
    return time.perf_counter() - t0
