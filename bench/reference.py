"""Reference kernels that measure how fast the host is right now.

On a shared 2-vCPU Xeon (2.1 GHz) virtual machine, host speed drifted by up
to 1.6x over minutes: a fixed BLAS loop took a median 68 ms in one 20 s
window and 113 ms in another, with no steal time reported to the guest.
Raw wall times of the same workload spread 15-37% (quartile distance over
median) across runs.  Dividing each timing by a
fixed kernel timed right before and after it cancels most of that drift,
so the benchmark reports times normalised to nominal host speed:

    normalised = measured * nominal_s / mean(kernel before, kernel after)

No kernel calls spikedepth, so no change to the package can change it.
Drift hits cache-resident and memory-bound code differently, so each
workload uses a kernel at its own working-set size: an im2col correlation
(window view, copy, BLAS matmul, threshold) on the grid where that workload
spends its time, or, for the CLI, a fresh interpreter importing numpy.
`nominal_s` is a kernel's median on the host the benchmark was defined on;
it only sets the scale of the reported numbers.
"""
from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class Reference:
    kernel: Callable[[], float]  # runs the kernel once, returns its wall seconds
    nominal_s: float


def conv_kernel(b, c, h, w, reps):
    """Kernel timing `reps` 3x3 correlations of a [b, c, h, w] spike map
    (20% density) with 64 filters, each thresholded back to spikes."""
    rng = np.random.default_rng(0)
    x = (rng.random((b, c, h + 2, w + 2)) < 0.2).astype(np.float32)
    wt = rng.standard_normal((64, 9 * c)).astype(np.float32)

    def kernel():
        t0 = time.perf_counter()
        for _ in range(reps):
            cols = sliding_window_view(x, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
            out = cols.reshape(-1, 9 * c) @ wt.T
            y = np.ascontiguousarray(out.reshape(b, h, w, 64).transpose(0, 3, 1, 2))
            (y >= y.mean()).astype(np.float32)
        return time.perf_counter() - t0

    return kernel


def _startup_kernel() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


STARTUP = Reference(_startup_kernel, 0.15)
