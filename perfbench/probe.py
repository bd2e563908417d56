"""The fixed host-speed probe the benchmark's clock is corrected by.

The probe runs no code of the program under test.  It mixes the two kinds
of work the serving steps do, because a probe made only of interpreter
work and small products over-corrects GEMM-bound prefill:

- interpreter-bound: a 3,000-iteration Python loop plus 20 x (64x64
  matmul, 1x512 GEMV, argmax), median of 3 runs;
- BLAS-bound: 3 x (256x512 @ 512x512 float32), median of 3 runs;
- memory-bound: 2 x copy of an 8 MB float64 array, median of 3 runs.

The memory part was added after measuring: prefill streams
many-megabyte score arrays, and with it the per-step residual of
identical steps across repeated runs fell by a tenth on both
single-engine workloads.  One probe takes about 7 ms.  Its result is the
sum of the three medians.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time on the host the benchmark was calibrated on (2-vCPU x86-64
#: VM, OpenBLAS single-threaded).  Corrected times are seconds on a host
#: whose probe takes exactly this long.
REFERENCE_PROBE_S = 0.007


class Probe:
    """Callable returning one probe time in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._small = rng.standard_normal((64, 64))
        self._vec = rng.standard_normal((1, 512))
        self._mat = rng.standard_normal((512, 512))
        self._lhs = rng.standard_normal((256, 512)).astype(np.float32)
        self._rhs = rng.standard_normal((512, 512)).astype(np.float32)
        self._src = rng.standard_normal(1 << 20)
        self._dst = np.empty_like(self._src)

    def _interpreter(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        for _ in range(20):
            x = self._small @ self._small
            y = self._vec @ self._mat
            acc += int(np.argmax(y)) + int(x[0, 0] > 0)
        return time.perf_counter() - t0

    def _blas(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            self._lhs @ self._rhs
        return time.perf_counter() - t0

    def _memory(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            np.copyto(self._dst, self._src)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return sum(statistics.median(part() for _ in range(3))
                   for part in (self._interpreter, self._blas, self._memory))
