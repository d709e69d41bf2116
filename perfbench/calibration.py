"""Host speed calibration for the end-to-end times.

On a shared host the same code runs at different speeds from one minute to
the next: other tenants load the physical cores, steal time stays small and
process CPU time follows wall time, so neither clock hides it.  A fixed
kernel made of the benchmark's own code, which does not depend on the
program, is timed next to every measurement.  Times and rates are then
reported at the reference speed, at which the kernel takes REF_S seconds:
a host running 30% slow slows the kernel and the workload alike, and the
ratio stays put.
"""

from __future__ import annotations

import statistics
import time

import oracles

REF_S = 0.004  # about the kernel's time on a 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4
_MATRIX = oracles.reduced_laplacian(40, oracles.er_edges(12345, 0, 40))


def kernel() -> int:
    """Small numpy eliminations and Python integer arithmetic, the two
    kinds of work the program does."""
    oracles.padic_invariants(_MATRIX, 2, 30)
    oracles.kernel_mod_p(_MATRIX, 2)
    acc = 0
    for k in range(1, 1500):
        acc ^= oracles.mix64(k * oracles.PHI)
    return acc


def kernel_s(repeats: int = 1) -> float:
    """Median wall time of the kernel over `repeats` runs."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
