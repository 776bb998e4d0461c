"""The yardstick: a fixed piece of the benchmark's own numpy work, timed between ops.

The machine the benchmark runs on is a share of a host: in spells that last
from seconds to minutes, every instruction runs up to 1.8 times slower, and
the wall and CPU time of an op grow with it.  Two runs taken in different
spells then differ by more than any bound a regression could be judged by,
whatever estimator is used within a run.

The yardstick is timed every few milliseconds of op time, so it sees the same
spell as the ops around it.  Every op's wall and CPU time is scaled by the
yardstick's reference time over its time at that moment, which gives the time
the op would take at the yardstick's fastest speed on the development
machine.  The yardstick runs only numpy and the benchmark's own code, on
fixed inputs that do not depend on the seed, so no change to the package
moves it.  It does the kind of work the workload does: Theta by numpy's
pseudo-inverse on a q = 2 Hankel tower (small matrices, Python overhead per
call), and for `schur-dense` also the shorted-operator formula at q = 32 and
64 (LAPACK time at size).
"""

from __future__ import annotations

import math
import time

import numpy as np

import gen

REPEATS = 2  # one yardstick reading is the fastest of this many timings

# Reference time in ms of each yardstick: about its fastest reading on the
# development machine (2 vCPUs, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31,
# one BLAS thread), where the median reading was 1.8 times as long.  Scaled
# times are in ms at that speed, close to what the machine gives when no
# other tenant slows it.
REFERENCE_MS = {"moment": 0.55, "dense": 1.6}


class Yardstick:
    def __init__(self, kind):
        rng = np.random.default_rng([20171218, 99])
        self.reference_ns = REFERENCE_MS[kind] * 1e6
        self.blocks = gen.hamburger_measure(rng, 2, 11, 3)
        self.dense = []
        if kind == "dense":
            for q in (32, 64):
                A, _ = gen.gram(rng, q, q)
                self.dense.append((A, gen.orthonormal(rng, q, q // 2)))

    def work(self):
        acc = 0.0
        for n in range(1, 6):
            acc += gen.min_eig(self.blocks[2 * n] - gen.theta(self.blocks, n))
        for A, Q in self.dense:
            S = Q @ np.linalg.inv(Q.conj().T @ np.linalg.inv(A) @ Q) @ Q.conj().T
            acc += gen.min_eig(A - S)
        return acc

    def read(self):
        """(wall ns, CPU ns) of the yardstick now: the fastest of REPEATS timings each."""
        wall = cpu = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            c0 = time.process_time_ns()
            self.work()
            c1 = time.process_time_ns()
            t1 = time.perf_counter_ns()
            wall = min(wall, t1 - t0)
            cpu = min(cpu, c1 - c0)
        return wall, cpu

    def scale(self, before, after):
        """Factors (wall, CPU) that turn times measured between two readings into reference time.

        The faster of the two readings is taken: a reading is slowed by
        anything that interrupts it, never sped up.
        """
        return self.reference_ns / min(before[0], after[0]), self.reference_ns / min(before[1], after[1])

