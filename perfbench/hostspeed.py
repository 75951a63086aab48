"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark was tuned on gives it a share of a few cores, and
their speed swings by a third within seconds and from run to run; every
timing of diffcone follows those swings.  The reference kernel does the
same kinds of work as diffcone's hot paths -- a Python loop of small numpy
operations (the per-block cone loop), a sparse LU factorization with its
triangular solves (the solver), a small dense solve (the direct backward)
and dict/list bookkeeping (canonicalization) -- on fixed inputs that never
depend on the workload, its seed or diffcone.  It runs after every
timed stretch (a set-up, a forward, a step's backwards), and the stretch
is scaled by the kernel's speed just before and just after it
(``HostSpeed.follow``), so a time reads as it would on a host that runs one
kernel call in ``NOMINAL_MS``.  A change to diffcone moves the step time
and not the kernel, so it moves the scaled time by the same factor.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# One kernel call's median wall time on the host the benchmark was tuned
# on (2 vCPU x86_64, Python 3.11, numpy 2.4, one BLAS thread).  Only its
# ratio to the measured speed matters, and it is the same for every commit.
NOMINAL_MS = 2.0


class HostSpeed:
    """The reference kernel, run after each timed stretch for ``share`` of
    the stretch's time."""

    def __init__(self, share: float):
        self.share = share
        rng = np.random.default_rng(20191027)
        self.blocks = [rng.standard_normal(3) for _ in range(48)]
        n = 300
        a = sp.random(n, n, density=0.01, random_state=7, format="csc")
        self.sparse = (a + sp.identity(n, format="csc") * 4.0).tocsc()
        self.rhs = rng.standard_normal(n)
        self.dense = rng.standard_normal((40, 40)) + 8.0 * np.eye(40)
        self.dense_rhs = rng.standard_normal(40)
        self.previous = (0, 0.0)   # calls and seconds of the last run

    def kernel(self) -> float:
        total = 0.0
        for v in self.blocks:  # second-order-cone projections, one by one
            t, x = v[0], v[1:]
            nx = float(np.linalg.norm(x))
            if nx <= t:
                p = v
            elif nx <= -t:
                p = np.zeros(3)
            else:
                p = 0.5 * (1.0 + t / nx) * np.concatenate(([nx], x))
            total += float(p[0])
        lu = splu(self.sparse)
        total += float(lu.solve(self.rhs)[0])
        total += float(np.linalg.solve(self.dense, self.dense_rhs)[0])
        index = {}
        for i in range(200):
            index.setdefault(i % 17, []).append((i, i * 3))
        return total + len(index)

    def run(self, seconds: float) -> tuple[int, float]:
        """Call the kernel, at least once, until ``seconds`` have passed;
        return the number of calls and the time they took."""
        calls, start = 0, time.perf_counter()
        while True:
            self.kernel()
            calls += 1
            now = time.perf_counter()
            if now - start >= seconds:
                return calls, now - start

    def warm_up(self, seconds: float) -> None:
        """Run the kernel before the first timed stretch."""
        self.previous = self.run(seconds)

    def follow(self, timed_s: float) -> float:
        """Run the kernel for ``share`` of a stretch that took ``timed_s``,
        right after it.  Returns the factor that takes the stretch's times
        to the nominal host speed: NOMINAL_MS over the kernel's mean call
        time in the runs just before and just after the stretch."""
        calls, seconds = self.run(self.share * timed_s)
        before_calls, before_s = self.previous
        self.previous = calls, seconds
        call_ms = 1e3 * (before_s + seconds) / (before_calls + calls)
        return NOMINAL_MS / call_ms
