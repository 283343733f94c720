"""Machine-speed probe for speed-normalized timings.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over a few seconds: the same call can take 0.17 s in one run
and 0.32 s in the next. Small fixed kernels that do not use ccm are timed
between consecutive measured calls. A call's normalized time is its raw time
divided by the time of its kernel around it, relative to that kernel's
nominal time: seconds on a machine running at the nominal speed.

Interpreted code and BLAS/LAPACK code do not slow down by the same factor,
so there are three kernels, and each workload names the one whose mix is
closest to each of its items:

    interp   interpreter-bound: many tiny numpy calls, float formatting
    lapack   small dense factorizations and products
    vector   batched eigvalsh and a pass over a 1.2 MB array

The kernels are part of the benchmark and must not change between the
commits being compared.
"""

from __future__ import annotations

import time

import numpy as np

# each kernel's typical time between workload calls on a 2-core Xeon VM with
# one BLAS thread; a factor of 1 means the machine runs at that speed
NOMINAL_S = {"interp": 0.00135, "lapack": 0.00135, "vector": 0.0021}


class SpeedProbe:
    def __init__(self, kernels):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40))
        self._spd = a @ a.T + 40.0 * np.eye(40)
        b = rng.standard_normal((3600, 2, 2))
        self._batch = b + b.transpose(0, 2, 1)
        self._vec = rng.standard_normal(150_000)
        self._floats = rng.standard_normal(300).tolist()
        self._m2 = np.array([[2.0, 0.1], [0.1, 1.0]])
        self._run = {"interp": self._interp, "lapack": self._lapack, "vector": self._vector}
        self.kernels = tuple(kernels)
        self.samples: dict[str, list[float]] = {k: [] for k in self.kernels}
        for _ in range(3):  # first calls are slow
            self._last = self._sample_all()

    def _interp(self):
        z = np.array([0.3, -0.2])
        for _ in range(200):
            y = self._m2 @ z
            z = np.concatenate([y, z])[:2] * 0.5 + np.asarray((0.1, 0.2), dtype=float)
        return ",".join(repr(v) for v in self._floats), float(z[0])

    def _lapack(self):
        s = self._spd
        for _ in range(8):
            low = np.linalg.cholesky(s)
            np.linalg.svd(low[:20, :20])
            np.linalg.inv(s[:16, :16])
            s @ s
        acc = 0.0
        for i in range(1200):
            acc += i * 0.5
        return acc

    def _vector(self):
        np.linalg.eigvalsh(self._batch)
        [float(repr(v)) for v in self._floats[:40]]
        return float((self._vec * 1.0001 + 0.5).sum())

    def _sample(self, kernel: str) -> float:
        """Median of three timed runs of one kernel."""
        run = self._run[kernel]
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]

    def _sample_all(self) -> dict[str, float]:
        return {k: self._sample(k) for k in self.kernels}

    def factors(self) -> dict[str, float]:
        """Slowness of the machine since the previous call, per kernel: the
        mean of the kernel times before and after, over the nominal time."""
        now = self._sample_all()
        out = {}
        for k in self.kernels:
            self.samples[k].append(now[k])
            out[k] = (self._last[k] + now[k]) / 2.0 / NOMINAL_S[k]
        self._last = now
        return out
