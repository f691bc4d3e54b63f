"""Reference kernel: a fixed amount of sparse-LU and interpreter work.

Its time, measured right after each timed segment of a run (an op, a
set-up repeat, a service round), tracks how fast the host was running at
that moment; timings are scaled by it (see ``common.HostScale``).  It mixes
the two kinds of work the workloads spend their time on: a SciPy sparse LU
of a fixed 4 900-unknown 2-D Laplacian (the paper mixer is
factorisation-bound) and a pure-Python loop (shooting and the service mix
are interpreter-bound).  It imports nothing from the program under test, so
no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 70  # 70 x 70 interior points: 4 900 unknowns
LOOP_ITERATIONS = 20_000


def _laplacian(n: int) -> sp.csc_matrix:
    eye = sp.identity(n, dtype=float, format="csr")
    tridiag = sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr"
    )
    return (sp.kron(eye, tridiag) + sp.kron(tridiag, eye)).tocsc()


class ReferenceKernel:
    """The kernel plus every time it took in this run, split into its two parts."""

    def __init__(self) -> None:
        self._matrix = _laplacian(GRID)
        self._rhs = np.ones(GRID * GRID)
        self.samples: list[float] = []
        self.lu_samples: list[float] = []
        self.loop_samples: list[float] = []

    def run_once(self) -> float:
        start = time.perf_counter()
        solution = spla.splu(self._matrix).solve(self._rhs)
        middle = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i
        end = time.perf_counter()
        if not (np.isfinite(solution).all() and total > 0):
            raise RuntimeError("reference kernel produced a wrong result")
        self.lu_samples.append(middle - start)
        self.loop_samples.append(end - middle)
        self.samples.append(end - start)
        return end - start

    def measure(self, repeats: int) -> float:
        """Time the kernel ``repeats`` times and return the batch median.

        Call only while no operation is in flight.
        """
        return statistics.median(self.run_once() for _ in range(repeats))
