"""Shared pieces of the benchmark: environment pins, statistics, host
adjustment, tallies, timed segments and spans.

Nothing here imports the program under test (``repro``), so the helpers can
be tested on their own and the reference kernel cannot be moved by a change
to the program.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Environment variables that set BLAS/OpenMP thread counts (run.py pins them to 1).
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: glibc ``mallopt`` parameters, pinned to glibc's initial 128 KiB values.
#: Left alone, glibc raises its mmap and trim thresholds as the process frees
#: large blocks, so whether a multi-megabyte array costs fresh page faults
#: depends on allocation history: the reference kernel's LU then runs in one
#: of two speeds ~1.5x apart, and peak RSS jumps between runs.
MALLOPT_PINS = {"M_TRIM_THRESHOLD": (-1, 128 << 10), "M_MMAP_THRESHOLD": (-3, 128 << 10)}

#: Samples a percentile needs beyond it before it may be reported as a tail.
MIN_TAIL_SAMPLES = 10


def pin_allocator() -> dict[str, int]:
    """Fix glibc malloc's adaptive thresholds; returns what was pinned (empty if not glibc)."""
    name = ctypes.util.find_library("c")
    if name is None:
        return {}
    try:
        libc = ctypes.CDLL(name)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return {}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return {
        key: value for key, (param, value) in MALLOPT_PINS.items() if mallopt(param, value) == 1
    }


def pin_cpu() -> int | None:
    """Run this process (and the threads and processes it starts) on one CPU.

    The reference kernel is single-threaded; it can only track how fast the
    host runs an op if both run on the same CPU.  Returns the CPU, or None
    where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-quantile."""
    return int(math.floor(n * (1.0 - q) + 1e-9))


def tail_percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile as a tail figure, refused on too small a sample.

    A tail is reported only when at least :data:`MIN_TAIL_SAMPLES` samples
    lie beyond it; otherwise a "p90" of a handful of runs reads below the
    median on a bad day, which is noise, not a tail.
    """
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{100 * q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{len(values)} samples leave {beyond}"
        )
    return percentile(values, q)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


@dataclass(frozen=True)
class HostScale:
    """Converts raw timings to host-adjusted ones.

    ``measured_s`` is the median reference-kernel time of this run and
    ``nominal_s`` the fixed nominal one, so on a host (or in a process)
    running ``k`` times slower than nominal, raw times are divided by ``k``.
    """

    nominal_s: float
    measured_s: float

    def __post_init__(self) -> None:
        if self.nominal_s <= 0 or self.measured_s <= 0:
            raise ValueError("reference times must be positive")

    @property
    def factor(self) -> float:
        return self.nominal_s / self.measured_s

    def time(self, raw_s: float) -> float:
        """A duration, scaled to the nominal host."""
        return raw_s * self.factor

    def rate(self, raw_per_s: float) -> float:
        """A rate (work per second), scaled to the nominal host."""
        return raw_per_s / self.factor


@dataclass
class Tally:
    """Operations attempted and how they ended.

    Every attempted operation ends as exactly one of: passed (it succeeded
    and its output passed its check), failed (it raised, did not converge,
    or failed its check) or shed (the service refused it at admission).
    """

    passed: int = 0
    failed: int = 0
    shed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.passed + self.failed + self.shed

    @property
    def ok_frac(self) -> float:
        """Share of attempted operations that passed; sheds and failures count against it."""
        if self.attempted == 0:
            raise ValueError("no operation was attempted")
        return self.passed / self.attempted

    def record(self, problem: str | None) -> None:
        """Record one finished operation: ``problem`` is ``None`` when it passed."""
        if problem is None:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(problem)

    def record_shed(self, detail: str) -> None:
        self.shed += 1
        self.failures.append(f"shed: {detail}")


@dataclass
class Segment:
    """A timed stretch of a run and the reference-kernel batch measured right after it."""

    busy_s: float
    latencies: list[float]
    kernel_batch: tuple[int, int]  # slice of the kernel's samples
    ref_s: float  # the batch median


def timed_segment(kernel, repeats: int, busy_s: float, latencies) -> Segment:
    """Close a segment: run a kernel batch (no op is in flight) and record it."""
    first = len(kernel.samples)
    ref_s = kernel.measure(repeats)
    return Segment(busy_s, list(latencies), (first, len(kernel.samples)), ref_s)


# -- spans -------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, one per layer call the benchmark makes.

    Spans are recorded from the benchmark's own thread only; a span opened
    inside another is its child.  ``enabled=False`` makes :meth:`span` a
    no-op, which is what the untraced runs use.
    """

    def __init__(self, enabled: bool, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # Reserve the slot now so children get a stable parent index.
        self.spans.append(Span(name, self._clock(), float("nan"), parent, op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            start = self.spans[index].start
            self.spans[index] = Span(name, start, self._clock(), parent, op)

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def per_op(self, name: str) -> dict[int, float]:
        """Total duration of the spans called ``name`` in each operation."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span.name == name and span.op is not None:
                totals[span.op] = totals.get(span.op, 0.0) + span.duration
        return totals

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
            }
            for s in self.spans
        ]


class CallMeter:
    """Counts and times calls of a wrapped function (outermost calls only)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.calls = 0
        self.seconds = 0.0
        self._clock = clock
        self._depth = 0

    def wrap(self, function: Callable) -> Callable:
        def metered(*args, **kwargs):
            if self._depth:
                return function(*args, **kwargs)
            self._depth += 1
            start = self._clock()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += self._clock() - start
                self.calls += 1
                self._depth -= 1

        return metered


def quiesce() -> None:
    """Collect garbage between operations, so no op pays for the last one's."""
    gc.collect()
