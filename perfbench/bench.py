"""Run one workload end to end: set-up, timed phase, checks, metrics.

``run_workload`` is what ``run.py`` calls; the self-test calls it too, at the
tiny size.  The workload modules import the program under test, so they are
imported here, inside the timed set-up.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy
import scipy

from catalogue import END_TO_END, HOST_ADJUSTED, PER_LAYER, UNITS, WORKLOADS
from common import (
    BLAS_THREAD_VARS,
    HostScale,
    Segment,
    Tally,
    Tracer,
    median,
    quiesce,
    timed_segment,
)
from layers import median_layers
from refkernel import ReferenceKernel

SETUP_REPEATS = 3
KERNEL_REPEATS_AT_START = 5
KERNEL_REPEATS_BETWEEN_OPS = 3
MIN_OPS = 3

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy, scipy.sparse.linalg
start = time.perf_counter()
for name in sys.argv[2:]:
    __import__(name)
print(time.perf_counter() - start)
"""


def import_probe(src: Path, modules: tuple[str, ...]) -> float:
    """Time importing ``modules`` in a fresh interpreter (numpy/SciPy preloaded)."""
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(src), *modules],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def closed_loop(workload, seconds: float, kernel: ReferenceKernel) -> list[Segment]:
    """One client: the next op starts when the last one ends; one segment per op."""
    segments: list[Segment] = []
    start = time.perf_counter()
    while len(segments) < MIN_OPS or time.perf_counter() - start < seconds:
        quiesce()
        latency = workload.op(len(segments))
        segments.append(timed_segment(kernel, KERNEL_REPEATS_BETWEEN_OPS, latency, [latency]))
    return segments


def host_fingerprint(seed: int, notes: dict) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "seed": seed,
        **notes,
    }


def blas_threads() -> int:
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value else 0


@dataclass
class RunResult:
    workload: str
    trace: bool
    tally: Tally
    metrics: dict[str, float]
    raw: dict[str, float]
    fingerprint: dict
    kernel: ReferenceKernel
    segments: dict[str, list[Segment]]
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.tally.attempted > 0 and self.tally.failed == 0 and self.tally.shed == 0

    def summary(self) -> dict:
        """The one-line JSON object the benchmark prints last."""
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed + self.tally.shed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        }

    def document(self) -> dict:
        """Everything the run measured, for the results file."""
        return {
            "workload": self.workload,
            "trace": self.trace,
            "fingerprint": self.fingerprint,
            "summary": self.summary(),
            "raw": self.raw,
            "kernel_s": {
                "total": self.kernel.samples,
                "lu": self.kernel.lu_samples,
                "loop": self.kernel.loop_samples,
            },
            "segments": {
                phase: [asdict(segment) for segment in segments]
                for phase, segments in self.segments.items()
            },
            "failures": self.tally.failures,
            "spans": self.spans,
        }


def adjusted(segments: list[Segment], nominal_ref_s: float) -> tuple[list[float], float]:
    """Host-adjusted latencies and busy time: each segment scaled by its own batch."""
    latencies: list[float] = []
    busy_s = 0.0
    for segment in segments:
        scale = HostScale(nominal_ref_s, segment.ref_s)
        latencies.extend(scale.time(latency) for latency in segment.latencies)
        busy_s += scale.time(segment.busy_s)
    return latencies, busy_s


def timing_metrics(segments: dict[str, list[Segment]], nominal_ref_s: float | None) -> dict:
    """``setup_s``, ``latency_p50_s`` and ``throughput_ops_per_s``.

    ``nominal_ref_s=None`` gives the raw values.
    """

    def values(phase):
        if nominal_ref_s is None:
            return [x for s in segments[phase] for x in s.latencies], sum(
                s.busy_s for s in segments[phase]
            )
        return adjusted(segments[phase], nominal_ref_s)

    imports, _ = values("imports")
    setups, _ = values("setup")
    latencies, busy_s = values("timed")
    return {
        "setup_s": median(imports) + median(setups),
        "latency_p50_s": median(latencies),
        "throughput_ops_per_s": len(latencies) / busy_s,
    }


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    nominal_ref_s: float,
    size: str = "full",
    host_notes: dict | None = None,
) -> RunResult:
    module_name, class_name = WORKLOADS[name]
    kernel = ReferenceKernel()
    src = Path(__file__).resolve().parent.parent / "src"

    # Set-up: imports (once here, the rest in fresh interpreters), then
    # build + compile + one warm-up op, several times; medians of each.
    start = time.perf_counter()
    module = importlib.import_module(module_name)
    import_samples = [time.perf_counter() - start]
    import_samples += [import_probe(src, module.MODULES) for _ in range(SETUP_REPEATS - 1)]
    segments = {
        "imports": [
            timed_segment(kernel, KERNEL_REPEATS_AT_START, sum(import_samples), import_samples)
        ],
        "setup": [],
    }
    tracer = Tracer(trace)
    tally = Tally()
    for _ in range(SETUP_REPEATS):
        quiesce()
        workload = getattr(module, class_name)(seed=seed, size=size, tracer=tracer, tally=tally)
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        segments["setup"].append(
            timed_segment(kernel, KERNEL_REPEATS_BETWEEN_OPS, setup_s, [setup_s])
        )

    if hasattr(workload, "measure"):
        segments["timed"] = workload.measure(seconds, kernel)
    else:
        segments["timed"] = closed_loop(workload, seconds, kernel)
    extra = workload.extra_layers() if trace else {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw = timing_metrics(segments, None)
    raw["ref_kernel_s"] = median(kernel.samples)
    end_to_end = {
        **timing_metrics(segments, nominal_ref_s),
        "ok_frac": tally.ok_frac,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        metrics = per_layer_metrics(workload, tracer, extra, nominal_ref_s, raw, end_to_end)
    else:
        metrics = {metric: end_to_end[metric] for metric, _, _ in END_TO_END}
    return RunResult(
        workload=name,
        trace=trace,
        tally=tally,
        metrics=metrics,
        raw={**raw, **{f"{m}_adjusted": end_to_end[m] for m in HOST_ADJUSTED}},
        fingerprint=host_fingerprint(seed, host_notes or {}),
        kernel=kernel,
        segments=segments,
        spans=tracer.to_json(),
    )


def per_layer_metrics(
    workload, tracer: Tracer, extra: dict, nominal_ref_s: float, raw: dict, end_to_end: dict
) -> dict[str, float]:
    """Every per-layer figure; times scaled by the run's median kernel time."""
    scale = HostScale(nominal_ref_s, raw["ref_kernel_s"])
    layers = median_layers(workload.op_layers) if workload.op_layers else {}
    layers.update(extra)
    if "circuits.compile_s" not in layers:
        layers["circuits.compile_s"] = median(tracer.durations("circuits.compile"))
    metrics = {}
    for name, unit, _ in PER_LAYER:
        value = layers.get(name, 0.0)
        metrics[name] = scale.time(value) if unit == "s" else float(value)
    metrics.update(
        {
            "trace.latency_p50_s": end_to_end["latency_p50_s"],
            "trace.spans": float(len(tracer.spans)),
            "host.ref_kernel_s": raw["ref_kernel_s"],
            "host.raw.setup_s": raw["setup_s"],
            "host.raw.latency_p50_s": raw["latency_p50_s"],
            "host.raw.throughput_ops_per_s": raw["throughput_ops_per_s"],
            "host.nproc": float(os.cpu_count() or 0),
            "host.blas_threads": float(blas_threads()),
        }
    )
    return metrics


def format_report(result: RunResult) -> str:
    """Human-readable lines: fingerprint, every metric with its unit, failures."""
    lines = [f"workload {result.workload} (trace {int(result.trace)})"]
    lines.append("host " + json.dumps(result.fingerprint, sort_keys=True))
    for name, value in result.metrics.items():
        lines.append(f"  {name:<34} {value:>14.6g} {UNITS[name]}")
    lines.append(
        f"  ops attempted {result.tally.attempted}, passed {result.tally.passed}, "
        f"failed {result.tally.failed}, shed {result.tally.shed}"
    )
    lines.extend(f"  FAILED: {problem}" for problem in result.tally.failures[:20])
    return "\n".join(lines)
