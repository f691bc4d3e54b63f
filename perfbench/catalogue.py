"""Every metric the benchmark reports: name, unit, and which way is better.

``BENCHMARK.json`` at the repository root lists the same names and units
(the self-test checks that the two agree).  Untraced runs report the
end-to-end metrics, traced runs the per-layer ones.  A per-layer figure a
workload does not exercise (shooting steps on the paper mixer, say) reads 0.
"""

from __future__ import annotations

#: workload name -> (module, class), in the order BENCHMARK.json lists them
WORKLOADS = {
    "paper_mixer": ("paper_mixer", "PaperMixer"),
    "service_mix": ("service_mix", "ServiceMix"),
    "shooting_baseline": ("shooting_baseline", "ShootingBaseline"),
}

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("throughput_ops_per_s", "1/s", "higher"),
    ("ok_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: End-to-end timings, reported host-adjusted; the raw values go to ``host.*``.
HOST_ADJUSTED = ("setup_s", "latency_p50_s", "throughput_ops_per_s")

PER_LAYER = (
    # circuits
    ("circuits.compile_s", "s", "lower"),
    ("circuits.eval_s", "s", "lower"),
    ("circuits.evaluate_calls", "count", "lower"),
    ("circuits.evaluate_s", "s", "lower"),
    # linalg
    ("linalg.lu_factorizations", "count", "lower"),
    ("linalg.factor_s", "s", "lower"),
    ("linalg.gmres_iterations", "count", "lower"),
    ("linalg.gmres_s", "s", "lower"),
    ("linalg.precond_build_s", "s", "lower"),
    # core
    ("core.newton_iterations", "count", "lower"),
    ("core.continuation_steps", "count", "lower"),
    ("core.solve_s", "s", "lower"),
    ("core.other_s", "s", "lower"),
    # analysis
    ("analysis.time_steps", "count", "lower"),
    ("analysis.newton_iterations", "count", "lower"),
    ("analysis.shooting_iterations", "count", "lower"),
    ("analysis.step_s", "s", "lower"),
    # scenarios
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.fingerprint_s", "s", "lower"),
    ("scenarios.metrics_s", "s", "lower"),
    # service
    ("service.queue_wait_s", "s", "lower"),
    ("service.attempt_s", "s", "lower"),
    ("service.latency_p90_s", "s", "lower"),
    ("service.contention_ratio", "ratio", "lower"),
    ("service.memo_hit_ratio", "ratio", "higher"),
    ("service.memo_requests", "count", "higher"),
    ("service.compiled_cache_hit_ratio", "ratio", "higher"),
    ("service.compiled_cache_leases", "count", "higher"),
    ("service.evictions", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.sheds", "count", "lower"),
    # resilience
    ("resilience.recovery_rungs", "count", "lower"),
    # the paper's headline (shooting_baseline traced run)
    ("headline.speedup_d40", "ratio", "higher"),
    ("headline.slope_per_disparity", "ratio", "higher"),
    ("headline.break_even_disparity", "ratio", "lower"),
    ("headline.speedup_at_30000", "ratio", "higher"),
    # tracing itself
    ("trace.latency_p50_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    # host
    ("host.ref_kernel_s", "s", "lower"),
    ("host.raw.setup_s", "s", "lower"),
    ("host.raw.latency_p50_s", "s", "lower"),
    ("host.raw.throughput_ops_per_s", "1/s", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.blas_threads", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
