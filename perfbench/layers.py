"""Per-layer figures read off the stats objects the program returns.

Layers are named after the ``src/repro`` packages.  The full catalogue, with
units, is ``catalogue.PER_LAYER``.
"""

from __future__ import annotations

import math

from common import median


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def mpde_layers(stats, solve_s: float) -> dict[str, float]:
    """One MPDE (or harmonic-balance) solve's layer split, from ``MPDEStats``.

    ``solve_s`` is the benchmark's own span around the solve call;
    ``core.other_s`` is what the solver's own buckets leave of it.
    """
    buckets = (
        stats.eval_time_s
        + stats.factorization_time_s
        + stats.gmres_time_s
        + stats.preconditioner_build_time_s
    )
    return {
        "circuits.eval_s": stats.eval_time_s,
        "linalg.lu_factorizations": float(stats.jacobian_factorizations),
        "linalg.factor_s": stats.factorization_time_s,
        "linalg.gmres_iterations": float(stats.linear_iterations),
        "linalg.gmres_s": stats.gmres_time_s,
        "linalg.precond_build_s": stats.preconditioner_build_time_s,
        "core.newton_iterations": float(stats.newton_iterations),
        "core.continuation_steps": float(stats.continuation_steps),
        "core.solve_s": solve_s,
        "core.other_s": solve_s - buckets,
        "resilience.recovery_rungs": float(len(stats.recovery_trace)),
    }


def add_layers(total: dict[str, float], part: dict[str, float]) -> dict[str, float]:
    """Sum two layer dicts key by key (a request with several solves)."""
    merged = dict(total)
    for key, value in part.items():
        merged[key] = merged.get(key, 0.0) + value
    return merged


def median_layers(records: list[dict[str, float]]) -> dict[str, float]:
    """Per-op median of every layer figure (mean for recovery rungs).

    Recovery rungs are rare events, so their median is almost always 0;
    the mean per op keeps a single rung visible.
    """
    keys = sorted({key for record in records for key in record})
    result = {}
    for key in keys:
        values = [record.get(key, 0.0) for record in records]
        if key == "resilience.recovery_rungs":
            result[key] = math.fsum(values) / len(values)
        else:
            result[key] = median(values)
    return result
