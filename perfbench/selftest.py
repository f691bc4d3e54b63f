"""Tests of the benchmark's own logic, plus a tiny-size pass of each workload.

Run from the repository root (the file name keeps it out of the default
test collection, so the tier-1 suite is unchanged)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import catalogue  # noqa: E402
import service_mix  # noqa: E402
from common import CallMeter, HostScale, Tally, Tracer, percentile, tail_percentile  # noqa: E402


# -- request stream ----------------------------------------------------------


def test_same_seed_gives_same_stream():
    assert service_mix.make_stream(7, 0, 60) == service_mix.make_stream(7, 0, 60)
    assert service_mix.make_stream(7, 0, 60) != service_mix.make_stream(8, 0, 60)
    assert service_mix.make_stream(7, 0, 60) != service_mix.make_stream(7, 1, 60)


def test_stream_mix():
    stream = service_mix.make_stream(3, 0, 400)
    assert {spec.scenario for spec in stream} == set(service_mix.SCENARIOS)
    goldens = [spec for spec in stream if spec.golden]
    assert 0.05 < len(goldens) / len(stream) < 0.15
    assert all(spec.overrides == () for spec in goldens)
    low, high = service_mix.SCALE_RANGE
    for spec in stream:
        if spec.golden:
            continue
        (name, value), = spec.overrides
        base = service_mix.smoke_parameters(spec.scenario)[name]
        assert name == service_mix.SCALED_PARAMETER[spec.scenario]
        assert low <= value / base <= high
    sweeps = [spec for spec in stream if spec.scenario in service_mix.SWEEPS]
    assert {spec.first_case_only for spec in sweeps} == {True, False}


# -- statistics ----------------------------------------------------------------


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0.5) == pytest.approx(5.5)
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 10.0


def test_tail_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 99, 0.9)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 50, 0.9)
    assert tail_percentile([float(v) for v in range(100)], 0.9) == pytest.approx(89.1)


def test_host_adjustment():
    slow_host = HostScale(nominal_s=0.02, measured_s=0.04)  # running 2x slower
    assert slow_host.factor == pytest.approx(0.5)
    assert slow_host.time(3.0) == pytest.approx(1.5)
    assert slow_host.rate(10.0) == pytest.approx(20.0)
    assert HostScale(0.02, 0.02).time(1.25) == 1.25
    with pytest.raises(ValueError):
        HostScale(0.02, 0.0)


def test_ok_frac_counts_sheds_and_failures():
    tally = Tally()
    for _ in range(7):
        tally.record(None)
    tally.record("wrong amplitude")
    tally.record("did not converge")
    tally.record_shed("queue full")
    assert tally.attempted == 10
    assert tally.ok_frac == pytest.approx(0.7)
    assert len(tally.failures) == 3
    with pytest.raises(ValueError):
        Tally().ok_frac


# -- tracing ---------------------------------------------------------------------


def test_tracer_nesting():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = Tracer(True, clock=lambda: next(ticks))
    with tracer.span("outer", op=0):
        with tracer.span("a", op=0):
            pass
        with tracer.span("a", op=0):
            pass
    outer, first, second = tracer.spans
    assert (first.parent, second.parent, outer.parent) == (0, 0, None)
    assert outer.duration == 10.0
    assert tracer.per_op("a") == {0: 3.0}
    assert [span["name"] for span in tracer.to_json()] == ["outer", "a", "a"]


def test_untraced_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_call_meter_counts_outermost_calls_only():
    meter = CallMeter()

    def inner():
        return 1

    wrapped_inner = meter.wrap(inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = meter.wrap(outer)
    assert wrapped_outer() == 2
    assert wrapped_inner() == 1
    assert meter.calls == 2


# -- checks have teeth ------------------------------------------------------------


def test_golden_check_rejects_a_drifted_metric():
    goldens = service_mix.load_goldens()
    spec = service_mix.RequestSpec("qpsk_mixer", (), True, True)
    label, pinned = next(iter(goldens["qpsk_mixer"]["metrics"].items()))
    assert service_mix.check_request(spec, {label: dict(pinned)}, [], goldens) is None
    drifted = {key: value * 1.05 + 1e-6 for key, value in pinned.items()}
    assert service_mix.check_request(spec, {label: drifted}, [], goldens) is not None
    assert service_mix.check_request(spec, {label: {**pinned, "x": float("nan")}}, [], goldens)


# -- catalogue --------------------------------------------------------------------


def test_benchmark_json_matches_catalogue():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this checkout")
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in catalogue.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in catalogue.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(catalogue.WORKLOADS)


# -- tiny-size pass of each workload ------------------------------------------------


@pytest.mark.parametrize("workload", list(catalogue.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass(workload, trace):
    result = bench.run_workload(
        workload,
        seed=5,
        seconds=0.5,
        trace=trace,
        nominal_ref_s=0.02,
        size="tiny",
    )
    assert result.correct, result.tally.failures
    assert result.tally.ok_frac == 1.0
    expected = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    assert list(result.metrics) == [name for name, _, _ in expected]
    summary = result.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    json.dumps(summary)
