"""Workload ``service_mix``: a seeded request stream through the simulation service.

One generator thread keeps :data:`IN_FLIGHT` requests in flight (closed
loop) against a ``SimulationService()`` with its default options: 2 worker
threads, queue 8, compiled-circuit cache 8, result memo on.  Four in flight
never fill the queue, so nothing should be shed.

Requests are smoke builds of six registered scenarios covering the MPDE, HB
and PSS analyses; sweeps are asked for both as first case only and as all
cases.  About 90 % of requests scale ``rf_amplitude`` (``lo_frequency`` for
the doubler) by a seeded factor in [0.9, 1.1], so they really solve; the
rest repeat the golden smoke parameters exactly and must match
``tests/goldens/scenarios.json`` within its tolerances.  Every other request
must succeed, converge and give finite metrics.

The service's result memo keeps every result for the life of the service,
so the stream runs in rounds of a fixed number of requests, each against a
fresh service; that bounds memory and keeps it the same from run to run.

The traced run reads the ``Job``, ``JobAttempt``, ``ServiceSnapshot`` and
``CacheStats`` objects the service returns (its worker threads are not
instrumented), then replays the first round serially through the registry's
public functions to time each layer outside the service.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.scenarios import build_scenario_smoke, get_scenario, scenario_fingerprint
from repro.scenarios.registry import solve_case
from repro.service import SimulationService, SweepRequest
from repro.service.telemetry import result_stats
from repro.utils.exceptions import ServiceOverloadedError

from common import (
    CallMeter,
    Segment,
    Tally,
    Tracer,
    median,
    quiesce,
    tail_percentile,
    timed_segment,
)
from layers import add_layers, mpde_layers

MODULES = ("repro.scenarios", "repro.service", "repro.utils")

GOLDENS = Path(__file__).resolve().parent.parent / "tests" / "goldens" / "scenarios.json"

#: Scenario -> the parameter a non-golden request scales.
SCALED_PARAMETER = {
    "qpsk_mixer": "rf_amplitude",
    "qam16_mixer": "rf_amplitude",
    "ofdm_mixer": "rf_amplitude",
    "ip3_sweep": "rf_amplitude",
    "swept_lo_conversion_gain": "rf_amplitude",
    "frequency_doubler": "lo_frequency",
}
SCENARIOS = tuple(SCALED_PARAMETER)
#: The multi-case scenarios, asked for as first case only or as all cases.
SWEEPS = frozenset({"ip3_sweep", "swept_lo_conversion_gain"})
GOLDEN_SHARE = 0.1
SCALE_RANGE = (0.9, 1.1)
IN_FLIGHT = 4
JOB_TIMEOUT_S = 120.0
#: Submissions per timed segment: the requests in flight finish, then a
#: reference-kernel batch of KERNEL_REPEATS runs.  Short segments let the
#: kernel follow host-speed changes within a round.
SEGMENT_REQUESTS = 25
KERNEL_REPEATS = 3

#: Requests per round (one fresh service each).
SIZES = {"full": 200, "tiny": 12}
#: One round per this many seconds of ``--seconds``: the request count is set
#: by the requested run length, never by how fast the host happens to be,
#: because memory grows with the number of requests served.
SECONDS_PER_ROUND = 5.0


@dataclass(frozen=True)
class RequestSpec:
    scenario: str
    overrides: tuple[tuple[str, float], ...]
    first_case_only: bool
    golden: bool

    def request(self, label: str) -> SweepRequest:
        return SweepRequest(
            scenario=self.scenario,
            overrides=dict(self.overrides),
            first_case_only=self.first_case_only,
            label=label,
        )


def smoke_parameters(name: str) -> dict:
    spec = get_scenario(name)
    return {**spec.params, **spec.smoke_overrides}


def make_stream(seed: int, round_index: int, n: int) -> list[RequestSpec]:
    """The ``n`` requests of one round; the same seed and round give the same stream."""
    rng = random.Random(seed * 1_000_003 + round_index)
    stream = []
    for _ in range(n):
        scenario = rng.choice(SCENARIOS)
        first_case_only = rng.random() < 0.5 if scenario in SWEEPS else True
        golden = rng.random() < GOLDEN_SHARE
        if golden:
            overrides: tuple[tuple[str, float], ...] = ()
        else:
            parameter = SCALED_PARAMETER[scenario]
            base = float(smoke_parameters(scenario)[parameter])
            overrides = ((parameter, base * rng.uniform(*SCALE_RANGE)),)
        stream.append(RequestSpec(scenario, overrides, first_case_only, golden))
    return stream


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def check_request(
    spec: RequestSpec, metrics: dict[str, dict[str, float]], stats: list, goldens: dict
) -> str | None:
    """Check one request's outcome; ``None`` when it passed."""
    for one in stats:
        if one is not None and not one.converged:
            return f"{spec.scenario}: a case did not converge"
    for label, values in metrics.items():
        for key, value in values.items():
            if not math.isfinite(value):
                return f"{spec.scenario}[{label}].{key} is not finite ({value!r})"
    if not spec.golden:
        return None
    pinned = goldens[spec.scenario]
    rtol = pinned["tolerance"]["rtol"]
    atol = pinned["tolerance"]["atol"]
    labels = sorted(metrics)
    if spec.first_case_only:
        labels_ok = len(labels) == 1 and labels[0] in pinned["metrics"]
    else:
        labels_ok = labels == sorted(pinned["metrics"])
    if not labels_ok:
        return f"{spec.scenario}: cases {labels} do not match the goldens"
    for label in labels:
        for key, want in pinned["metrics"][label].items():
            got = metrics[label].get(key)
            if got is None or abs(got - want) > max(rtol * abs(want), atol):
                return f"{spec.scenario}[{label}].{key} = {got!r}, golden {want!r}"
    return None


@dataclass
class _JobFacts:
    """What the traced run keeps of one finished job (the job itself is dropped)."""

    round_index: int
    position: int
    queue_wait_s: float
    attempt_s: float
    retries: int
    from_memo: bool


class ServiceMix:
    name = "service_mix"

    def __init__(self, *, seed: int, size: str, tracer: Tracer, tally: Tally):
        self.seed = seed
        self.round_size = SIZES[size]
        self.tracer = tracer
        self.tally = tally
        self.goldens = load_goldens()
        self.latencies: list[float] = []
        self.job_facts: list[_JobFacts] = []
        self.snapshots: list = []
        self.op_layers: list[dict[str, float]] = []
        self._replay_by_position: dict[int, float] = {}

    def setup(self) -> None:
        """Start a service and run one warm-up request (a golden repeat) through it."""
        spec = RequestSpec("qpsk_mixer", (), True, True)
        with SimulationService() as service:
            job = service.submit(spec.request("warm-up"))
            self._finish(spec, job, None, None)

    def _finish(self, spec: RequestSpec, job, round_index: int | None, position: int | None):
        """Wait for ``job``, check it, and record its latency (timed rounds only)."""
        if not job.wait(JOB_TIMEOUT_S):
            self.tally.record(f"{spec.scenario}: no result after {JOB_TIMEOUT_S} s")
            return
        if job.status != "succeeded":
            self.tally.record(f"{spec.scenario}: job {job.status}: {job.error}")
            return
        run = job.run
        stats = [result_stats(case_run.result) for case_run in run.case_runs]
        self.tally.record(check_request(spec, run.all_metrics(), stats, self.goldens))
        if round_index is None:
            return
        self.latencies.append(job.finished_at - job.submitted_at)
        if self.tracer.enabled:
            self.job_facts.append(
                _JobFacts(
                    round_index,
                    position,
                    job.queue_wait_s,
                    sum(attempt.duration_s for attempt in job.attempts),
                    job.retries,
                    job.from_result_cache,
                )
            )

    def run_round(self, round_index: int, kernel) -> list[Segment]:
        """One round: a fresh service and the round's stream, cut into segments.

        Every :data:`SEGMENT_REQUESTS` submissions the generator lets the
        requests in flight finish and runs a reference-kernel batch, so each
        segment is scaled by a host-speed reading taken right after it.
        """
        stream = make_stream(self.seed, round_index, self.round_size)
        in_flight: deque = deque()
        segments: list[Segment] = []
        first, start = len(self.latencies), time.perf_counter()
        with SimulationService() as service:
            for position, spec in enumerate(stream):
                if position and position % SEGMENT_REQUESTS == 0:
                    while in_flight:
                        self._finish(*in_flight.popleft())
                    busy_s = time.perf_counter() - start
                    segments.append(
                        timed_segment(kernel, KERNEL_REPEATS, busy_s, self.latencies[first:])
                    )
                    first, start = len(self.latencies), time.perf_counter()
                while len(in_flight) >= IN_FLIGHT:
                    self._finish(*in_flight.popleft())
                with self.tracer.span("service.submit", op=position):
                    try:
                        job = service.submit(spec.request(f"r{round_index}-{position}"))
                    except ServiceOverloadedError as exc:
                        self.tally.record_shed(f"{spec.scenario}: {exc}")
                        continue
                in_flight.append((spec, job, round_index, position))
            while in_flight:
                self._finish(*in_flight.popleft())
            if self.tracer.enabled:
                self.snapshots.append(service.telemetry())
        busy_s = time.perf_counter() - start  # the last segment includes the shutdown
        quiesce()  # frees this round's service and memo before the next
        segments.append(timed_segment(kernel, KERNEL_REPEATS, busy_s, self.latencies[first:]))
        return segments

    def measure(self, seconds: float, kernel) -> list[Segment]:
        """Run one round per :data:`SECONDS_PER_ROUND` of ``seconds``."""
        segments: list[Segment] = []
        for round_index in range(max(1, round(seconds / SECONDS_PER_ROUND))):
            segments += self.run_round(round_index, kernel)
        return segments

    # -- traced run ------------------------------------------------------------

    def _replay_one(self, index: int, spec: RequestSpec, meter: CallMeter) -> dict[str, float]:
        tracer = self.tracer
        with tracer.span("scenarios.build", op=index):
            scenario = build_scenario_smoke(spec.scenario, **dict(spec.overrides))
        with tracer.span("scenarios.fingerprint", op=index):
            scenario_fingerprint(scenario)
        cases = scenario.cases[:1] if spec.first_case_only else scenario.cases
        layers: dict[str, float] = {}
        metrics: dict[str, dict[str, float]] = {}
        stats_list = []
        calls0, seconds0 = meter.calls, meter.seconds
        for case in cases:
            with tracer.span("circuits.compile", op=index):
                mna = case.circuit.compile()
            mna.evaluate = meter.wrap(mna.evaluate)
            mna.evaluate_sparse = meter.wrap(mna.evaluate_sparse)
            with tracer.span("core.solve", op=index):
                start = time.perf_counter()
                result = solve_case(case, mna=mna)
                solve_s = time.perf_counter() - start
            with tracer.span("scenarios.metrics", op=index):
                metrics[case.label] = {
                    k: float(v) for k, v in case.compute_metrics(case, result).items()
                }
            stats = result_stats(result)
            stats_list.append(stats)
            if stats is not None:
                layers = add_layers(layers, mpde_layers(stats, solve_s))
            else:  # collocation PSS reports only its Newton count
                layers = add_layers(
                    layers,
                    {
                        "core.solve_s": solve_s,
                        "core.other_s": solve_s,
                        "core.newton_iterations": float(result.newton_iterations),
                    },
                )
        if not spec.first_case_only and scenario.aggregate is not None:
            with tracer.span("scenarios.metrics", op=index):
                metrics["aggregate"] = {
                    k: float(v) for k, v in scenario.aggregate(dict(metrics)).items()
                }
        self.tally.record(check_request(spec, metrics, stats_list, self.goldens))
        layers["circuits.evaluate_calls"] = float(meter.calls - calls0)
        layers["circuits.evaluate_s"] = meter.seconds - seconds0
        for name in ("scenarios.build", "scenarios.fingerprint", "circuits.compile", "scenarios.metrics"):
            layers[name + "_s"] = tracer.per_op(name).get(index, 0.0)
        return layers

    def replay(self) -> None:
        """Serial replay of round 0 through the registry's public functions."""
        meter = CallMeter()
        # Replayed ops are numbered after the stream's so spans stay distinct.
        offset = self.round_size
        for position, spec in enumerate(make_stream(self.seed, 0, self.round_size)):
            layers = self._replay_one(offset + position, spec, meter)
            self.op_layers.append(layers)
            self._replay_by_position[position] = layers["core.solve_s"]

    def extra_layers(self) -> dict[str, float]:
        self.replay()
        solved = [facts for facts in self.job_facts if not facts.from_memo]
        contention = [
            facts.attempt_s / self._replay_by_position[facts.position]
            for facts in solved
            if facts.round_index == 0 and self._replay_by_position.get(facts.position, 0.0) > 0
        ]
        leases = sum(snapshot.cache.lookups for snapshot in self.snapshots)
        hits = sum(snapshot.cache.hits for snapshot in self.snapshots)
        memo_hits = sum(1 for facts in self.job_facts if facts.from_memo)
        layers = {
            "service.queue_wait_s": median([facts.queue_wait_s for facts in self.job_facts]),
            "service.attempt_s": median([facts.attempt_s for facts in solved]),
            "service.contention_ratio": median(contention) if contention else 0.0,
            "service.memo_hit_ratio": memo_hits / len(self.job_facts),
            "service.memo_requests": float(len(self.job_facts)),
            "service.compiled_cache_hit_ratio": hits / leases if leases else 0.0,
            "service.compiled_cache_leases": float(leases),
            "service.evictions": float(sum(s.cache.evictions for s in self.snapshots)),
            "service.retries": float(sum(facts.retries for facts in self.job_facts)),
            "service.sheds": float(sum(snapshot.shed for snapshot in self.snapshots)),
        }
        try:
            layers["service.latency_p90_s"] = tail_percentile(self.latencies, 0.9)
        except ValueError:
            pass  # too few requests for a tail (tiny runs only)
        return layers
