"""Workload ``paper_mixer``: the paper's own case, one client, closed loop.

One operation is the default ``solve_mpde`` of the balanced LO-doubling
mixer (450 MHz LO, 15 kHz baseband) on the paper's 40 x 30 grid, on a
circuit compiled once in set-up.  Its check: the solve converged, and the
15 kHz baseband amplitude is within 1 % of the value recorded when the
benchmark was defined.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import solve_mpde
from repro.rf import balanced_lo_doubling_mixer
from repro.signals.spectrum import fourier_coefficient
from repro.utils import MPDEOptions

from common import CallMeter, Tally, Tracer
from layers import mpde_layers, relative_error

MODULES = ("repro.core", "repro.rf", "repro.signals.spectrum", "repro.utils")


@dataclass(frozen=True)
class Size:
    lo_frequency: float
    difference_frequency: float
    grid: tuple[int, int] | None  # None: the solver's default grid
    expected_amplitude: float
    rtol: float = 0.01


SIZES = {
    # 40 x 30 is MPDEOptions' default grid, so the op runs the defaults.
    "full": Size(450e6, 15e3, None, 0.7213377187561668),
    "tiny": Size(450e6, 15e3, (12, 9), 0.7085104487493685),
}


class PaperMixer:
    name = "paper_mixer"

    def __init__(self, *, seed: int, size: str, tracer: Tracer, tally: Tally):
        self.seed = seed  # the op has no random input; the seed is only recorded
        self.size = SIZES[size]
        self.tracer = tracer
        self.tally = tally
        self.meter = CallMeter() if tracer.enabled else None
        self.mixer = None
        self.mna = None
        self.options = None
        self.op_layers: list[dict[str, float]] = []

    def setup(self) -> None:
        """Build and compile the circuit, then run one warm-up op."""
        size = self.size
        self.mixer = balanced_lo_doubling_mixer(size.lo_frequency, size.difference_frequency)
        with self.tracer.span("circuits.compile"):
            self.mna = self.mixer.circuit.compile()
        if self.meter is not None:
            self.mna.evaluate = self.meter.wrap(self.mna.evaluate)
            self.mna.evaluate_sparse = self.meter.wrap(self.mna.evaluate_sparse)
        if size.grid is not None:
            self.options = MPDEOptions(n_fast=size.grid[0], n_slow=size.grid[1])
        self.op(None)

    def op(self, index: int | None) -> float:
        """Run one op, check it, and return its latency in seconds."""
        calls0, seconds0 = (self.meter.calls, self.meter.seconds) if self.meter else (0, 0.0)
        with self.tracer.span("core.solve", op=index):
            start = time.perf_counter()
            try:
                result = solve_mpde(self.mna, self.mixer.scales, self.options)
            except Exception as exc:  # counted as a failed op, never hidden
                result, error = None, f"solve_mpde raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        if result is None:
            self.tally.record(error)
            return latency
        with self.tracer.span("check", op=index):
            self.tally.record(self._check(result))
        if index is not None and self.tracer.enabled:
            layers = mpde_layers(result.stats, latency)
            layers["circuits.evaluate_calls"] = float(self.meter.calls - calls0)
            layers["circuits.evaluate_s"] = self.meter.seconds - seconds0
            self.op_layers.append(layers)
        return latency

    def _check(self, result) -> str | None:
        if not result.stats.converged:
            return "paper mixer solve did not converge"
        mixer = self.mixer
        envelope = result.baseband_envelope(mixer.output_pos, node_neg=mixer.output_neg)
        amplitude = 2.0 * abs(fourier_coefficient(envelope, self.size.difference_frequency))
        error = relative_error(amplitude, self.size.expected_amplitude)
        if not error <= self.size.rtol:
            return (
                f"baseband amplitude {amplitude:.6g} is {100 * error:.2f} % from the "
                f"recorded {self.size.expected_amplitude:.6g}"
            )
        return None

    def extra_layers(self) -> dict[str, float]:
        return {}
