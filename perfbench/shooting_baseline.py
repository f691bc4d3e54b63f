"""Workload ``shooting_baseline``: the paper's comparison baseline, one client.

One operation finds the periodic steady state of the unbalanced switching
mixer (2 MHz LO, 50 kHz difference, disparity 40) by shooting over one
difference period (800 trapezoidal steps per period, 20 per LO cycle; 1 600
steps over its two shooting iterations), then solves the same compiled
circuit by MPDE on a 32 x 21 grid.  Its check: the two 50 kHz
baseband amplitudes agree within 5 %.

The traced run also records the paper's headline: the shooting-to-MPDE time
ratio at disparity 40, and a sweep over three disparities giving the fitted
slope of speed-up against disparity, the break-even disparity and the
extrapolation to the paper's 30 000.  These are recorded, not gated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis import shooting_periodic_steady_state
from repro.core import solve_mpde
from repro.rf import unbalanced_switching_mixer
from repro.signals.spectrum import fourier_coefficient
from repro.utils import MPDEOptions, ShootingOptions

from common import CallMeter, Tally, Tracer
from layers import mpde_layers, relative_error

MODULES = ("repro.analysis", "repro.core", "repro.rf", "repro.signals.spectrum", "repro.utils")

STEPS_PER_LO_CYCLE = 20
PAPER_DISPARITY = 30_000


@dataclass(frozen=True)
class Size:
    lo_frequency: float
    disparity: int
    grid: tuple[int, int]
    sweep: tuple[int, ...]
    rtol: float = 0.05


SIZES = {
    "full": Size(2e6, 40, (32, 21), (20, 40, 80)),
    "tiny": Size(2e6, 10, (32, 21), (5, 10, 20)),
}


class _Case:
    """One compiled switching mixer at one disparity."""

    def __init__(self, size: Size, disparity: int, tracer: Tracer):
        self.disparity = disparity
        self.frequency = size.lo_frequency / disparity
        self.mixer = unbalanced_switching_mixer(
            lo_frequency=size.lo_frequency, difference_frequency=self.frequency
        )
        with tracer.span("circuits.compile"):
            self.mna = self.mixer.circuit.compile()
        self.shooting_options = ShootingOptions(
            steps_per_period=STEPS_PER_LO_CYCLE * disparity, integration_method="trapezoidal"
        )
        self.mpde_options = MPDEOptions(n_fast=size.grid[0], n_slow=size.grid[1])


class ShootingBaseline:
    name = "shooting_baseline"

    def __init__(self, *, seed: int, size: str, tracer: Tracer, tally: Tally):
        self.seed = seed  # the op has no random input; the seed is only recorded
        self.size = SIZES[size]
        self.tracer = tracer
        self.tally = tally
        self.meter = CallMeter() if tracer.enabled else None
        self.case: _Case | None = None
        self.op_layers: list[dict[str, float]] = []

    def setup(self) -> None:
        """Build and compile the circuit, then run one warm-up op."""
        self.case = _Case(self.size, self.size.disparity, self.tracer)
        if self.meter is not None:
            mna = self.case.mna
            mna.evaluate = self.meter.wrap(mna.evaluate)
            mna.evaluate_sparse = self.meter.wrap(mna.evaluate_sparse)
        self.op(None)

    def _solve_both(self, case: _Case, index: int | None):
        """Shooting then MPDE on ``case``: (shoot_s, mpde_s, shot, solved, error)."""
        tracer = self.tracer
        try:
            with tracer.span("analysis.shooting", op=index):
                start = time.perf_counter()
                shot = shooting_periodic_steady_state(
                    case.mna, case.mixer.scales.difference_period, options=case.shooting_options
                )
                shoot_s = time.perf_counter() - start
            with tracer.span("core.solve", op=index):
                start = time.perf_counter()
                solved = solve_mpde(case.mna, case.mixer.scales, case.mpde_options)
                mpde_s = time.perf_counter() - start
        except Exception as exc:  # counted as a failed op, never hidden
            return 0.0, 0.0, None, None, f"{type(exc).__name__}: {exc}"
        return shoot_s, mpde_s, shot, solved, None

    def _check(self, case: _Case, shot, solved) -> str | None:
        if not solved.stats.converged:
            return "MPDE solve of the switching mixer did not converge"
        shooting_amp = 2.0 * abs(fourier_coefficient(shot.waveform("out"), case.frequency))
        mpde_amp = 2.0 * abs(fourier_coefficient(solved.baseband_envelope("out"), case.frequency))
        error = relative_error(mpde_amp, shooting_amp)
        if not error <= self.size.rtol:
            return (
                f"disparity {case.disparity}: MPDE amplitude {mpde_amp:.6g} is "
                f"{100 * error:.2f} % from shooting's {shooting_amp:.6g}"
            )
        return None

    def op(self, index: int | None) -> float:
        """Run one op, check it, and return its latency in seconds."""
        case = self.case
        calls0, seconds0 = (self.meter.calls, self.meter.seconds) if self.meter else (0, 0.0)
        shoot_s, mpde_s, shot, solved, error = self._solve_both(case, index)
        if error is not None:
            self.tally.record(error)
            return shoot_s + mpde_s
        with self.tracer.span("check", op=index):
            self.tally.record(self._check(case, shot, solved))
        if index is not None and self.tracer.enabled:
            stats = shot.stats
            layers = mpde_layers(solved.stats, mpde_s)
            layers.update(
                {
                    "analysis.time_steps": float(stats.total_time_steps),
                    "analysis.newton_iterations": float(stats.newton_iterations),
                    "analysis.shooting_iterations": float(stats.shooting_iterations),
                    "analysis.step_s": shoot_s / stats.total_time_steps,
                    "circuits.evaluate_calls": float(self.meter.calls - calls0),
                    "circuits.evaluate_s": self.meter.seconds - seconds0,
                    "headline.speedup_d40": shoot_s / mpde_s,
                }
            )
            self.op_layers.append(layers)
        return shoot_s + mpde_s

    def extra_layers(self) -> dict[str, float]:
        """The traced-only disparity sweep: fitted slope, break-even, extrapolation."""
        disparities, speedups = [], []
        for disparity in self.size.sweep:
            case = _Case(self.size, disparity, self.tracer)
            shoot_s, mpde_s, shot, solved, error = self._solve_both(case, None)
            self.tally.record(error if error is not None else self._check(case, shot, solved))
            if error is None:
                disparities.append(float(disparity))
                speedups.append(shoot_s / mpde_s)
        if len(disparities) < 2:
            return {}
        slope, intercept = np.polyfit(disparities, speedups, 1)
        return {
            "headline.slope_per_disparity": float(slope),
            "headline.break_even_disparity": float((1.0 - intercept) / slope),
            "headline.speedup_at_30000": float(slope * PAPER_DISPARITY + intercept),
        }
