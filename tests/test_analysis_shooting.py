"""Unit and integration tests for periodic steady state via shooting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import dc_operating_point, run_transient, shooting_periodic_steady_state
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Diode, DiodeParams, Resistor, VoltageSource
from repro.rf import unbalanced_switching_mixer
from repro.signals import SinusoidStimulus, compute_spectrum, fourier_coefficient
from repro.utils import (
    AnalysisError,
    ConvergenceError,
    NewtonOptions,
    ShootingOptions,
    TransientOptions,
)


class TestLinearRCShooting:
    freq = 1e3
    rc = 1e3 * 100e-9

    def _solve(self, rc_lowpass, **kwargs):
        mna = rc_lowpass.compile()
        options = ShootingOptions(steps_per_period=400, **kwargs)
        return mna, shooting_periodic_steady_state(mna, 1.0 / self.freq, options=options)

    def test_amplitude_matches_transfer_function(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        wave = result.waveform("out")
        expected = 1.0 / np.sqrt(1.0 + (2 * np.pi * self.freq * self.rc) ** 2)
        assert 2 * abs(fourier_coefficient(wave, self.freq)) == pytest.approx(expected, rel=0.01)

    def test_phase_matches_transfer_function(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        wave = result.waveform("out")
        expected_phase = -np.arctan(2 * np.pi * self.freq * self.rc)
        assert np.angle(fourier_coefficient(wave, self.freq)) == pytest.approx(
            expected_phase, abs=0.03
        )

    def test_periodicity_of_returned_states(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        np.testing.assert_allclose(result.states[0], result.states[-1], atol=1e-6)

    def test_converges_in_one_shooting_iteration_for_linear_circuit(self, rc_lowpass):
        """For a linear circuit the state-transition map is affine: one Newton step suffices."""
        mna, result = self._solve(rc_lowpass)
        assert result.stats.shooting_iterations <= 2

    def test_stats_track_time_steps(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        assert result.stats.total_time_steps >= 400
        assert result.stats.newton_iterations > 0


class TestRectifierShooting:
    """Half-wave rectifier: strongly nonlinear, classic shooting test case."""

    freq = 1e3

    def test_matches_long_transient(self, diode_rectifier):
        mna = diode_rectifier.compile()
        result = shooting_periodic_steady_state(
            mna,
            1.0 / self.freq,
            options=ShootingOptions(steps_per_period=300, integration_method="trapezoidal"),
        )
        # Brute force: integrate long enough for the start-up transient to die.
        transient = run_transient(
            mna,
            t_stop=30 / self.freq,
            dt=1 / self.freq / 300,
            options=TransientOptions(method="trapezoidal"),
        )
        brute = transient.waveform("out").window(29 / self.freq, 30 / self.freq)
        shooting_mean = result.waveform("out").mean()
        brute_mean = brute.mean()
        assert shooting_mean == pytest.approx(brute_mean, rel=0.02)

    def test_output_ripple_is_small(self, diode_rectifier):
        mna = diode_rectifier.compile()
        result = shooting_periodic_steady_state(
            mna, 1.0 / self.freq, options=ShootingOptions(steps_per_period=300)
        )
        wave = result.waveform("out")
        # RC = 10 ms >> period, so the ripple is a small fraction of the mean.
        assert wave.peak_to_peak() < 0.25 * wave.mean()

    def test_backward_euler_integration_also_converges(self, diode_rectifier):
        mna = diode_rectifier.compile()
        result = shooting_periodic_steady_state(
            mna,
            1.0 / self.freq,
            options=ShootingOptions(steps_per_period=300, integration_method="backward-euler"),
        )
        assert result.stats.final_residual_norm < 1e-6


class TestShootingErrors:
    def test_invalid_period(self, rc_lowpass):
        mna = rc_lowpass.compile()
        with pytest.raises(AnalysisError):
            shooting_periodic_steady_state(mna, 0.0)

    def test_iteration_budget_exhaustion_raises(self, diode_rectifier):
        mna = diode_rectifier.compile()
        with pytest.raises(ConvergenceError):
            shooting_periodic_steady_state(
                mna,
                1e-3,
                options=ShootingOptions(
                    steps_per_period=50, max_shooting_iterations=1, abstol=1e-15, reltol=1e-15
                ),
            )

    def test_unsupported_monodromy_rule_raises(self, rc_lowpass):
        mna = rc_lowpass.compile()
        with pytest.raises(AnalysisError):
            shooting_periodic_steady_state(
                mna, 1e-3, options=ShootingOptions(integration_method="gear2")
            )


class TestShootingAsDifferencePeriodBaseline:
    """Shooting across one *difference-frequency* period — the paper's expensive baseline."""

    def test_two_tone_rc_difference_period(self):
        """A two-tone drive into an RC detector: PSS over Td recovers both tones."""
        f1, fd = 100e3, 5e3
        ckt = Circuit("two-tone rc")
        ckt.add(
            VoltageSource(
                "vin",
                "in",
                ckt.GROUND,
                SinusoidStimulus(0.5, f1) + SinusoidStimulus(0.5, f1 - fd),
            )
        )
        ckt.add(Resistor("r1", "in", "out", 1e3))
        ckt.add(Capacitor("c1", "out", ckt.GROUND, 1e-9))
        mna = ckt.compile()
        steps = int(20 * f1 / fd)  # >= 20 points per fast cycle over one slow period
        result = shooting_periodic_steady_state(
            mna, 1.0 / fd, options=ShootingOptions(steps_per_period=steps)
        )
        spectrum = compute_spectrum(result.waveform("out"), detrend=False)
        # Both carriers present; the linear RC generates no difference tone.
        assert spectrum.amplitude_at(f1, tolerance=fd) > 0.3
        assert spectrum.amplitude_at(f1 - fd, tolerance=fd / 2) > 0.3
        # Cost bookkeeping: this is what makes the baseline expensive.
        assert result.stats.total_time_steps >= steps


@pytest.mark.no_fault_injection
class TestShootingEvaluationEffort:
    """One device evaluation per distinct Newton iterate, with unchanged steps.

    The switching mixer at disparity 10 (20 steps per LO cycle, as in the
    speed-up benchmark) is small enough for tier-1 and strongly nonlinear.
    """

    steps = 200

    @pytest.fixture
    def mixer_mna(self):
        mixer = unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=200e3)
        mna = mixer.circuit.compile()
        return mna, mixer.scales.difference_period

    def test_one_evaluation_per_iterate(self, mixer_mna, evaluation_meter):
        mna, period = mixer_mna
        x0 = dc_operating_point(mna).x
        meter = evaluation_meter(mna)
        result = shooting_periodic_steady_state(
            mna, period, x0=x0, options=ShootingOptions(steps_per_period=self.steps)
        )
        stats = result.stats
        # One evaluation per accepted Newton iterate, one at the start of
        # each shooting sweep, and a little room for line-search trials.
        # Residual, Jacobian, monodromy and step history of an iterate share
        # one evaluation (they used to cost about five).
        assert meter.calls <= stats.newton_iterations + stats.shooting_iterations + 2
        assert stats.total_time_steps == 2 * self.steps

    def test_returned_steps_satisfy_step_equations(self, mixer_mna):
        mna, period = mixer_mna
        result = shooting_periodic_steady_state(
            mna, period, options=ShootingOptions(steps_per_period=self.steps)
        )
        h = period / self.steps
        q = np.array([mna.q(x) for x in result.states])
        g = np.array([mna.f(x) + mna.source(t) for x, t in zip(result.states, result.times)])
        # The first step is backward Euler, every later one trapezoidal:
        #   (q1 - q0)/h + f1 + b1 = 0
        #   2(q_{k+1} - q_k)/h + (f + b)_{k+1} + (f + b)_k = 0
        first = (q[1] - q[0]) / h + g[1]
        later = (2.0 / h) * (q[2:] - q[1:-1]) + g[2:] + g[1:-1]
        worst = max(np.max(np.abs(first)), np.max(np.abs(later)))
        assert worst <= NewtonOptions().abstol
