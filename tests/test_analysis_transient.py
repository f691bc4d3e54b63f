"""Unit and integration tests for transient (time-stepping) analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_transient
from repro.analysis.evaluation import PointEvaluation
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Inductor, Resistor, VoltageSource
from repro.signals import DCStimulus, SinusoidStimulus
from repro.utils import AnalysisError, TransientOptions


class TestRCStepResponse:
    """R = 1 kOhm, C = 1 uF charging toward 1 V: v(t) = 1 - exp(-t/RC)."""

    tau = 1e-3

    def _run(self, rc_lowpass_step, method, dt, **kwargs):
        mna = rc_lowpass_step.compile()
        options = TransientOptions(method=method, **kwargs)
        result = run_transient(
            mna, t_stop=5 * self.tau, dt=dt, use_dc_initial=False, options=options
        )
        return result.waveform("out")

    @pytest.mark.parametrize("method, tol", [("backward-euler", 0.03), ("trapezoidal", 0.002), ("gear2", 0.005)])
    def test_matches_analytic_solution(self, rc_lowpass_step, method, tol):
        wave = self._run(rc_lowpass_step, method, dt=self.tau / 50)
        expected = 1.0 - np.exp(-wave.times / self.tau)
        assert np.max(np.abs(wave.values - expected)) < tol

    def test_trapezoidal_is_second_order(self, rc_lowpass_step):
        errors = []
        for dt in (self.tau / 20, self.tau / 40):
            wave = self._run(rc_lowpass_step, "trapezoidal", dt=dt)
            expected = 1.0 - np.exp(-wave.times / self.tau)
            errors.append(np.max(np.abs(wave.values - expected)))
        assert errors[1] / errors[0] == pytest.approx(0.25, rel=0.35)

    def test_final_value_reaches_steady_state(self, rc_lowpass_step):
        wave = self._run(rc_lowpass_step, "trapezoidal", dt=self.tau / 20)
        assert wave.values[-1] == pytest.approx(1.0, abs=0.01)

    def test_adaptive_stepping_takes_fewer_steps(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        fixed = run_transient(
            mna,
            t_stop=5 * self.tau,
            dt=self.tau / 200,
            use_dc_initial=False,
            options=TransientOptions(method="trapezoidal"),
        )
        adaptive = run_transient(
            mna,
            t_stop=5 * self.tau,
            dt=self.tau / 200,
            use_dc_initial=False,
            options=TransientOptions(method="trapezoidal", adaptive=True, ltetol=1e-3),
        )
        assert adaptive.stats.accepted_steps < fixed.stats.accepted_steps
        # Still accurate.
        expected = 1.0 - np.exp(-adaptive.times / self.tau)
        observed = np.asarray(adaptive.waveform("out").values)
        assert np.max(np.abs(observed - expected)) < 0.02


class TestDrivenRC:
    def test_sinusoidal_steady_state_amplitude(self, rc_lowpass):
        """After several periods the output amplitude matches the RC divider."""
        mna = rc_lowpass.compile()
        freq = 1e3
        rc = 1e3 * 100e-9
        result = run_transient(
            mna,
            t_stop=8 / freq,
            dt=1 / freq / 200,
            options=TransientOptions(method="trapezoidal"),
        )
        wave = result.waveform("out").window(6 / freq, 8 / freq)
        expected_amplitude = 1.0 / np.sqrt(1.0 + (2 * np.pi * freq * rc) ** 2)
        assert wave.amplitude() == pytest.approx(expected_amplitude, rel=0.02)


class TestRLC:
    def test_lc_resonance_ringing_frequency(self):
        """An underdamped series RLC rings at ~f0 = 1/(2 pi sqrt(LC))."""
        ckt = Circuit("rlc step")
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, DCStimulus(1.0)))
        ckt.add(Resistor("r1", "in", "a", 10.0))
        ckt.add(Inductor("l1", "a", "b", 1e-3))
        ckt.add(Capacitor("c1", "b", ckt.GROUND, 1e-6))
        mna = ckt.compile()
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-3 * 1e-6))
        result = run_transient(
            mna,
            t_stop=6 / f0,
            dt=1 / f0 / 100,
            use_dc_initial=False,
            options=TransientOptions(method="trapezoidal"),
        )
        from repro.signals import compute_spectrum

        wave = result.waveform("b")
        spectrum = compute_spectrum(wave, detrend=True)
        assert spectrum.dominant_frequency() == pytest.approx(f0, rel=0.05)

    def test_inductor_current_is_tracked(self):
        ckt = Circuit("rl")
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, DCStimulus(1.0)))
        ckt.add(Resistor("r1", "in", "a", 100.0))
        ckt.add(Inductor("l1", "a", ckt.GROUND, 10e-3))
        mna = ckt.compile()
        tau = 10e-3 / 100.0
        result = run_transient(
            mna,
            t_stop=5 * tau,
            dt=tau / 100,
            use_dc_initial=False,
            options=TransientOptions(method="trapezoidal"),
        )
        i_l = result.states[:, mna.branch_index("l1")]
        expected = (1.0 / 100.0) * (1.0 - np.exp(-result.times / tau))
        assert np.max(np.abs(i_l - expected)) < 5e-4


class TestTransientOptionsAndErrors:
    def test_invalid_time_span(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        with pytest.raises(AnalysisError):
            run_transient(mna, t_stop=0.0, dt=1e-6)
        with pytest.raises(AnalysisError):
            run_transient(mna, t_stop=1e-3, dt=-1e-6)

    def test_bad_initial_state_shape(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        with pytest.raises(AnalysisError):
            run_transient(mna, t_stop=1e-3, dt=1e-5, x0=np.zeros(99))

    def test_store_every_thins_output(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        dense = run_transient(mna, t_stop=1e-3, dt=1e-5)
        thin = run_transient(
            mna, t_stop=1e-3, dt=1e-5, options=TransientOptions(store_every=10)
        )
        assert len(thin.times) < len(dense.times)
        assert thin.times[-1] == pytest.approx(dense.times[-1])

    def test_dc_initial_condition_removes_startup_transient(self, voltage_divider):
        mna = voltage_divider.compile()
        result = run_transient(mna, t_stop=1e-3, dt=1e-4)
        mid = result.waveform("mid")
        np.testing.assert_allclose(mid.values, 5.0, rtol=1e-6)

    def test_stats_are_populated(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        result = run_transient(mna, t_stop=1e-3, dt=1e-5, use_dc_initial=False)
        assert result.stats.accepted_steps == pytest.approx(100, abs=2)
        assert result.stats.newton_iterations >= result.stats.accepted_steps

    def test_final_state_accessor(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        result = run_transient(mna, t_stop=1e-3, dt=1e-5)
        np.testing.assert_allclose(result.final_state(), result.states[-1])

    def test_differential_waveform(self, voltage_divider):
        mna = voltage_divider.compile()
        result = run_transient(mna, t_stop=1e-4, dt=1e-5)
        diff = result.differential_waveform("top", "mid")
        np.testing.assert_allclose(diff.values, 5.0, rtol=1e-6)


@pytest.mark.no_fault_injection
class TestTransientEvaluationEffort:
    """The time-stepping loop evaluates devices once per distinct iterate."""

    def test_full_newton_one_evaluation_per_iterate(self, diode_rectifier, evaluation_meter):
        mna = diode_rectifier.compile()
        meter = evaluation_meter(mna)
        result = run_transient(mna, t_stop=2e-3, dt=1e-5, use_dc_initial=False)
        # The initial state's evaluation plus one per Newton iterate (with a
        # little room for line-search trials); the accepted state's history
        # and the next step's first residual reuse the last one.
        assert meter.calls <= result.stats.newton_iterations + 2

    def test_chord_newton_stays_residual_only(self, rc_lowpass, evaluation_meter):
        """A linear circuit never leaves the chord iteration: no Jacobian is built
        except through the factorisations."""
        mna = rc_lowpass.compile()
        meter = evaluation_meter(mna)
        result = run_transient(
            mna,
            t_stop=2e-3,
            dt=1e-5,
            use_dc_initial=False,
            options=TransientOptions(chord_newton=True),
        )
        assert result.stats.jacobian_refactorisations >= 1
        assert meter.jacobian_calls == result.stats.jacobian_refactorisations


class TestPointEvaluation:
    def test_handed_out_arrays_are_read_only(self, diode_rectifier):
        mna = diode_rectifier.compile()
        evaluation = PointEvaluation(mna).at(np.full(mna.n_unknowns, 0.3), jacobian=True)
        for array in (evaluation.q, evaluation.f, evaluation.capacitance, evaluation.conductance):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] += 1.0

    def test_reevaluates_only_when_x_changes(self, diode_rectifier, evaluation_meter):
        mna = diode_rectifier.compile()
        meter = evaluation_meter(mna)
        point = PointEvaluation(mna)
        x = np.full(mna.n_unknowns, 0.3)
        residual_only = point.at(x)
        assert residual_only.conductance is None
        assert point.at(x.copy()) is residual_only
        with_jacobian = point.at(x, jacobian=True)
        assert with_jacobian.conductance is not None
        assert point.at(x) is with_jacobian
        assert meter.calls == 2
        moved = point.at(x + 1e-3, jacobian=True)
        assert meter.calls == 3
        reference = mna.evaluate((x + 1e-3).reshape(1, -1))
        np.testing.assert_array_equal(moved.f, reference.f)
        np.testing.assert_array_equal(moved.conductance, reference.conductance)
