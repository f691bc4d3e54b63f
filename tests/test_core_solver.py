"""Tests for the MPDE solver and its result object (the paper's core method)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dc import dc_operating_point
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Resistor, VoltageSource
from repro.core import MPDEProblem, MPDESolver, ShearedTimeScales, solve_mpde
from repro.core import solver as solver_module
from repro.core.grid import periodic_prolongation
from repro.linalg.sparse import sparse_lu
from repro.rf import (
    balanced_lo_doubling_mixer,
    difference_tone_amplitude,
    ideal_multiplier_mixer,
    unbalanced_switching_mixer,
)
from repro.scenarios import build_scenario_smoke
from repro.signals import ModulatedCarrierStimulus, SinusoidStimulus, SumStimulus, TonePair
from repro.signals.spectrum import fourier_coefficient
from repro.utils import ConvergenceError, MPDEError, MPDEOptions, NewtonOptions


class TestLinearTwoToneRC:
    """The linear two-tone RC filter has a closed-form quasi-periodic solution."""

    f_fast = 1e6
    f_diff = 10e3
    r = 1e3
    c = 50e-9

    def _solve(self, n_fast=16, n_slow=16, fast_method="fourier", slow_method="fourier"):
        scales = ShearedTimeScales.from_frequencies(self.f_fast, self.f_fast - self.f_diff)
        ckt = Circuit("two-tone rc")
        drive = SumStimulus(
            (
                SinusoidStimulus(1.0, self.f_fast),
                ModulatedCarrierStimulus(0.5, scales.carrier_frequency),
            )
        )
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, drive))
        ckt.add(Resistor("r1", "in", "out", self.r))
        ckt.add(Capacitor("c1", "out", ckt.GROUND, self.c))
        mna = ckt.compile()
        options = MPDEOptions(
            n_fast=n_fast, n_slow=n_slow, fast_method=fast_method, slow_method=slow_method
        )
        return mna, scales, solve_mpde(mna, scales, options)

    def test_surface_matches_analytic_solution(self):
        mna, scales, result = self._solve()
        surface = result.bivariate("out")
        t1, t2 = result.grid.mesh

        def transfer(freq):
            h = 1.0 / (1.0 + 2j * np.pi * freq * self.r * self.c)
            return abs(h), np.angle(h)

        mag1, ph1 = transfer(self.f_fast)
        mag2, ph2 = transfer(scales.carrier_frequency)
        expected = mag1 * np.cos(2 * np.pi * scales.fast_phase(t1) + ph1) + 0.5 * mag2 * np.cos(
            2 * np.pi * scales.carrier_phase(t1, t2) + ph2
        )
        np.testing.assert_allclose(
            surface.values, result.grid.reshape_to_grid(expected), atol=2e-6
        )

    def test_linear_circuit_converges_in_few_iterations(self):
        _, _, result = self._solve()
        assert result.stats.converged
        assert result.stats.newton_iterations <= 3
        assert not result.stats.used_continuation

    def test_diagonal_matches_direct_time_domain(self):
        """x(t) = x_hat(t, t) reproduces the steady-state superposition."""
        mna, scales, result = self._solve(n_fast=32, n_slow=32)
        times = np.linspace(0.0, 2e-6, 300)
        diag = result.diagonal_waveform("out", t_start=0.0, t_stop=2e-6, n_samples=300)

        def transfer(freq):
            h = 1.0 / (1.0 + 2j * np.pi * freq * self.r * self.c)
            return abs(h), np.angle(h)

        mag1, ph1 = transfer(self.f_fast)
        mag2, ph2 = transfer(scales.carrier_frequency)
        expected = mag1 * np.cos(2 * np.pi * self.f_fast * times + ph1) + 0.5 * mag2 * np.cos(
            2 * np.pi * scales.carrier_frequency * times + ph2
        )
        # Bilinear interpolation of the coarse grid limits the accuracy here.
        assert np.max(np.abs(diag.values - expected)) < 0.05

    def test_bdf2_and_fourier_agree_on_smooth_problem(self):
        _, scales, spectral = self._solve()
        _, _, fd = self._solve(n_fast=48, n_slow=48, fast_method="bdf2", slow_method="bdf2")
        env_spectral = spectral.baseband_envelope("out")
        env_fd = fd.baseband_envelope("out")
        a_spectral = 2 * abs(fourier_coefficient(env_spectral, self.f_diff))
        a_fd = 2 * abs(fourier_coefficient(env_fd, self.f_diff))
        # A linear circuit produces no difference tone; both must agree on ~0.
        assert a_spectral == pytest.approx(a_fd, abs=1e-3)

    def test_stats_record_problem_size(self):
        _, _, result = self._solve(n_fast=16, n_slow=12)
        assert result.stats.n_grid_points == 16 * 12
        assert result.stats.n_total_unknowns == 16 * 12 * 3
        assert result.stats.wall_time_seconds > 0.0


class TestIdealMultiplierMixer:
    """End-to-end check against the closed-form ideal mixing result of Section 2."""

    def test_difference_tone_amplitude_matches_closed_form(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        result = solve_mpde(mix.compile(), mix.scales, MPDEOptions(n_fast=24, n_slow=24))
        envelope = result.baseband_envelope(mix.output_pos)
        fd = mix.scales.difference_frequency
        measured = 2 * abs(fourier_coefficient(envelope, fd))
        pair = TonePair.from_frequencies(mix.lo_frequency, mix.rf_frequency)
        # Output voltage = R * gain * v_lo * v_rf; difference tone = R*gain*A1*A2/2.
        expected = 1e3 * 1e-3 * difference_tone_amplitude(pair)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_full_paper_frequencies_are_feasible(self):
        """The actual 1 GHz / 10 kHz spacing of Section 2 runs in a small grid."""
        mix = ideal_multiplier_mixer()  # 1 GHz LO, 10 kHz difference
        result = solve_mpde(mix.compile(), mix.scales, MPDEOptions(n_fast=16, n_slow=16))
        envelope = result.baseband_envelope("out")
        measured = 2 * abs(fourier_coefficient(envelope, 10e3))
        assert measured == pytest.approx(0.5, rel=0.02)
        assert result.scales.disparity == pytest.approx(1e5)


class TestSolverControls:
    def test_accepts_single_state_initial_guess(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        mna = mix.compile()
        x0 = np.zeros(mna.n_unknowns)
        result = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=12, n_slow=12), x0=x0)
        assert result.stats.converged

    def test_rejects_bad_initial_guess_size(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        mna = mix.compile()
        with pytest.raises(MPDEError):
            solve_mpde(mna, mix.scales, MPDEOptions(n_fast=12, n_slow=12), x0=np.zeros(17))

    @pytest.mark.parametrize("guess", ["zero", "dc", "transient"])
    def test_initial_guess_modes(self, scaled_ideal_mixer, guess):
        mix = scaled_ideal_mixer
        options = MPDEOptions(n_fast=12, n_slow=12, initial_guess=guess)
        result = solve_mpde(mix.compile(), mix.scales, options)
        assert result.stats.converged

    def test_gmres_linear_solver(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        options = MPDEOptions(n_fast=12, n_slow=12, linear_solver="gmres")
        result = solve_mpde(mix.compile(), mix.scales, options)
        assert result.stats.converged

    def test_failure_without_continuation_raises(self, scaled_switching_mixer):
        mix = scaled_switching_mixer
        options = MPDEOptions(
            n_fast=16,
            n_slow=12,
            use_continuation=False,
            initial_guess="zero",
            newton=NewtonOptions(max_iterations=1),
        )
        with pytest.raises(ConvergenceError):
            solve_mpde(mix.compile(), mix.scales, options)

    def test_continuation_fallback_recovers(self, scaled_switching_mixer):
        """With a tiny Newton budget the solver falls back to source stepping and still converges."""
        mix = scaled_switching_mixer
        options = MPDEOptions(
            n_fast=16,
            n_slow=12,
            use_continuation=True,
            initial_guess="dc",
            newton=NewtonOptions(max_iterations=6),
        )
        result = solve_mpde(mix.compile(), mix.scales, options)
        assert result.stats.converged
        assert result.stats.used_continuation
        assert result.stats.continuation_steps >= 1


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def switching_result(self):
        mix = unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=50e3)
        return mix, solve_mpde(mix.compile(), mix.scales, MPDEOptions(n_fast=24, n_slow=16))

    def test_state_grid_shape(self, switching_result):
        mix, result = switching_result
        n = mix.compile().n_unknowns
        assert result.state_grid().shape == (24, 16, n)

    def test_bivariate_surface_periods(self, switching_result):
        mix, result = switching_result
        surface = result.bivariate("out")
        assert surface.period1 == pytest.approx(mix.scales.fast_period)
        assert surface.period2 == pytest.approx(mix.scales.difference_period)

    def test_differential_surface_is_difference_of_nodes(self, switching_result):
        _, result = switching_result
        diff = result.bivariate_differential("in", "out")
        np.testing.assert_allclose(
            diff.values, result.bivariate("in").values - result.bivariate("out").values
        )

    def test_envelope_modes(self, switching_result):
        _, result = switching_result
        mean = result.baseband_envelope("out", mode="mean")
        upper = result.baseband_envelope("out", mode="max")
        lower = result.baseband_envelope("out", mode="min")
        assert np.all(upper.values >= mean.values - 1e-12)
        assert np.all(lower.values <= mean.values + 1e-12)
        with pytest.raises(MPDEError):
            result.baseband_envelope("out", mode="median")

    def test_diagonal_waveform_defaults_to_one_slow_period(self, switching_result):
        mix, result = switching_result
        diag = result.diagonal_waveform("out", n_samples=501)
        assert diag.duration == pytest.approx(mix.scales.difference_period)

    def test_diagonal_waveform_validates_span(self, switching_result):
        _, result = switching_result
        with pytest.raises(MPDEError):
            result.diagonal_waveform("out", t_start=1.0, t_stop=0.5)


class TestGridSequencedStart:
    """A solve that builds its own start first solves coarser grids."""

    @pytest.fixture(scope="class")
    def paper_mixer(self):
        mixer = balanced_lo_doubling_mixer(450e6, 15e3)
        mna = mixer.circuit.compile()
        return mixer, mna, dc_operating_point(mna).x

    @pytest.fixture(scope="class")
    def paper_plain(self, paper_mixer):
        mixer, mna, x_dc = paper_mixer
        return solve_mpde(mna, mixer.scales, x0=x_dc)

    @staticmethod
    def _assert_agree(sequenced, plain, newton):
        scale = float(np.max(np.abs(plain.states)))
        difference = float(np.max(np.abs(sequenced.states - plain.states)))
        assert difference <= newton.reltol * scale + newton.abstol

    def test_paper_mixer_agrees_with_plain_start(self, paper_mixer, paper_plain):
        mixer, mna, _ = paper_mixer
        sequenced = solve_mpde(mna, mixer.scales)
        grids = [(level.n_fast, level.n_slow) for level in sequenced.stats.grid_levels]
        assert grids == [(10, 8), (20, 15), (40, 30)]
        assert all(level.converged for level in sequenced.stats.grid_levels)
        self._assert_agree(sequenced, paper_plain, MPDEOptions().newton)

    def test_bpsk_smoke_agrees_with_plain_start(self):
        case = build_scenario_smoke("bpsk_mixer").cases[0]
        mna = case.circuit.compile()
        options = MPDEOptions(n_fast=case.grid[0], n_slow=case.grid[1])
        assert options.n_fast * options.n_slow >= 600
        sequenced = solve_mpde(mna, case.scales, options)
        plain = solve_mpde(mna, case.scales, options, x0=dc_operating_point(mna).x)
        assert len(sequenced.stats.grid_levels) > 1
        self._assert_agree(sequenced, plain, options.newton)

    def test_harmonic_balance_grid_agrees_with_plain_start(self):
        mixer = unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=50e3)
        mna = mixer.compile()
        options = MPDEOptions(
            n_fast=30, n_slow=20, fast_method="fourier", slow_method="fourier"
        )
        sequenced = solve_mpde(mna, mixer.scales, options)
        plain = solve_mpde(mna, mixer.scales, options, x0=dc_operating_point(mna).x)
        grids = [(level.n_fast, level.n_slow) for level in sequenced.stats.grid_levels]
        assert grids == [(15, 10), (30, 20)]
        self._assert_agree(sequenced, plain, options.newton)

    @pytest.mark.no_fault_injection
    def test_failed_coarse_level_falls_back_to_plain_start(
        self, paper_mixer, paper_plain, monkeypatch
    ):
        mixer, mna, _ = paper_mixer
        monkeypatch.setattr(solver_module, "_COARSE_NEWTON_BUDGET", 1)
        result = solve_mpde(mna, mixer.scales)
        levels = result.stats.grid_levels
        assert [(level.n_fast, level.n_slow, level.converged) for level in levels] == [
            (10, 8, False),
            (40, 30, True),
        ]
        assert np.array_equal(result.states, paper_plain.states)
        assert levels[-1].newton_iterations == paper_plain.stats.newton_iterations
        assert result.stats.newton_iterations == sum(l.newton_iterations for l in levels)

    def test_explicit_start_skips_sequencing(self, paper_mixer, paper_plain, tmp_path):
        assert [(l.n_fast, l.n_slow) for l in paper_plain.stats.grid_levels] == [(40, 30)]
        mixer, mna, _ = paper_mixer
        path = tmp_path / "paper.npz"
        solve_mpde(mna, mixer.scales, checkpoint_path=path)
        resumed = solve_mpde(mna, mixer.scales, resume_from=path)
        assert [(l.n_fast, l.n_slow) for l in resumed.stats.grid_levels] == [(40, 30)]

    def test_small_grids_are_not_sequenced(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        result = solve_mpde(mix.compile(), mix.scales, MPDEOptions(n_fast=24, n_slow=24))
        assert [(l.n_fast, l.n_slow) for l in result.stats.grid_levels] == [(24, 24)]

    @pytest.mark.no_fault_injection
    def test_paper_grid_count_budget(self, paper_mixer):
        mixer, mna, _ = paper_mixer
        stats = solve_mpde(mna, mixer.scales).stats
        requested = stats.grid_levels[-1]
        assert (requested.n_fast, requested.n_slow) == (40, 30)
        assert requested.jacobian_factorizations <= 2
        assert requested.newton_iterations <= 6
        assert stats.newton_iterations == sum(l.newton_iterations for l in stats.grid_levels)
        buckets = stats.eval_time_s + stats.factorization_time_s
        assert buckets <= stats.wall_time_seconds

    def test_threshold_pivoted_lu_solves_paper_jacobian(self, paper_mixer):
        mixer, mna, x_dc = paper_mixer
        problem = MPDEProblem(mna, mixer.scales, MPDEOptions())
        jacobian = problem.jacobian(problem.initial_guess_from_state(x_dc))
        rhs = np.random.default_rng(7).standard_normal(jacobian.shape[0])
        solution = sparse_lu(jacobian).solve(rhs)
        residual = np.linalg.norm(jacobian @ solution - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-12


class TestPeriodicProlongation:
    def test_same_grid_is_identity(self):
        values = np.random.default_rng(3).standard_normal((6, 5, 2))
        np.testing.assert_allclose(periodic_prolongation(values, 6, 5), values, rtol=0, atol=1e-15)

    def test_linear_interpolation_wraps_around(self):
        values = np.arange(4.0)[:, None, None] * np.ones((1, 3, 1))
        fine = periodic_prolongation(values, 8, 3)
        np.testing.assert_allclose(fine[:, 0, 0], [0, 0.5, 1, 1.5, 2, 2.5, 3, 1.5])
        np.testing.assert_allclose(fine[:, 1, 0], fine[:, 0, 0])
