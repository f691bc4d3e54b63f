"""Unit tests for DC operating-point analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import dc_operating_point
from repro.circuits import Circuit
from repro.circuits.devices import (
    Diode,
    DiodeParams,
    MOSFETParams,
    NMOS,
    Resistor,
    VoltageSource,
)
from repro.resilience import inject_faults, singular_jacobian
from repro.signals import DCStimulus, SinusoidStimulus
from repro.utils import ConvergenceError, NewtonOptions


class TestLinearCircuits:
    def test_voltage_divider(self, voltage_divider):
        mna = voltage_divider.compile()
        solution = dc_operating_point(mna)
        assert solution.voltage(mna, "mid") == pytest.approx(5.0, rel=1e-9)
        assert solution.voltage(mna, "top") == pytest.approx(10.0, rel=1e-9)
        assert solution.strategy == "newton"

    def test_source_branch_current(self, voltage_divider):
        mna = voltage_divider.compile()
        solution = dc_operating_point(mna)
        # 10 V across 2 kOhm -> 5 mA; SPICE convention: current through the
        # source from + to - is negative when delivering power.
        assert solution.x[mna.branch_index("vin")] == pytest.approx(-5e-3, rel=1e-6)

    def test_sinusoidal_source_frozen_at_time(self, rc_lowpass):
        mna = rc_lowpass.compile()
        at_zero = dc_operating_point(mna, time=0.0)
        at_quarter = dc_operating_point(mna, time=0.25e-3)
        assert at_zero.voltage(mna, "in") == pytest.approx(1.0, rel=1e-9)
        assert at_quarter.voltage(mna, "in") == pytest.approx(0.0, abs=1e-9)

    def test_ladder_network(self):
        ckt = Circuit("ladder")
        ckt.add(VoltageSource("v1", "n0", ckt.GROUND, DCStimulus(1.0)))
        for k in range(5):
            ckt.add(Resistor(f"rs{k}", f"n{k}", f"n{k+1}", 1e3))
            ckt.add(Resistor(f"rp{k}", f"n{k+1}", ckt.GROUND, 1e3))
        mna = ckt.compile()
        solution = dc_operating_point(mna)
        voltages = [solution.voltage(mna, f"n{k}") for k in range(6)]
        assert voltages[0] == pytest.approx(1.0)
        assert all(voltages[k] > voltages[k + 1] for k in range(5))


class TestNonlinearCircuits:
    def test_diode_resistor(self):
        ckt = Circuit("diode bias")
        ckt.add(VoltageSource("v1", "a", ckt.GROUND, DCStimulus(5.0)))
        ckt.add(Resistor("r1", "a", "d", 1e3))
        ckt.add(Diode("d1", "d", ckt.GROUND, DiodeParams(saturation_current=1e-14)))
        mna = ckt.compile()
        solution = dc_operating_point(mna)
        vd = solution.voltage(mna, "d")
        # Forward drop of a silicon-like diode at a few mA.
        assert 0.6 < vd < 0.85
        # KCL: resistor current equals diode current.
        i_r = (5.0 - vd) / 1e3
        vt = DiodeParams().thermal_voltage
        i_d = 1e-14 * (np.exp(vd / vt) - 1.0)
        assert i_r == pytest.approx(i_d, rel=1e-5)

    def test_diode_stack_requires_continuation_friendly_solver(self):
        """A 3-diode stack from a zero guess exercises damping / continuation."""
        ckt = Circuit("diode stack")
        ckt.add(VoltageSource("v1", "n0", ckt.GROUND, DCStimulus(3.0)))
        ckt.add(Resistor("r1", "n0", "n1", 100.0))
        ckt.add(Diode("d1", "n1", "n2"))
        ckt.add(Diode("d2", "n2", "n3"))
        ckt.add(Diode("d3", "n3", ckt.GROUND))
        mna = ckt.compile()
        solution = dc_operating_point(mna)
        assert 1.8 < solution.voltage(mna, "n1") < 2.6
        assert solution.residual_norm < 1e-6

    def test_nmos_common_source_bias(self, nmos_amplifier):
        mna = nmos_amplifier.compile()
        solution = dc_operating_point(mna)
        vdrain = solution.voltage(mna, "drain")
        # With vgs = 1.0, vth = 0.6: id = 0.5*200u*20*(0.4^2) ~ 0.32 mA -> drop ~1.6 V.
        assert 0.5 < vdrain < 2.5

    def test_respects_initial_guess(self):
        ckt = Circuit("diode bias")
        ckt.add(VoltageSource("v1", "a", ckt.GROUND, DCStimulus(5.0)))
        ckt.add(Resistor("r1", "a", "d", 1e3))
        ckt.add(Diode("d1", "d", ckt.GROUND))
        mna = ckt.compile()
        reference = dc_operating_point(mna)
        warm = dc_operating_point(mna, x0=reference.x)
        assert warm.newton_iterations <= reference.newton_iterations
        np.testing.assert_allclose(warm.x, reference.x, rtol=1e-6, atol=1e-9)

    def test_failure_raises_convergence_error(self):
        """An impossibly tight iteration budget on a hard circuit must raise."""
        ckt = Circuit("hard")
        ckt.add(VoltageSource("v1", "n0", ckt.GROUND, DCStimulus(100.0)))
        ckt.add(Resistor("r1", "n0", "n1", 1.0))
        ckt.add(Diode("d1", "n1", ckt.GROUND))
        mna = ckt.compile()
        with pytest.raises(ConvergenceError):
            dc_operating_point(
                mna,
                newton_options=NewtonOptions(max_iterations=1, min_damping=1.0, damping=1.0),
            )

    @pytest.mark.no_fault_injection
    def test_forced_gmin_stepping_reaches_the_same_solution(self):
        """gmin stepping shares its evaluations between residual and Jacobian;
        adding the gmin diagonal must not write into them."""
        ckt = Circuit("diode stack")
        ckt.add(VoltageSource("v1", "n0", ckt.GROUND, DCStimulus(3.0)))
        ckt.add(Resistor("r1", "n0", "n1", 100.0))
        ckt.add(Diode("d1", "n1", "n2"))
        ckt.add(Diode("d2", "n2", "n3"))
        ckt.add(Diode("d3", "n3", ckt.GROUND))
        mna = ckt.compile()
        reference = dc_operating_point(mna)
        assert reference.strategy == "newton"
        # A singular first linear solve makes plain Newton give up.
        with inject_faults(singular_jacobian(site="newton.linear_solve", count=1)):
            forced = dc_operating_point(mna)
        assert forced.strategy == "gmin-stepping"
        options = NewtonOptions()
        tolerance = options.reltol * np.max(np.abs(reference.x)) + options.abstol
        np.testing.assert_allclose(forced.x, reference.x, rtol=0.0, atol=tolerance)
        assert forced.residual_norm <= options.abstol


class TestSolutionObject:
    def test_reports_iterations_and_residual(self, voltage_divider):
        solution = dc_operating_point(voltage_divider.compile())
        assert solution.newton_iterations >= 1
        assert solution.residual_norm < 1e-8
