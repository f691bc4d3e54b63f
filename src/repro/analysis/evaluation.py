"""One device evaluation per distinct iterate for the single-point analyses.

The time-stepping analyses (transient, shooting) and the DC operating point
evaluate the circuit at one point (``P = 1``) at a time, and each Newton
iterate is needed several times over: its residual, its Jacobian, and — once
converged — the step history and the shooting monodromy.  One evaluation
returns ``q``, ``f`` *and* the Jacobians, so :class:`PointEvaluation` keeps
the last ``(x, MNAEvaluation)`` pair and re-evaluates only when ``x``
changes (bitwise).  Results are therefore bit-for-bit those of evaluating
afresh each time.

Every array of a handed-out evaluation is marked read-only: the same arrays
are returned to every caller that asks about the same ``x``, so an in-place
write by one caller would silently corrupt the others.
"""

from __future__ import annotations

import numpy as np

from ..circuits.mna import MNAEvaluation, MNASystem

__all__ = ["PointEvaluation"]


class PointEvaluation:
    """One-entry cache of :meth:`MNASystem.evaluate` at a single point.

    Parameters
    ----------
    mna:
        The compiled circuit.
    which:
        The Jacobian block(s) to compute, as in :meth:`MNASystem.evaluate`.
    """

    __slots__ = ("mna", "which", "_key", "_evaluation", "_has_jacobian")

    def __init__(self, mna: MNASystem, *, which: str = "both") -> None:
        self.mna = mna
        self.which = which
        self._key: bytes | None = None
        self._evaluation: MNAEvaluation | None = None
        self._has_jacobian = False

    def at(self, x: np.ndarray, *, jacobian: bool = False) -> MNAEvaluation:
        """The evaluation at the unknown vector ``x`` (shape ``(n,)``).

        With ``jacobian=True`` the result carries the Jacobian.  A cached
        residual-only evaluation does not satisfy such a request; a cached
        Jacobian evaluation satisfies either.  Full Newton needs the
        Jacobian at nearly every iterate whose residual it computes, and
        one evaluation with the Jacobian costs far less than two
        evaluations, so full-Newton residuals ask for it; chord-Newton
        residuals (whose Jacobian is a cached factorisation) do not.
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key == self._key and (self._has_jacobian or not jacobian):
            return self._evaluation
        evaluation = self.mna.evaluate(
            x.reshape(1, -1), need_jacobian=jacobian, which=self.which
        )
        for array in (evaluation.q, evaluation.f, evaluation.capacitance, evaluation.conductance):
            if array is not None:
                array.setflags(write=False)
        self._key = key
        self._evaluation = evaluation
        self._has_jacobian = jacobian
        return evaluation
