"""The paper's core contribution: sheared difference-frequency multi-time MPDE."""

from .diagonal import (
    diagonal_samples_per_period,
    reconstruct_diagonal,
    reconstruct_fast_cycles,
)
from .envelope import carrier_ripple, envelope_swing, extract_envelope, fast_slice_at_phase
from .grid import MultiTimeGrid
from .mpde import MPDEProblem
from .multitone_hb import TwoToneHBResult, two_tone_harmonic_balance
from .solver import GridLevel, MPDEResult, MPDESolver, MPDEStats, solve_mpde
from .timescales import (
    ShearedTimeScales,
    TimescaleBandwidths,
    UnshearedTimeScales,
    recommend_grid,
    verify_diagonal_property,
)

__all__ = [
    "ShearedTimeScales",
    "UnshearedTimeScales",
    "TimescaleBandwidths",
    "recommend_grid",
    "verify_diagonal_property",
    "MultiTimeGrid",
    "MPDEProblem",
    "MPDESolver",
    "MPDEResult",
    "MPDEStats",
    "GridLevel",
    "solve_mpde",
    "TwoToneHBResult",
    "two_tone_harmonic_balance",
    "extract_envelope",
    "fast_slice_at_phase",
    "carrier_ripple",
    "envelope_swing",
    "reconstruct_diagonal",
    "reconstruct_fast_cycles",
    "diagonal_samples_per_period",
]
