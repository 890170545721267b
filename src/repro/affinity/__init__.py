"""``repro.affinity`` — online adaptive remapping (closing the loop).

The paper computes a placement once at ``orwl_schedule()`` and shows it
stays put; this package adds the dynamic counterpart: estimate the live
communication matrix from simulator taps
(:mod:`~repro.affinity.telemetry`), detect phase changes with EWMA
smoothing + hysteresis + cooldown (:mod:`~repro.affinity.drift`), and
on a trigger re-run TreeMatch warm-started from the current placement,
rebinding only the threads that moved
(:mod:`~repro.affinity.controller`). Works on both the ORWL and OpenMP
runtimes and on both simulator cores.
"""

from repro.affinity.controller import (
    AdaptiveController,
    ControllerConfig,
    RemapDecision,
)
from repro.affinity.drift import DriftConfig, DriftDetector, drift_score
from repro.affinity.telemetry import WindowTelemetry

__all__ = [
    "AdaptiveController",
    "ControllerConfig",
    "RemapDecision",
    "DriftConfig",
    "DriftDetector",
    "drift_score",
    "WindowTelemetry",
]
