"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Sub-hierarchies mirror the major subsystems (topology,
TreeMatch, simulator, ORWL runtime, OpenMP model).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InputError(ReproError, ValueError):
    """Malformed input value: a matrix, cpuset list or byte size.

    Also a :class:`ValueError`, so callers written against the builtin
    keep catching it.
    """


class TopologyError(ReproError):
    """Malformed or inconsistent hardware topology description."""


class BindingError(TopologyError):
    """Invalid CPU binding request (empty cpuset, unknown PU, ...)."""


class MappingError(ReproError):
    """TreeMatch failed to produce a placement (bad matrix/tree sizes)."""


class MatrixError(InputError, MappingError):
    """Malformed communication or affinity matrix: not square 2-D, or an
    entry that is non-finite or negative.

    Raised alike by the dense and the CSR backend, so it is both an
    :class:`InputError` and a :class:`MappingError`.
    """


class SimulationError(ReproError):
    """Discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No runnable thread and pending events cannot make progress."""


class InvariantViolation(SimulationError):
    """A checked-mode (REPRO_SANITIZE) simulator invariant failed."""


class ORWLError(ReproError):
    """Misuse of the ORWL programming model."""


class HandleStateError(ORWLError):
    """An ORWL handle was used in a state that does not permit the call."""


class ScheduleError(ORWLError):
    """orwl_schedule()-time validation failed."""


class OpenMPError(ReproError):
    """Misuse of the OpenMP-like fork/join runtime model."""


class AffinityError(ReproError):
    """Misuse or misconfiguration of the adaptive remapping controller."""
