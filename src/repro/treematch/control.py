"""Control-thread handling (Algorithm 1, line 1).

ORWL deploys control threads alongside compute threads to manage location
FIFOs and data transfer. The paper's policy, in priority order:

1. **Hyperthreading available** — compute threads get one PU per physical
   core; the sibling PU of each core is reserved for the control threads
   of the tasks placed there.
2. **Spare cores** (more leaves than compute threads) — the communication
   matrix is extended with control pseudo-threads (tiny affinity towards
   their owning task) so TreeMatch places them on the spare leaves.
3. **Neither** — control threads stay unbound and the OS schedules them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.util.matrix import check_square

__all__ = ["ControlPlan", "extend_for_control_threads", "CONTROL_EPSILON"]

#: Relative weight of control↔task affinity edges; small enough never to
#: perturb the grouping of compute threads, large enough to pull a control
#: pseudo-thread towards its owner when slots allow.
CONTROL_EPSILON = 1e-6


@dataclass(frozen=True)
class ControlPlan:
    """How control threads will be handled for one mapping run.

    ``mode`` is one of ``"ht-sibling"``, ``"spare-core"`` or ``"os"``;
    ``slots`` is the number of control pseudo-threads appended to the
    matrix (only in spare-core mode).
    """

    mode: str
    slots: int = 0


def extend_for_control_threads(
    m: np.ndarray,
    n_control: int,
    n_leaves: int,
    *,
    hyperthreading: bool,
    control_owners: list[int] | None = None,
) -> tuple[np.ndarray, ControlPlan]:
    """Return the (possibly extended) affinity matrix and the control plan.

    *m* is the compute-thread affinity matrix (symmetric). *n_leaves* is
    the number of compute-granularity leaves of the tree (cores when
    hyperthread-aware, PUs otherwise). *m* is validated here; the
    mapping pipeline calls :func:`_control_plan` and
    :func:`_write_control_edges` directly on the buffer it built itself.
    """
    a = check_square(m, name="affinity matrix")
    p = a.shape[0]
    plan = _control_plan(p, n_control, n_leaves, hyperthreading=hyperthreading)
    if not plan.slots:
        return a, plan
    ext = np.zeros((p + plan.slots, p + plan.slots))
    ext[:p, :p] = a
    _write_control_edges(ext, p, plan.slots, control_owners)
    return ext, plan


def _control_plan(
    p: int, n_control: int, n_leaves: int, *, hyperthreading: bool
) -> ControlPlan:
    """The control plan for *p* compute threads on *n_leaves* leaves."""
    if n_control < 0:
        raise MappingError(f"n_control must be >= 0, got {n_control}")
    if n_control == 0:
        return ControlPlan("os", 0)
    if hyperthreading:
        # Sibling PUs absorb control threads; the matrix is unchanged
        # because compute mapping happens at core granularity.
        return ControlPlan("ht-sibling", 0)
    spare = n_leaves - p
    if spare <= 0:
        return ControlPlan("os", 0)
    return ControlPlan("spare-core", min(spare, n_control))


def _write_control_edges(
    out: np.ndarray, p: int, slots: int, control_owners: list[int] | None
) -> None:
    """Write the *slots* control pseudo-threads' edges into *out*.

    ``out[:p, :p]`` holds the trusted compute affinity; pseudo-thread
    *s* is row and column ``p + s``, tied to its owner by a weight of
    ``CONTROL_EPSILON`` times the largest compute affinity.
    """
    owners = control_owners if control_owners is not None else [
        i % p for i in range(slots)
    ]
    if len(owners) < slots:
        raise MappingError(
            f"{len(owners)} control owners for {slots} control slots"
        )
    top = float(out[:p, :p].max()) if p else 0.0
    scale = top if top > 0 else 1.0
    eps = CONTROL_EPSILON * scale
    for s in range(slots):
        owner = owners[s]
        if not 0 <= owner < p:
            raise MappingError(f"control owner {owner} outside [0, {p})")
        out[p + s, owner] = out[owner, p + s] = eps
