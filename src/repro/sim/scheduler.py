"""OS scheduler models for the simulated machine.

Bound threads (a cpuset from the affinity module or a baseline strategy)
only ever run inside their cpuset — zero migrations for singleton sets,
like a real `pthread_setaffinity`. Unbound threads are placed by one of
two policies reproducing the behaviours the paper observed on its
testbeds (Sec. VI-B.1):

``consolidate`` (Linux 3.10 / SMP12E5)
    prefer the lowest-numbered free PU — packs threads onto few NUMA
    nodes *including hyperthread siblings*.
``spread`` (Linux 2.6.32 / SMP20E7)
    prefer a free PU on the NUMA node currently running the fewest
    threads — spreads work over all nodes regardless of affinity.

Unbound threads are also periodically *rebalanced*: every
``rebalance_slices`` quanta their placement is recomputed from scratch,
which is what generates CPU migrations (and the cache-cold penalties that
follow them) in the native, non-affinity runs.

Occupancy is kept as bitmasks (bit ``p`` set ⇔ PU ``p`` free) so that
no placement scans the PU list:

* ``_free`` — every free PU of the machine, updated at every
  occupy/release next to ``_node_load[n]``, the number of busy PUs on
  NUMA node ``n``;
* ``_node_pus[n]`` — every PU of node ``n`` (fixed), so the free PUs of
  a node are one AND: ``_free & _node_pus[n]``;
* ``_load_free[L]`` — the free PUs of every node whose load is ``L``.
  Only ``spread`` reads it, so it is built from the two above at the
  first spread decision and kept up to date from then on; until then
  (bound-only runs, ``consolidate`` machines) it is ``None`` and an
  occupy/release pays for ``_free`` alone.

Each decision is then a few integer operations: a bound thread takes the
lowest set bit of ``cpuset & _free``; ``consolidate`` takes the lowest
bit of ``_free``; a consolidating fork takes the lowest bit of the first
node with a free PU; ``spread`` takes the lowest bit of the first
non-empty ``_load_free`` level — the least-loaded node with a free PU,
ties to the lowest PU. The lowest set bit is the lowest os_index, so the
choices equal those of a min over the ascending PU list, and the RNG is
drawn at the same points and the same number of times as that scan.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.memory import MemorySystem
from repro.sim.process import SimThread
from repro.topology.tree import Topology
from repro.util.bitmap import Bitmap

__all__ = ["OSScheduler"]


class OSScheduler:
    """Chooses a PU for each ready thread; tracks per-node load."""

    POLICIES = ("consolidate", "spread")

    def __init__(
        self,
        topology: Topology,
        memory: MemorySystem,
        *,
        policy: str | None = None,
        rng=None,
        migrate_prob: float = 0.0,
        wakeup_migrate_prob: float = 0.0,
    ) -> None:
        policy = policy or str(topology.root.attrs.get("os_policy", "consolidate"))
        if policy not in self.POLICIES:
            raise SimulationError(
                f"unknown OS policy {policy!r}; known: {self.POLICIES}"
            )
        self.policy = policy
        self.topology = topology
        self.memory = memory
        self._rng = rng
        self.migrate_prob = migrate_prob
        self.wakeup_migrate_prob = wakeup_migrate_prob
        self._all_pus = [pu.os_index for pu in topology.pus]
        #: Observers called as ``hook(pu, thread)`` on every occupation —
        #: lets the dynamic analyzer watch placements and migrations as
        #: they happen (see repro.analyze.dynamic). Served on both
        #: simulator cores: the object path calls the hooks from
        #: :meth:`occupy`, the batched core from its inlined start_on at
        #: the same point (busy map updated, transition not yet traced).
        self.on_place: list = []
        self._busy: dict[int, SimThread | None] = {p: None for p in self._all_pus}
        #: Dense PU → NUMA node column (``None`` for os_index holes).
        self._pu_node = memory.pu_numa_list()
        n_nodes = len(topology.numa_nodes)
        self._node_load = [0] * n_nodes
        self._node_pus = [0] * n_nodes
        for p in self._all_pus:
            node = self._pu_node[p] if p < len(self._pu_node) else None
            if node is None:
                raise SimulationError(f"PU {p} has no NUMA node")
            self._node_pus[node] |= 1 << p
        self._free = sum(self._node_pus)
        self._load_free: list[int] | None = None

    # -- occupancy bookkeeping (machine calls these) -----------------------------
    #
    # The batched and SoA cores inline these two updates in their
    # start_on/release_pu closures; all three copies change the busy
    # map, the load counts and the masks at the same point. They read
    # ``_load_free`` on every call: a placement may build it mid-run.

    def occupy(self, pu: int, thread: SimThread) -> None:
        if self._busy[pu] is not None:
            raise SimulationError(f"PU {pu} already busy")
        self._busy[pu] = thread
        node = self._pu_node[pu]
        self._node_load[node] += 1
        free = self._free
        self._free = free ^ (1 << pu)
        levels = self._load_free
        if levels is not None:
            mine = free & self._node_pus[node]
            load = self._node_load[node]
            levels[load - 1] ^= mine
            levels[load] |= mine ^ (1 << pu)
        # Guarded: occupy sits on the hot wakeup path, and the on_place
        # tap exists only for repro.analyze.dynamic runs.
        if self.on_place:
            for hook in self.on_place:
                hook(pu, thread)

    def release(self, pu: int) -> None:
        if self._busy[pu] is None:
            raise SimulationError(f"PU {pu} is not busy")
        self._busy[pu] = None
        node = self._pu_node[pu]
        self._node_load[node] -= 1
        free = self._free
        self._free = free | (1 << pu)
        levels = self._load_free
        if levels is not None:
            mine = free & self._node_pus[node]
            load = self._node_load[node]
            levels[load + 1] ^= mine
            levels[load] |= mine | (1 << pu)

    def thread_on(self, pu: int) -> SimThread | None:
        return self._busy.get(pu)

    def is_free(self, pu: int) -> bool:
        return self._busy[pu] is None

    @property
    def free_pus(self) -> list[int]:
        """Free PUs in ascending os_index order (cold accessor)."""
        return list(Bitmap._from_bits(self._free))

    def compute_pressure(self, sibling_pus: dict[int, tuple[int, ...]]) -> list[int]:
        """Per-PU count of *compute* threads on hyperthread siblings.

        ``result[pu]`` is how many compute threads currently occupy PUs in
        ``sibling_pus[pu]`` — the table both flat cores maintain
        incrementally at occupy/release so the hyperthread-contention test
        is a single list index. This builds the starting snapshot from the
        busy map (placements at run entry, e.g. re-entering a window).
        """
        sib_compute = [0] * (max(self._busy) + 1)
        for pu_i, occupant in self._busy.items():
            if occupant is not None and occupant.kind == "compute":
                for sib in sibling_pus[pu_i]:
                    sib_compute[sib] += 1
        return sib_compute

    # -- placement ------------------------------------------------------------------

    def place(self, thread: SimThread, *, rebalance: bool = False) -> int | None:
        """Pick a PU for *thread*, or None when no allowed PU is free.

        Sticky by default (reuse ``last_pu`` when free); a *rebalance* call
        ignores stickiness and re-applies the policy, which may migrate the
        thread.
        """
        last = thread.last_pu
        cpuset = thread.cpuset
        if cpuset is not None:
            # Bound threads keep cpuset order (deterministic, no policy,
            # never a wakeup migration): sticky, else the lowest allowed.
            allowed = cpuset._bits & self._free
            if not rebalance and last is not None and allowed >> last & 1:
                return last
            if not allowed:
                return None
            return (allowed & -allowed).bit_length() - 1
        free = self._free
        if not free:
            return None
        rng = self._rng
        if not rebalance and last is not None and free >> last & 1:
            # Sticky placement — except that the OS occasionally wake-
            # balances unbound threads onto the policy's preferred PU.
            if not (
                rng is not None
                and self.wakeup_migrate_prob > 0.0
                and rng.random() < self.wakeup_migrate_prob
            ):
                return last
        consolidate = self.policy == "consolidate"
        if last is None and consolidate:
            # Fork placement under the consolidating kernel (Linux 3.10):
            # a new thread starts near its parent (the main thread on
            # node 0) and is only balanced away later — which is why
            # native runs first-touch their data on the low nodes. The
            # old spreading kernel (2.6.32) distributes at fork already.
            for pus in self._node_pus:
                near = free & pus
                if near:
                    return (near & -near).bit_length() - 1
        if (
            rebalance
            and rng is not None
            and self.migrate_prob > 0.0
            and free & (free - 1)
            and rng.random() < self.migrate_prob
        ):
            # Model CFS load-balancing churn: an actual move to some other
            # eligible PU, not the policy's first choice.
            others = [  # hotlint: ok(alloc) only on a drawn migration
                p for p in Bitmap._from_bits(free) if p != last
            ]
            return others[int(rng.integers(0, len(others)))]
        if consolidate:
            return (free & -free).bit_length() - 1
        # spread: least-loaded NUMA node, lowest PU within it.
        levels = self._load_free
        if levels is None:
            levels = self._build_load_free()
        level = 0
        while not levels[level]:
            level += 1
        spread = levels[level]
        return (spread & -spread).bit_length() - 1

    def _build_load_free(self) -> list[int]:
        """Build ``_load_free`` from the loads and ``_free`` (first use).

        A node's load never exceeds its PU count, so the top level stays
        empty and the spread scan always stops inside the list.
        """
        levels = [0] * (max(pus.bit_count() for pus in self._node_pus) + 1)
        for node, pus in enumerate(self._node_pus):
            levels[self._node_load[node]] |= self._free & pus
        self._load_free = levels
        return levels
