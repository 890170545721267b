"""Direct unit tests for the OS scheduler models."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.memory import MemorySystem
from repro.sim.params import CostModel
from repro.sim.process import SimThread
from repro.sim.scheduler import OSScheduler
from repro.topology import fig2_machine, smp12e5, smp20e7
from repro.topology.serialize import topology_from_dict, topology_to_dict
from repro.util.bitmap import Bitmap
from repro.util.rng import make_rng


def make_sched(topo=None, policy=None, **kw):
    topo = topo or fig2_machine()
    mem = MemorySystem(topo, CostModel())
    return OSScheduler(topo, mem, policy=policy, **kw)


def thread(tid=0, cpuset=None, last_pu=None):
    t = SimThread(tid=tid, name=f"t{tid}", gen=iter([]), cpuset=cpuset)
    t.last_pu = last_pu
    return t


class TestOccupancy:
    def test_occupy_release_cycle(self):
        s = make_sched()
        t = thread()
        s.occupy(3, t)
        assert not s.is_free(3)
        assert s.thread_on(3) is t
        s.release(3)
        assert s.is_free(3)

    def test_double_occupy_rejected(self):
        s = make_sched()
        s.occupy(0, thread(0))
        with pytest.raises(SimulationError):
            s.occupy(0, thread(1))

    def test_release_idle_rejected(self):
        with pytest.raises(SimulationError):
            make_sched().release(0)

    def test_free_pus_shrink(self):
        s = make_sched()
        n = len(s.free_pus)
        s.occupy(0, thread())
        assert len(s.free_pus) == n - 1


class TestPlacement:
    def test_bound_thread_stays_in_cpuset(self):
        s = make_sched()
        t = thread(cpuset=Bitmap([5, 6]))
        assert s.place(t) == 5
        s.occupy(5, thread(9))
        assert s.place(t) == 6
        s.occupy(6, thread(8))
        assert s.place(t) is None

    def test_bound_thread_prefers_last(self):
        s = make_sched()
        t = thread(cpuset=Bitmap([5, 6]), last_pu=6)
        assert s.place(t) == 6

    def test_sticky_unbound(self):
        s = make_sched(policy="consolidate")
        t = thread(last_pu=20)
        assert s.place(t) == 20

    def test_first_placement_consolidate_starts_node0(self):
        s = make_sched(smp12e5(), policy="consolidate")
        assert s.place(thread()) == 0

    def test_first_placement_spread_distributes(self):
        s = make_sched(smp20e7(), policy="spread")
        t0, t1 = thread(0), thread(1)
        p0 = s.place(t0)
        s.occupy(p0, t0)
        p1 = s.place(t1)
        assert s.memory.numa_of_pu(p0) != s.memory.numa_of_pu(p1)

    def test_rebalance_consolidate_picks_lowest(self):
        s = make_sched(policy="consolidate")
        t = thread(last_pu=9)
        assert s.place(t, rebalance=True) == 0

    def test_rebalance_random_migration(self):
        s = make_sched(policy="consolidate", rng=make_rng(0), migrate_prob=1.0)
        t = thread(last_pu=9)
        # With migrate_prob=1 a rebalance never lands on last_pu.
        for _ in range(10):
            assert s.place(t, rebalance=True) != 9

    def test_wakeup_migration_probability(self):
        s = make_sched(policy="consolidate", rng=make_rng(0),
                       wakeup_migrate_prob=1.0)
        t = thread(last_pu=9)
        # Always rebalanced on wake: policy pick = PU 0, not 9.
        assert s.place(t) == 0

    def test_no_free_pu_returns_none(self):
        s = make_sched()
        for pu in list(s.free_pus):
            s.occupy(pu, thread(pu))
        assert s.place(thread(99)) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            make_sched(policy="chaotic")

    def test_policy_from_topology_attr(self):
        assert make_sched(smp20e7()).policy == "spread"
        assert make_sched(smp12e5()).policy == "consolidate"


# -- differential test against the list-scan placement ------------------------


class ListScanOracle:
    """The list-scan ``OSScheduler.place`` the bitmask model replaced.

    ``place`` below is that implementation verbatim; it reads the live
    busy map and load counts of the scheduler under test but draws from
    its own RNG, so the two can be compared call by call.
    """

    def __init__(self, sched: OSScheduler, rng) -> None:
        self._busy = sched._busy
        self._node_load = sched._node_load
        self._all_pus = sched._all_pus
        self.memory = sched.memory
        self.policy = sched.policy
        self.migrate_prob = sched.migrate_prob
        self.wakeup_migrate_prob = sched.wakeup_migrate_prob
        self._rng = rng

    @property
    def free_pus(self) -> list[int]:
        return [p for p in self._all_pus if self._busy[p] is None]

    def place(self, thread: SimThread, *, rebalance: bool = False) -> int | None:
        if thread.cpuset is not None:
            last = thread.last_pu
            if (
                not rebalance
                and last is not None
                and self._busy.get(last) is None
                and last in thread.cpuset
            ):
                return last
            candidates = [p for p in thread.cpuset if self._busy.get(p) is None]
        else:
            candidates = self.free_pus
        if not candidates:
            return None
        if not rebalance and thread.last_pu in candidates:
            if (
                thread.cpuset is None
                and self._rng is not None
                and self.wakeup_migrate_prob > 0.0
                and self._rng.random() < self.wakeup_migrate_prob
            ):
                pass
            else:
                return thread.last_pu
        if thread.cpuset is not None:
            return candidates[0]
        if thread.last_pu is None and self.policy == "consolidate":
            first_node = min(
                self.memory.numa_of_pu(p) for p in candidates
            )
            near = [
                p for p in candidates if self.memory.numa_of_pu(p) == first_node
            ]
            return min(near)
        if (
            rebalance
            and self._rng is not None
            and self.migrate_prob > 0.0
            and len(candidates) > 1
            and self._rng.random() < self.migrate_prob
        ):
            others = [p for p in candidates if p != thread.last_pu]
            return int(others[self._rng.integers(0, len(others))])
        if self.policy == "consolidate":
            return min(candidates)

        def node_key(p: int) -> tuple[int, int]:
            return (self._node_load[self.memory.numa_of_pu(p)], p)

        return min(candidates, key=node_key)


def interleaved_fig2():
    """Fig. 2's machine through the serializer, with PUs renumbered so
    os_index is non-contiguous: nodes interleave, the first NUMA node
    holds the *highest* numbers of each stride, and every third index
    is a hole."""
    data = topology_to_dict(fig2_machine())
    pus = []

    def walk(d):
        if d["type"] == "PU":
            pus.append(d)
        for child in d.get("children", ()):
            walk(child)

    walk(data["root"])
    n_nodes = 4
    per_node = len(pus) // n_nodes
    for i, pu in enumerate(pus):
        node, j = divmod(i, per_node)
        pu["os_index"] = 3 * (j * n_nodes + (n_nodes - 1 - node)) + 1
    return topology_from_dict(data)


TOPOLOGIES = {
    "fig2": fig2_machine,
    "smp12e5": smp12e5,
    "smp20e7": smp20e7,
    "interleaved": interleaved_fig2,
}


def random_cpuset(topo, driver: random.Random) -> Bitmap:
    pus = [p.os_index for p in topo.pus]
    shape = driver.random()
    if shape < 0.4:
        return Bitmap.single(driver.choice(pus))
    if shape < 0.7:
        node = driver.choice(topo.numa_nodes)
        return Bitmap(p.os_index for p in node.leaves())
    return Bitmap(driver.sample(pus, driver.randint(2, 12)))


def drive_differential(topo_name, policy, seed, *, migrate_prob,
                       wakeup_migrate_prob, steps=600):
    """Seeded occupy/release/place sequence on the bitmask scheduler,
    every ``place`` checked against the list-scan oracle."""
    topo = TOPOLOGIES[topo_name]()
    sched = make_sched(topo, policy, rng=make_rng(seed),
                       migrate_prob=migrate_prob,
                       wakeup_migrate_prob=wakeup_migrate_prob)
    oracle = ListScanOracle(sched, make_rng(seed))
    driver = random.Random(seed)
    n_pus = topo.n_pus
    threads = []
    for tid in range(n_pus + n_pus // 4):  # oversubscribed
        cpuset = random_cpuset(topo, driver) if driver.random() < 0.3 else None
        threads.append(thread(tid, cpuset=cpuset))
    running: dict[int, int] = {}  # tid -> pu
    decisions = 0
    for _ in range(steps):
        if running and driver.random() < 0.4:
            tid = driver.choice(sorted(running))
            sched.release(running.pop(tid))
            continue
        idle = [t for t in threads if t.tid not in running]
        t = driver.choice(idle)
        rebalance = driver.random() < 0.35
        got = sched.place(t, rebalance=rebalance)
        want = oracle.place(t, rebalance=rebalance)
        assert got == want, (topo_name, policy, t.tid, rebalance)
        assert (sched._rng.bit_generator.state
                == oracle._rng.bit_generator.state)
        decisions += 1
        if got is not None:
            sched.occupy(got, t)
            t.last_pu = got
            running[t.tid] = got
    return decisions


class TestBitmaskMatchesListScan:
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("policy", OSScheduler.POLICIES)
    @pytest.mark.parametrize("probs", [(0.0, 0.0), (0.3, 0.12), (1.0, 1.0)],
                             ids=["no-rng", "model", "always"])
    def test_same_choices_and_rng_draws(self, topo_name, policy, probs):
        migrate_prob, wakeup_prob = probs
        for seed in range(3):
            assert drive_differential(
                topo_name, policy, seed, migrate_prob=migrate_prob,
                wakeup_migrate_prob=wakeup_prob,
            ) > 100

    def test_interleaved_topology_is_non_contiguous(self):
        topo = interleaved_fig2()
        first_node = [p.os_index for p in topo.numa_nodes[0].leaves()]
        assert min(first_node) > min(p.os_index for p in topo.pus)
        indices = [p.os_index for p in topo.pus]
        assert max(indices) + 1 > len(indices)

    def test_free_pus_ascending_from_masks(self):
        s = make_sched(interleaved_fig2())
        pus = sorted(p.os_index for p in s.topology.pus)
        assert s.free_pus == pus
        s.occupy(pus[3], thread())
        assert s.free_pus == pus[:3] + pus[4:]
