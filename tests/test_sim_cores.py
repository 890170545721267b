"""Core selection, mid-run registration and windowed runs on both cores.

The cross-core bit-identity contract itself is pinned by
``test_sim_batched_equivalence.py`` and ``test_sim_difftest.py``; this
module covers how ``core=`` resolves, threads registered or re-bound
from running generator code, and :meth:`SimMachine.run_window` (the
shard-protocol epoch primitive) agreeing with a one-shot run on the
object and the batched core.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.simcore

from repro.errors import SimulationError
from repro.sim import Compute, SimMachine, Spawn, Touch, Wait, YieldCPU
from repro.topology import smp12e5
from repro.util.bitmap import Bitmap


#: The reference path first, then the fast core.
CORES = ("object", "batched")


def mixed_machine(core: str, *, seed: int = 3, threads: int = 16):
    """Bound + unbound threads with waits, yields and multi-quantum
    computes — crosses the busy-completion drain, the dispatch pump and
    the wakeup paths in one workload."""
    m = SimMachine(smp12e5(), seed=seed, core=core)
    bufs = [m.allocate(1 << 15, f"b{i}") for i in range(threads)]
    evs = [m.event(f"e{i}") for i in range(threads)]

    def worker(i):
        for r in range(4):
            yield Compute(3e7)
            yield Touch(bufs[i], 8192, write=(i % 2 == 0))
            if i % 3 == 0:
                yield YieldCPU()
            evs[i].signal()
            if i:
                yield Wait(evs[i - 1])

    for i in range(threads):
        cpuset = Bitmap.single(2 * i) if i % 2 == 0 else None
        m.add_thread(f"w{i}", worker(i), cpuset=cpuset)
    return m


def fingerprint(m: SimMachine) -> tuple:
    return (
        m.elapsed_cycles,
        m.engine.events_processed,
        m.total_counters().snapshot(),
        [t.state for t in m.threads],
        [t.slices_run for t in m.threads],
        [t.slice_used for t in m.threads],
    )


class TestCoreSelection:
    def test_auto_resolves_to_batched(self):
        m = mixed_machine("auto")
        m.run()
        assert m.core_used == "batched"

    def test_explicit_cores_honoured(self):
        for core in CORES:
            m = mixed_machine(core)
            m.run()
            assert m.core_used == core

    def test_known_cores(self):
        assert SimMachine.CORES == ("auto", "batched", "object")

    def test_removed_soa_core_rejected(self):
        with pytest.raises(SimulationError, match="unknown core") as exc:
            SimMachine(smp12e5(), core="soa")
        for core in SimMachine.CORES:
            assert repr(core) in str(exc.value)

    def test_core_stats_stays_empty(self):
        # No core keeps run-ahead counters; the dict stays for readers
        # that probe it with .get().
        m = mixed_machine("auto")
        m.run()
        assert m.core_stats == {}


def spawning_machine(core: str) -> SimMachine:
    """A parent that registers a thread from generator code and
    ``Spawn``s it mid-run."""
    m = SimMachine(smp12e5(), core=core)

    def parent():
        yield Compute(1e4)
        late = m.add_thread("late", child(), start=False)
        yield Spawn(late)
        yield Compute(1e4)

    def child():
        yield Compute(1e4)

    m.add_thread("parent", parent(), cpuset=Bitmap.single(0))
    return m


class TestMidRunChanges:
    def test_auto_core_spawns_thread_registered_mid_run(self):
        m = spawning_machine("auto")
        m.run()
        assert m.core_used == "batched"
        assert [t.state for t in m.threads] == ["done", "done"]

    def test_mid_run_registration_agrees_across_cores(self):
        prints = []
        for core in CORES:
            m = spawning_machine(core)
            m.run()
            assert m.core_used == core
            prints.append(fingerprint(m))
        assert prints[0] == prints[1]

    @staticmethod
    def _rebind_run(core: str) -> SimMachine:
        # A thread un-binds a peer while both run: the victim's later
        # placements must see the new (absent) cpuset.
        m = SimMachine(smp12e5(), core=core)
        target = None

        def rebinder():
            yield Compute(3e7)
            m.bind_thread(target, None)  # unbind mid-run
            yield Compute(3e7)

        def victim():
            for _ in range(6):
                yield Compute(3e7)

        m.add_thread("rebinder", rebinder(), cpuset=Bitmap.single(0))
        target = m.add_thread("victim", victim(), cpuset=Bitmap.single(2))
        m.run()
        return m

    @pytest.mark.parametrize("core", CORES)
    def test_rebind_from_generator_code(self, core):
        m = self._rebind_run(core)
        assert m.core_used == core
        assert {t.state for t in m.threads} == {"done"}
        assert m.threads[1].cpuset is None
        assert fingerprint(m) == fingerprint(self._rebind_run("object"))


class TestRunWindow:
    @pytest.mark.parametrize("core", CORES)
    def test_windowed_equals_one_shot(self, core):
        one = mixed_machine(core)
        one.run()

        win = mixed_machine(core)
        horizon = 0.0
        # Small windows slice straight through in-flight busy chunks,
        # forcing the leftover-event shim conversion at every boundary.
        for _ in range(40):
            horizon += 3e8
            win.run_window(horizon)
        win.run_window(1e13)

        # The windowed clock lands on the final horizon (by design: a
        # window's end time is the epoch boundary), so compare
        # everything *but* the clock bit-for-bit.
        assert fingerprint(win)[1:] == fingerprint(one)[1:]
        assert win.elapsed_cycles == 1e13

    def test_thread_registered_between_windows_starts(self):
        def late_worker():
            for _ in range(3):
                yield Compute(3e7)

        prints = []
        for core in CORES:
            m = mixed_machine(core, threads=4)
            m.run_window(3e8)
            late = m.add_thread("late", late_worker(),
                                cpuset=Bitmap.single(10))
            m.run_window(1e13)
            assert late.state == "done", core
            prints.append(fingerprint(m)[1:])
        assert prints[0] == prints[1]

    def test_window_cannot_go_backwards(self):
        m = mixed_machine("batched")
        m.run_window(1e9)
        with pytest.raises(SimulationError, match="before now"):
            m.run_window(1e8)

    def test_window_advances_clock_to_horizon(self):
        # Even a drained machine reports the horizon: the shard protocol
        # equates machine time with the epoch boundary so messages
        # stamped inside (T_{k-1}, T_k] are always schedulable.
        m = mixed_machine("batched")
        m.run_window(1e13)  # everything completes well before this
        assert m.engine.now == 1e13

    def test_window_respects_event_budget(self):
        m = mixed_machine("batched")
        with pytest.raises(SimulationError, match="event budget"):
            for _ in range(1000):
                m.run_window(m.engine.now + 3e8, max_events=10)

    def test_observer_folds_once_after_last_window(self):
        from repro.sim.observe import SimObserver

        one = mixed_machine("batched")
        obs_one = SimObserver()
        one.attach_observer(obs_one)
        one.run()

        win = mixed_machine("batched")
        obs_win = SimObserver()
        win.attach_observer(obs_win)
        horizon = 0.0
        for _ in range(20):
            horizon += 6e8
            win.run_window(horizon)
        win.run_window(1e13)
        obs_win.fold(win)

        def strip_windowing(snap):
            # Clock-derived gauges (elapsed, per-PU idle = horizon -
            # busy) legitimately track the final window horizon;
            # everything else, the queue-depth histogram included, must
            # fold identically.
            return {
                k: v for k, v in snap.items()
                if k != "sim_elapsed_cycles"
                and not k.startswith("sim_pu_idle_cycles")
            }

        assert strip_windowing(obs_win.snapshot()) == \
            strip_windowing(obs_one.snapshot())


class TestBetweenWindowRebind:
    """The adaptive controller's live-rebind path: ``bind_thread``
    between ``run_window`` epochs, with no generator involvement."""

    @staticmethod
    def _long_machine(core: str) -> SimMachine:
        m = SimMachine(smp12e5(), core=core)

        def worker(i):
            # The yield forces a real redispatch per chunk, so a later
            # rebind always has future placements to move.
            for _ in range(24):
                yield Compute(3e7)
                yield YieldCPU()

        for i in range(4):
            m.add_thread(f"w{i}", worker(i), cpuset=Bitmap.single(2 * i))
        return m

    @staticmethod
    def _drain(m: SimMachine, rebind_to: Bitmap | None) -> SimMachine:
        m.run_window(1.5e8)
        if rebind_to is not None:
            # Between epochs the rebind goes through thread.cpuset and
            # must be picked up by the next window's placements.
            m.bind_thread(m.threads[1], rebind_to)
            assert m.threads[1].cpuset == rebind_to
        horizon = 3e8
        for _ in range(10):
            m.run_window(horizon)
            horizon += 1.5e8
        m.run_window(1e13)
        assert {t.state for t in m.threads} == {"done"}
        return m

    def test_rebind_onto_occupied_pu_contends(self):
        # Moving w1 (PU 2) onto w2's PU 4 forces the two to timeshare:
        # the drain point must move out vs the undisturbed run — proof
        # the new binding is enforced, not just recorded.
        free = self._drain(self._long_machine("batched"), None)
        packed = self._drain(self._long_machine("batched"), Bitmap.single(4))
        assert packed.window_drained_at > free.window_drained_at
        assert packed.threads[1].cpuset == Bitmap.single(4)

    def test_rebind_agrees_across_cores(self):
        prints = []
        for core in CORES:
            m = self._drain(self._long_machine(core), Bitmap.single(4))
            prints.append(fingerprint(m)[1:])  # clock sits on the horizon
        assert prints[0] == prints[1]

    def test_unbind_between_windows_frees_thread(self):
        bound = self._drain(self._long_machine("batched"), None)

        def loose_run(core):
            loose = self._long_machine(core)
            loose.run_window(1.5e8)
            loose.bind_thread(loose.threads[1], None)
            assert loose.threads[1].cpuset is None
            horizon = 3e8
            for _ in range(10):
                loose.run_window(horizon)
                horizon += 1.5e8
            loose.run_window(1e13)
            assert {t.state for t in loose.threads} == {"done"}
            return loose

        # The freed thread falls back to the seeded OS-scheduler policy
        # (migration costs included), so its schedule — and hence the
        # drain point — must diverge from the pinned run: unbinding is
        # enforced, not just recorded. And it stays deterministic and
        # core-independent.
        prints = [fingerprint(loose_run(c))[1:] for c in CORES]
        assert prints[0] == prints[1]
        assert prints[-1] != fingerprint(bound)[1:]
