"""SimSanitizer: checked-mode invariants, zero cost off, cross-core.

The sanitizer rides the native monitor taps, so both simulator cores
are covered by the same checks; the difftest family under
``REPRO_SANITIZE=1`` plus :func:`repro.analyze.invariants.fingerprint`
pin down that the checked runs agree bit-for-bit across cores.
"""

import pytest

from repro.analyze.invariants import SimSanitizer, fingerprint, occupancy_drift
from repro.errors import InvariantViolation
from repro.sim import Compute, SimMachine, Touch
from repro.topology import smp12e5, smp20e7
from repro.util.bitmap import Bitmap


def tiny_run(core: str = "auto", **kwargs) -> SimMachine:
    machine = SimMachine(smp12e5(), core=core, **kwargs)
    buf = machine.allocate(1 << 16, "b")

    def body():
        for _ in range(20):
            yield Compute(1e4)
            yield Touch(buf, 4096, write=True)

    for i in range(4):
        machine.add_thread(f"t{i}", body(), cpuset=Bitmap.single(2 * i))
    machine.run()
    return machine


class TestCheckedMode:
    def test_off_by_default_no_sanitizer(self):
        machine = tiny_run()
        assert machine.sanitize is False
        assert machine.sanitizer is None

    def test_on_runs_checks_and_holds(self):
        machine = tiny_run(sanitize=True)
        assert machine.sanitizer is not None
        assert machine.sanitizer.checks > 0
        assert machine.sanitizer.violations == []

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        machine = tiny_run()
        assert machine.sanitize is True
        assert machine.sanitizer is not None
        assert machine.sanitizer.checks > 0

    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        machine = tiny_run(sanitize=False)
        assert machine.sanitizer is None

    def test_checked_run_does_not_change_results(self):
        plain = tiny_run()
        checked = tiny_run(sanitize=True)
        assert plain.elapsed_cycles == checked.elapsed_cycles
        assert (plain.engine.events_processed
                == checked.engine.events_processed)
        assert (plain.total_counters().snapshot()
                == checked.total_counters().snapshot())


class TestCrossCoreAgreement:
    def test_fingerprints_match_between_cores(self):
        fps = []
        for core in ("batched", "object"):
            machine = tiny_run(core, sanitize=True)
            fp = fingerprint(machine)
            fp.pop("core_used")
            fps.append(fp)
        assert fps[0] == fps[1]

    def test_fingerprint_reports_check_count(self):
        machine = tiny_run(sanitize=True)
        assert fingerprint(machine)["sanitizer_checks"] > 0


class TestRemapEpochBoundary:
    """Occupancy/clock invariants must hold straight through a live
    rebind between ``run_window`` epochs — the adaptive controller's
    remap path."""

    @staticmethod
    def _windowed_remap(core: str) -> SimMachine:
        from repro.sim import YieldCPU

        machine = SimMachine(smp12e5(), core=core, sanitize=True)
        buf = machine.allocate(1 << 16, "b")

        def body():
            for _ in range(20):
                yield Compute(1e5)
                yield Touch(buf, 4096, write=True)
                yield YieldCPU()

        for i in range(4):
            machine.add_thread(f"t{i}", body(), cpuset=Bitmap.single(2 * i))
        machine.attach_sanitizer()
        machine.run_window(3e5)
        # The remap epoch boundary: migrate two threads while the
        # sanitizer's occupancy tap is live.
        machine.bind_thread(machine.threads[0], Bitmap.single(1))
        machine.bind_thread(machine.threads[1], Bitmap.single(3))
        horizon = 6e5
        for _ in range(30):
            machine.run_window(horizon)
            if all(t.state == "done" for t in machine.threads):
                break
            horizon += 3e5
        machine.sanitizer.verify(machine)
        return machine

    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_occupancy_holds_across_rebind(self, core):
        machine = self._windowed_remap(core)
        assert all(t.state == "done" for t in machine.threads)
        assert machine.sanitizer.checks > 0
        assert machine.sanitizer.violations == []

    def test_checked_remap_matches_between_cores(self):
        fps = []
        for core in ("batched", "object"):
            fp = fingerprint(self._windowed_remap(core))
            fp.pop("core_used")
            fp.pop("elapsed_cycles")  # windowed clock sits on the horizon
            fps.append(fp)
        assert fps[0] == fps[1]


class TestViolationDetection:
    def test_negative_touch_bytes_fires(self):
        machine = tiny_run(sanitize=True)
        san = machine.sanitizer
        thread = machine.threads[0]
        with pytest.raises(InvariantViolation, match="touch-bytes"):
            san.on_touch(thread, None, -1, True)
        assert any("touch-bytes" in v for v in san.violations)

    def test_clock_regression_fires(self):
        machine = tiny_run(sanitize=True)
        san = machine.sanitizer
        san._last_now = machine.engine.now + 1e9
        with pytest.raises(InvariantViolation, match="clock-monotonic"):
            san._check_clock()

    def test_corrupted_counters_fail_verify(self):
        machine = tiny_run(sanitize=True)
        counters = machine.threads[0].counters
        counters.busy_cycles = -1.0
        with pytest.raises(InvariantViolation):
            machine.sanitizer.verify(machine)

    def test_violation_is_simulation_error(self):
        from repro.errors import SimulationError

        assert issubclass(InvariantViolation, SimulationError)


class TestFreeMaskInvariants:
    """The scheduler's free masks and load counts against its busy map."""

    def test_consistent_through_occupy_and_release(self):
        sched = SimMachine(smp20e7()).scheduler
        assert occupancy_drift(sched) is None
        sched.occupy(9, object())
        sched.occupy(17, object())
        assert occupancy_drift(sched) is None
        assert occupancy_drift(sched, sched._pu_node[9]) is None
        sched.release(9)
        assert occupancy_drift(sched) is None
        sched._build_load_free()
        sched.occupy(9, object())
        sched.occupy(10, object())
        sched.release(17)
        assert occupancy_drift(sched) is None

    @pytest.mark.parametrize("corrupt", ["stale", "foreign", "level", "load"])
    def test_each_drift_is_named(self, corrupt):
        sched = SimMachine(smp20e7()).scheduler
        sched.occupy(9, object())
        sched._build_load_free()
        node = sched._pu_node[9]
        if corrupt == "stale":
            sched._free |= 1 << 9
        elif corrupt == "foreign":
            sched._free |= 1 << 4096
        elif corrupt == "level":
            sched._load_free[0] |= 1 << 9
        else:
            sched._node_load[node] += 1
        assert occupancy_drift(sched) is not None

    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_live_check_catches_a_stale_mask(self, core):
        machine = SimMachine(smp12e5(), core=core, sanitize=True)
        buf = machine.allocate(1 << 16, "b")

        def body():
            for _ in range(5):
                yield Compute(1e4)
                yield Touch(buf, 4096, write=True)

        def stale_mask(pu, thread):
            # A placement that forgets to clear its PU's free bit.
            machine.scheduler._free |= 1 << pu

        machine.add_thread("t0", body())
        machine.scheduler.on_place.append(stale_mask)
        with pytest.raises(InvariantViolation, match="occupancy"):
            machine.run()

    def test_post_run_check_catches_a_stale_mask(self):
        machine = tiny_run(sanitize=True)
        machine.scheduler._free ^= 1 << 2
        with pytest.raises(InvariantViolation, match="scheduler-idle"):
            machine.sanitizer.verify(machine)
