"""Differential tests: 54 generated programs across both cores.

Driven by :mod:`tests.harness.difftest` — each generated spec executes
on the object and batched cores and the full fingerprint (counters, final
clock, event count, thread states, plus ring/metrics/monitor streams
when taps are attached) must be bit-identical. A second pass pins the
complementary guarantee: attaching taps never perturbs the run itself.
A third cuts programs at seeded random ``run_window`` horizons under the
invariant sanitizer and requires the one-shot result on both cores.
"""

from __future__ import annotations

import dataclasses

import pytest

pytestmark = pytest.mark.simcore

from tests.harness import difftest

N_PROGRAMS = 54
SPECS = difftest.generate_programs(N_PROGRAMS, seed=2026)

#: Fingerprint fields that describe the run itself (must also be
#: invariant under tap configuration, not just across cores).
RUN_FIELDS = (
    "counters", "compute", "control",
    "elapsed_cycles", "events_processed", "thread_states",
)


def test_generator_coverage():
    """The 54 specs cover every (app, tap-mode) pair, every topology
    preset and both affinity settings."""
    assert len(SPECS) >= 50
    combos = {(s.app, s.tap_mode) for s in SPECS}
    assert combos == {
        (a, m) for a in difftest.APPS for m in difftest.TAP_MODES
    }
    assert {s.topology for s in SPECS} == set(difftest.TOPOLOGIES)
    assert {s.affinity for s in SPECS} == {False, True}


def test_generator_deterministic():
    again = difftest.generate_programs(N_PROGRAMS, seed=2026)
    assert again == SPECS
    assert difftest.generate_programs(8, seed=1) != \
        difftest.generate_programs(8, seed=2)


@pytest.mark.parametrize(
    "spec", SPECS, ids=lambda s: f"{s.index:02d}-{s.app}-{s.tap_mode}"
)
def test_bit_identical_across_cores(spec):
    fp = difftest.check_program(spec)
    assert fp["core_used"] == "batched"
    if spec.tap_mode != "off":
        recorded, _dropped = fp["ring_totals"]
        assert recorded > 0
        assert fp["metrics"]["sim_events_processed_total"] == \
            fp["events_processed"]
        assert fp["monitor"]["finished"] > 0


@pytest.mark.parametrize("core", ["batched"])
@pytest.mark.parametrize("index", range(9))
def test_taps_do_not_perturb_the_run(index, core):
    """Same spec, all three tap modes, on the batched core: the
    run-describing fields must not move at all when observation is
    attached."""
    base = SPECS[index]
    fps = {
        mode: difftest.run_one(
            dataclasses.replace(base, tap_mode=mode), core
        )
        for mode in difftest.TAP_MODES
    }
    for mode in ("on", "sampled"):
        for key in RUN_FIELDS:
            assert fps[mode][key] == fps["off"][key], (key, mode)


def test_sampled_mode_wraps_and_drops():
    """At least one generated sampled-mode program overflows its
    256-record ring, exercising wraparound accounting."""
    dropped = []
    for spec in SPECS:
        if spec.tap_mode != "sampled":
            continue
        fp = difftest.run_one(spec, "batched")
        recorded, drop = fp["ring_totals"]
        assert len(fp["ring"]) == min(recorded, 256)
        dropped.append(drop)
    assert any(d > 0 for d in dropped)


def test_run_smoke_passes():
    assert difftest.run_smoke(3) == 3


#: Windowed family in tier-1: one program per app shape, covering all
#: three tap modes; the lint preflight's ``run_windowed_smoke`` runs more.
WINDOWED = [SPECS[i] for i in (0, 4, 8, 11, 13, 18)]


@pytest.mark.parametrize(
    "spec", WINDOWED, ids=lambda s: f"{s.index:02d}-{s.app}-{s.tap_mode}"
)
def test_windowed_sanitized_matches_one_shot(spec):
    fp = difftest.check_windowed(spec, seed=spec.index)
    assert fp["core_used"] == "batched"


def test_windowed_family_covers_apps_and_taps():
    assert {s.app for s in WINDOWED} == set(difftest.APPS)
    assert {s.tap_mode for s in WINDOWED} == set(difftest.TAP_MODES)


def test_windowed_check_sees_a_broken_window(monkeypatch):
    """A window loop that loses the tail of the live bucket must fail
    the check, not pass it: the check really compares the epochs."""
    from repro.sim.machine import SimMachine

    real = SimMachine.run_window

    def lossy(self, until, **kw):
        out = real(self, until, **kw)
        self.engine._heap.clear()  # drop every parked event
        return out

    monkeypatch.setattr(SimMachine, "run_window", lossy)
    with pytest.raises(AssertionError):
        difftest.check_windowed(SPECS[0], seed=0)


def test_run_windowed_smoke_passes():
    assert difftest.run_windowed_smoke(2) == 2


def test_sanitized_unbound_smp20e7_across_cores(monkeypatch):
    """REPRO_SANITIZE=1 on an unbound SMP20E7 matmul cell: every thread
    is placed by the spread policy, with wakeup and rebalance
    migrations, so the scheduler's free masks change on every
    transition. The sanitizer checks them live and post-run on both
    cores, and the checked runs agree bit for bit."""
    from repro.analyze.invariants import fingerprint

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    spec = difftest.ProgramSpec(
        index=0, app="matmul", config=(("n", 48), ("n_tasks", 8)),
        topology="smp20e7", affinity=False, seed=7, tap_mode="off",
    )
    fps = {}
    for core in difftest.CORES:
        rt = difftest.build_runtime(spec, core, difftest._make_taps("off"))
        rt.run()
        machine = rt.machine
        assert machine.core_used == core
        assert machine.scheduler.policy == "spread"
        assert all(t.cpuset is None for t in machine.threads)
        assert sum(t.counters.cpu_migrations for t in machine.threads) > 0
        assert machine.sanitizer is not None
        assert machine.sanitizer.checks > 0
        fp = fingerprint(machine)
        fp.pop("core_used")
        fps[core] = fp
    assert fps["batched"] == fps["object"]
