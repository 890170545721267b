"""Sharded multi-machine simulation: determinism, protocol, validation.

The load-bearing property is worker invariance: the conservative
window protocol totally orders cross-shard messages by simulation
content alone, so the global fingerprint must be bit-identical whether
the shards run inline in one process or spread over forked workers.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

pytestmark = pytest.mark.simcore

from repro.errors import DeadlockError, SimulationError
from repro.sim import (
    Channel,
    Compute,
    Scenario,
    ShardSpec,
    Wait,
    halo_ring_scenario,
    run_sharded,
)
from repro.sim.shard import SHARD_PROGRAMS, _fork_available, register_program


def small_ring(n_shards: int = 2, *, seed: int = 0, latency: float = 5e7):
    return halo_ring_scenario(
        n_shards,
        width=4,
        iters=2,
        flops=4e6,
        nbytes=1 << 13,
        latency=latency,
        seed=seed,
    )


class TestWorkerInvariance:
    def test_fingerprint_invariant_under_worker_count(self):
        scenario = halo_ring_scenario(
            4, width=6, iters=3, flops=6e6, nbytes=1 << 13, latency=5e7
        )
        results = [
            run_sharded(scenario, workers=w) for w in (1, 2, 4)
        ]
        fps = {r.fingerprint for r in results}
        assert len(fps) == 1, [r.fingerprint for r in results]
        # And the derived aggregates agree, not just the hash.
        assert len({r.epochs for r in results}) == 1
        assert len({r.messages for r in results}) == 1
        assert len({r.events_processed for r in results}) == 1

    def test_workers_clamped_to_shard_count(self):
        res = run_sharded(small_ring(), workers=16)
        assert res.workers == 2

    def test_single_worker_reports_one(self):
        res = run_sharded(small_ring(), workers=1)
        assert res.workers == 1
        assert res.events_processed > 0
        assert res.messages > 0


class TestDeterminism:
    def test_same_scenario_same_fingerprint(self):
        a = run_sharded(small_ring(), workers=1)
        b = run_sharded(small_ring(), workers=1)
        assert a.fingerprint == b.fingerprint
        assert a.epochs == b.epochs

    def test_seed_changes_fingerprint(self):
        a = run_sharded(small_ring(seed=0), workers=1)
        b = run_sharded(small_ring(seed=99), workers=1)
        assert a.fingerprint != b.fingerprint

    def test_per_shard_results_are_complete(self):
        scenario = small_ring()
        res = run_sharded(scenario, workers=2)
        assert set(res.per_shard) == {s.name for s in scenario.shards}
        for shard in res.per_shard.values():
            assert shard["events_processed"] > 0
            assert all(
                t["state"] == "done" for t in shard["threads"]
            )


class TestProtocol:
    def test_smaller_window_same_content_more_epochs(self):
        # Halving the window below the lookahead is allowed (just more
        # barriers). The raw fingerprint moves — it hashes the final
        # horizon clock and epoch stamps, which scale with the window —
        # but the simulation *content* (every thread's counters and
        # states, per-shard event counts) must not.
        scenario = small_ring(latency=5e7)
        full = run_sharded(scenario, workers=1)
        half = run_sharded(scenario, workers=1, window=2.5e7)
        assert half.epochs > full.epochs
        for name in full.per_shard:
            assert half.per_shard[name]["threads"] == \
                full.per_shard[name]["threads"], name
            assert half.per_shard[name]["events_processed"] == \
                full.per_shard[name]["events_processed"], name

    def test_window_above_lookahead_rejected(self):
        with pytest.raises(SimulationError, match="lookahead"):
            run_sharded(small_ring(latency=5e7), workers=1, window=6e7)

    def test_window_must_be_positive(self):
        with pytest.raises(SimulationError, match="positive"):
            run_sharded(small_ring(), workers=1, window=0)

    def test_max_epochs_guard(self):
        # A tiny window forces many epochs; the guard must trip before
        # the run completes.
        with pytest.raises(SimulationError, match="max_epochs"):
            run_sharded(small_ring(), workers=1, window=1e3, max_epochs=5)

    def test_deadlock_detected(self):
        @register_program("_test_starved")
        def _build(ctx):  # pragma: no cover - body drives the deadlock
            halo_in = ctx.inbox_events("halo")

            def waiter():
                for ev in halo_in:
                    yield Wait(ev)  # nobody ever sends

            ctx.machine.add_thread("waiter", waiter(), kind="control")

        try:
            scenario = Scenario(
                (
                    ShardSpec.make("a", "_test_starved"),
                    ShardSpec.make("b", "_test_starved"),
                ),
                (
                    Channel("a", "b", "halo", 5e7),
                    Channel("b", "a", "halo", 5e7),
                ),
            )
            with pytest.raises(DeadlockError, match="blocked"):
                run_sharded(scenario, workers=1)
        finally:
            del SHARD_PROGRAMS["_test_starved"]


class TestValidation:
    def test_duplicate_shard_names(self):
        with pytest.raises(SimulationError, match="duplicate"):
            Scenario(
                (
                    ShardSpec.make("a", "halo_wide"),
                    ShardSpec.make("a", "halo_wide"),
                )
            )

    def test_unknown_channel_endpoint(self):
        with pytest.raises(SimulationError, match="unknown shard"):
            Scenario(
                (ShardSpec.make("a", "halo_wide"),),
                (Channel("a", "ghost", "halo", 1e6),),
            )

    def test_channel_latency_must_be_positive(self):
        with pytest.raises(SimulationError, match="latency"):
            Channel("a", "b", "halo", 0)

    def test_channel_self_loop_rejected(self):
        with pytest.raises(SimulationError, match="intra-shard"):
            Channel("a", "a", "halo", 1e6)

    def test_empty_scenario_rejected(self):
        with pytest.raises(SimulationError, match="no shards"):
            Scenario(())

    def test_channelless_scenario_has_no_window(self):
        scenario = Scenario((ShardSpec.make("a", "halo_wide"),))
        with pytest.raises(SimulationError, match="no channels"):
            _ = scenario.window

    def test_unknown_program_rejected(self):
        scenario = Scenario(
            (
                ShardSpec.make("a", "no_such_program"),
                ShardSpec.make("b", "halo_wide"),
            ),
            (
                Channel("a", "b", "halo", 5e7),
                Channel("b", "a", "halo", 5e7),
            ),
        )
        with pytest.raises(SimulationError, match="unknown shard program"):
            run_sharded(scenario, workers=1)

    def test_duplicate_program_registration_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_program("halo_wide")(lambda ctx: None)

    def test_halo_ring_needs_two_shards(self):
        with pytest.raises(SimulationError, match="at least 2"):
            halo_ring_scenario(1)

    def test_send_on_unknown_channel_name(self):
        @register_program("_test_bad_send")
        def _build(ctx):
            def gen():
                ctx.send("nonexistent")
                yield Wait(ctx.machine.event("never"))

            ctx.machine.add_thread("bad", gen(), kind="control")

        try:
            scenario = Scenario(
                (
                    ShardSpec.make("a", "_test_bad_send"),
                    ShardSpec.make("b", "halo_wide", width=1, iters=1),
                ),
                (
                    Channel("a", "b", "halo", 5e7),
                    Channel("b", "a", "halo", 5e7),
                ),
            )
            with pytest.raises(SimulationError, match="no outgoing channel"):
                run_sharded(scenario, workers=1)
        finally:
            del SHARD_PROGRAMS["_test_bad_send"]


class TestWorkerFailure:
    @pytest.mark.skipif(not _fork_available(), reason="needs fork workers")
    def test_sigkilled_worker_raises_named_error(self):
        # Shard "b" runs the halo program plus a thread that SIGKILLs its
        # own worker process once its computes reach the second epoch.
        parent = os.getpid()

        @register_program("_test_sigkill")
        def _build(ctx):
            SHARD_PROGRAMS["halo_wide"](ctx)

            def killer():
                for _ in range(40):
                    yield Compute(4e6)
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)

            ctx.machine.add_thread("killer", killer(), kind="control")

        def hung(signum, frame):  # pragma: no cover - only on regression
            raise TimeoutError("run_sharded hung on a dead worker")

        params = dict(width=4, iters=6, flops=4e6, bytes=1 << 13)
        scenario = Scenario(
            (
                ShardSpec.make("a", "halo_wide", **params),
                ShardSpec.make("b", "_test_sigkill", **params),
            ),
            (
                Channel("a", "b", "halo", 5e7),
                Channel("b", "a", "halo", 5e7),
            ),
        )
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        t0 = time.perf_counter()
        try:
            with pytest.raises(SimulationError) as info:
                run_sharded(scenario, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            del SHARD_PROGRAMS["_test_sigkill"]
        assert time.perf_counter() - t0 < 30
        msg = str(info.value)
        assert "['b']" in msg
        assert f"exit code {-signal.SIGKILL}" in msg
        assert "during epoch " in msg
        assert int(msg.split("during epoch ")[1].split()[0]) >= 2
