"""The closed loop: windowed execution, drift detection, warm remap.

:class:`AdaptiveController` owns a machine's run loop, replacing the
single ``machine.run()`` call with a sequence of
:meth:`~repro.sim.machine.SimMachine.run_window` epochs. After each
window it folds :class:`~repro.affinity.telemetry.WindowTelemetry` into
a live comm-matrix estimate, scores drift against the matrix the
current placement was derived from
(:func:`~repro.affinity.drift.drift_score` through a
:class:`~repro.affinity.drift.DriftDetector`), and on a trigger re-runs
TreeMatch **warm-started** from the current placement
(``treematch_map(..., warm_start=...)`` seeds ``refine_groups`` with
the live groups) and re-binds *only* the threads whose PU changed.

Every decision is recorded both in :attr:`AdaptiveController.decisions`
and in an :class:`~repro.sim.observe.MetricsRegistry`
(``adapt_remaps_total``, ``adapt_threads_moved_total``,
``adapt_drift_score``, ...), so adaptive runs are inspectable the same
way observed static runs are.

On a phase-stable program the estimate converges to the reference and
the detector never fires: the controller performs **zero** remaps and
the execution is bit-identical to an uncontrolled windowed run (the
differential family of ``tests/test_affinity_controller.py`` enforces
this on both simulator cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.affinity.drift import DriftConfig, DriftDetector, drift_score
from repro.affinity.telemetry import WindowTelemetry
from repro.errors import AffinityError, MappingError
from repro.sim.observe import MetricsRegistry
from repro.treematch.commmatrix import CommunicationMatrix
from repro.treematch.mapping import Placement, treematch_map
from repro.util.bitmap import Bitmap

__all__ = ["ControllerConfig", "RemapDecision", "AdaptiveController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Epoch sizing and estimator knobs for the adaptive loop.

    ``window_cycles`` is the epoch length in simulated cycles;
    ``decay`` is the telemetry estimator's per-window retention;
    ``min_window_bytes`` gates calibration (no reference is taken while
    the estimate holds less traffic than this); ``calibrate_windows``
    is how many traffic-bearing windows the estimator folds before a
    reference is adopted — both at startup and after every remap —
    which smooths the burst-to-burst variation of pipelined programs
    out of the baseline; ``gather_windows`` is how many windows the
    controller keeps observing *after* a drift trigger before actually
    remapping, so the comm matrix handed to TreeMatch is drawn from the
    new phase alone (at trigger time the decayed estimate still blends
    the old phase — the mismatched phase runs slower, so its bytes
    arrive slower, and old mass lingers); ``drift`` nests the
    :class:`~repro.affinity.drift.DriftConfig` hysteresis parameters.
    """

    window_cycles: float = 5e6
    max_windows: int = 100_000
    decay: float = 0.5
    min_window_bytes: float = 1.0
    calibrate_windows: int = 4
    gather_windows: int = 2
    drift: DriftConfig = DriftConfig()

    def __post_init__(self) -> None:
        if self.window_cycles <= 0:
            raise AffinityError(
                f"window_cycles must be positive, got {self.window_cycles}"
            )
        if self.max_windows <= 0:
            raise AffinityError(
                f"max_windows must be positive, got {self.max_windows}"
            )
        if self.calibrate_windows <= 0:
            raise AffinityError(
                f"calibrate_windows must be positive, got "
                f"{self.calibrate_windows}"
            )
        if self.gather_windows <= 0:
            raise AffinityError(
                f"gather_windows must be positive, got {self.gather_windows}"
            )


@dataclass
class RemapDecision:
    """One controller trigger: when it fired, what it cost."""

    window: int
    drift: float
    moved: int
    warm: bool

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "drift": self.drift,
            "moved": self.moved,
            "warm": self.warm,
        }


class AdaptiveController:
    """Drive a prepared machine through windowed epochs with remapping.

    Construct via :meth:`for_orwl` / :meth:`for_openmp` (which split
    the runtime's ``run()`` around the simulator loop), or directly for
    a hand-built machine. ``placement=None`` starts uncalibrated: the
    first window with enough traffic becomes the reference and no remap
    is charged for it.
    """

    def __init__(
        self,
        machine,
        topology,
        compute_threads,
        control_threads=(),
        *,
        placement: Placement | None = None,
        n_control: int = 0,
        control_owners: list[int] | None = None,
        config: ControllerConfig | None = None,
        registry: MetricsRegistry | None = None,
        finish=None,
    ) -> None:
        if not compute_threads:
            raise AffinityError("controller needs at least one compute thread")
        self.machine = machine
        self.topology = topology
        self.compute_threads = list(compute_threads)
        self.control_threads = list(control_threads)
        self.placement = placement
        self.n_control = n_control
        self.control_owners = control_owners
        self.config = config or ControllerConfig()
        self.registry = registry or MetricsRegistry()
        self.telemetry = WindowTelemetry(
            len(self.compute_threads), decay=self.config.decay
        )
        self.detector = DriftDetector(self.config.drift)
        #: Comm matrix (ndarray) the current placement was derived from;
        #: None while (re)calibrating.
        self.reference = None
        self._cal_left = self.config.calibrate_windows
        # Windows left to observe before the pending (triggered) remap.
        self._gather_left = 0
        self._pending_score = 0.0
        #: Every remap the controller performed, in order.
        self.decisions: list[RemapDecision] = []
        self.windows_run = 0
        self._finish_cb = finish
        self._ran = False
        # Pre-created metrics so the per-window path touches no
        # registry machinery.
        self._g_drift = self.registry.gauge("adapt_drift_score")
        self._g_ewma = self.registry.gauge("adapt_drift_ewma")
        self._c_windows = self.registry.counter("adapt_windows_total")
        self._c_bytes = self.registry.counter("adapt_window_bytes_total")
        self._c_remaps = self.registry.counter("adapt_remaps_total")
        self._c_moved = self.registry.counter("adapt_threads_moved_total")

    # -- runtime adapters ---------------------------------------------------

    @classmethod
    def for_orwl(
        cls,
        runtime,
        *,
        config: ControllerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> "AdaptiveController":
        """Adopt an (un-run) ORWL runtime; :meth:`run` returns its
        :class:`~repro.orwl.runtime.RunResult`.

        Calls ``runtime.prepare_run()`` — scheduling, thread spawn and
        the initial static affinity pipeline happen exactly as in
        ``runtime.run()``; only the simulator loop is taken over.
        """
        runtime.prepare_run()
        machine = runtime.machine
        compute = [t for t in machine.threads if t.kind == "compute"]
        control = [t for t in machine.threads if t.kind == "control"]
        if runtime.affinity.options.get("use_control_threads", True):
            n_control = len(runtime.locations)
            owners = [loc.owner.op_id for loc in runtime.locations]
        else:
            n_control = 0
            owners = []
        return cls(
            machine,
            runtime.topology,
            compute,
            control,
            placement=runtime.affinity.placement,
            n_control=n_control,
            control_owners=owners,
            config=config,
            registry=registry,
            finish=runtime._build_result,
        )

    @classmethod
    def for_openmp(
        cls,
        runtime,
        master_body,
        *,
        config: ControllerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> "AdaptiveController":
        """Adopt an (un-run) OpenMP runtime + master body; :meth:`run`
        returns its :class:`~repro.openmp.runtime.OMPResult`.
        """
        threads = runtime.prepare_run(master_body)
        return cls(
            runtime.machine,
            runtime.machine.topology,
            threads,
            (),
            placement=runtime.placement,
            config=config,
            registry=registry,
            finish=runtime._build_result,
        )

    # -- the loop -----------------------------------------------------------

    def run(self):
        """Run the machine to completion under the adaptive loop.

        Returns the adopted runtime's result object (via the finish
        callback) or, for a bare machine, elapsed seconds at the honest
        drain point (``machine.window_drained_at``), not the quantized
        window horizon.
        """
        if self._ran:
            raise AffinityError("AdaptiveController.run may only be called once")
        self._ran = True
        machine = self.machine
        machine.monitors.append(self.telemetry)
        if machine.sanitize:
            machine.attach_sanitizer()
        run_window = machine.run_window
        all_done = self._all_done
        observe = self._observe_window
        window_cycles = self.config.window_cycles
        max_windows = self.config.max_windows
        horizon = machine.engine.now + window_cycles
        windows = 0
        done = False
        while windows < max_windows:
            run_window(horizon)
            windows += 1
            if all_done():
                done = True
                break
            observe(windows)
            horizon += window_cycles
        self.windows_run = windows
        if not done:
            raise AffinityError(
                f"program did not finish within {max_windows} windows of "
                f"{window_cycles:g} cycles (deadlock, or window_cycles too "
                "small for the program)"
            )
        return self._finish()

    def _all_done(self) -> bool:
        for t in self.machine.threads:
            if t.state not in ("done", "unstarted"):
                return False
        return True

    def _observe_window(self, window: int) -> None:
        window_bytes = self.telemetry.fold_window()
        self._c_windows.inc()
        self._c_bytes.inc(window_bytes)
        estimate = self.telemetry.estimate
        if self._gather_left > 0:
            # A trigger is pending: keep folding windows of the new
            # phase so TreeMatch sees its full edge set (one slow
            # window of a pipelined program rarely exercises every
            # pair), then remap.
            self._gather_left -= 1
            if self._gather_left == 0:
                self._remap(window, self._pending_score)
            return
        if self.reference is None:
            # (Re)calibration: fold a few traffic-bearing windows into
            # the decayed estimate before adopting it as the reference,
            # so one bursty window of a pipelined program cannot become
            # the baseline. No remap is charged for calibration — drift
            # measures *change*, and there is nothing to have changed
            # from yet.
            if estimate.sum() >= self.config.min_window_bytes:
                self._cal_left -= 1
                if self._cal_left <= 0:
                    self.reference = estimate.copy()
            return
        score = drift_score(estimate, self.reference)
        self._g_drift.set(score)
        fired = self.detector.update(score)
        self._g_ewma.set(self.detector.ewma)
        if fired:
            # Phase change confirmed. Purge the old phase's decayed
            # mass (the mismatched new phase runs slower, so its bytes
            # trickle in and old mass would otherwise dominate the
            # estimate for many windows) and start gathering.
            self.telemetry.reset_to_last_window()
            self._gather_left = self.config.gather_windows
            self._pending_score = score

    def _remap(self, window: int, score: float) -> None:
        comm = CommunicationMatrix(self.telemetry.estimate.copy())
        placement, warm_won = self._compute(comm)
        moved = self._apply(placement)
        self.placement = placement
        # Recalibrate: the reference is re-adopted after
        # `calibrate_windows` more windows, once the estimate has
        # converged on the new phase as seen under the new placement.
        self.reference = None
        self._cal_left = self.config.calibrate_windows
        self.detector.reset()
        self.decisions.append(
            RemapDecision(window=window, drift=score, moved=moved, warm=warm_won)
        )
        self._c_remaps.inc()
        self._c_moved.inc(moved)

    def _compute(self, comm: CommunicationMatrix) -> tuple[Placement, bool]:
        """Map *comm*, warm-started from the current placement.

        Computes both the warm-started refinement and a cold start and
        keeps whichever costs less under the new matrix (ties prefer
        warm — fewer threads move). A small perturbation is cheapest to
        fix by refining the live groups; a wholesale phase change can
        strand pairwise-swap refinement in the old grouping's basin,
        and the cold map wins. Returns ``(placement, warm_won)``.
        """
        owners = self.control_owners
        owners = list(owners) if owners is not None else None
        cold = treematch_map(
            self.topology, comm, n_control=self.n_control, control_owners=owners
        )
        warm = self.placement
        if warm is None or not warm.groups_per_level:
            return cold, False  # no live groups to seed refinement with
        try:
            warmed = treematch_map(
                self.topology,
                comm,
                n_control=self.n_control,
                control_owners=owners,
                warm_start=warm,
            )
        except MappingError:
            # Structurally incompatible seed (e.g. a placement computed
            # for a different thread count).
            return cold, False
        if warmed.cost(self.topology, comm) <= cold.cost(self.topology, comm):
            return warmed, True
        return cold, False

    def _apply(self, placement: Placement) -> int:
        """Live-rebind only the threads whose assignment changed."""
        machine = self.machine
        moved = 0
        for tid, pu in placement.thread_to_pu.items():
            if tid >= len(self.compute_threads):
                continue
            thread = self.compute_threads[tid]
            target = Bitmap.single(pu)
            if thread.cpuset != target:
                machine.bind_thread(thread, target)
                moved += 1
        for cid, pu in placement.control_to_pu.items():
            if cid >= len(self.control_threads):
                continue
            thread = self.control_threads[cid]
            target = Bitmap.single(pu)
            if thread.cpuset != target:
                machine.bind_thread(thread, target)
                moved += 1
        return moved

    def _finish(self):
        machine = self.machine
        observer = machine.observer
        if observer is not None:
            observer.fold(machine)
        if machine.sanitizer is not None:
            machine.sanitizer.verify(machine)
        seconds = machine.window_drained_at / machine.clock_hz
        if self._finish_cb is not None:
            return self._finish_cb(seconds)
        return seconds
