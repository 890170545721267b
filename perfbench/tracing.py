"""Host-time spans and counts recorded at layer boundaries, from outside ``src/``.

The benchmark never edits the program. It replaces public functions of
``repro`` with thin wrappers for the length of a traced pass and puts
the originals back afterwards (:meth:`Recorder.uninstall`). A wrapper
opens a span (name, start, end, parent) around the call and, for some
boundaries, adds counts read off the objects involved
(``engine.events_processed``, ``core_stats``, ``refine_stats``,
``ResultCache.hits``).

Spans live in memory. Cells that ``run_jobs`` sends to forked pool
workers inherit the installed wrappers and the open span stack, so a
worker's cell span names the parent process's ``run_jobs`` span as its
parent; the worker appends its spans to a per-process JSON-lines file in
the pass directory after each cell (:func:`timed_cell`), and the parent
merges those files when the pass ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`fold`). ``OSScheduler.place`` is
called thousands of times per cell, so it is timed as a *leaf*: its
durations are summed into the enclosing span instead of each becoming a
span of its own.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

perf_counter = time.perf_counter

#: The recorder whose wrappers are installed; forked workers inherit it.
ACTIVE: "Recorder | None" = None


class Recorder:
    """Span list, counters and the patches that feed them."""

    def __init__(self, log_dir: Path, *, traced: bool) -> None:
        self.log_dir = Path(log_dir)
        self.traced = traced
        self.pid = os.getpid()
        self.spans: list[list] = []  # [sid, parent, name, t0, t1, leaf_s]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._n = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _adopt_fork(self) -> None:
        """First use inside a forked worker: drop the parent's records but
        keep its open span stack, whose top becomes the worker's parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counts = defaultdict(float)

    def open(self, name: str) -> list:
        self._adopt_fork()
        self._n += 1
        parent = self._stack[-1][0] if self._stack else None
        span = [f"{self.pid}.{self._n}", parent, name, perf_counter(), 0.0, 0.0]
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def add_leaf(self, name: str, dt: float) -> None:
        """Time spent in a leaf call, charged to the enclosing span."""
        self.counts[name + "_s"] += dt
        self.counts[name + "_calls"] += 1
        if self._stack:
            self._stack[-1][5] += dt

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a spanned call (see :func:`_spanned`)."""
        self.patch(owner, attr, _spanned(self, owner.__dict__[attr], name, after))

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if ACTIVE is self:
            ACTIVE = None

    # -- worker logs ---------------------------------------------------------

    def dump_worker(self, line: dict) -> None:
        """Append one cell's record to this process's log file."""
        with open(self.log_dir / f"cells-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")

    def read_worker_logs(self) -> list[dict]:
        """Every cell record of the pass; merges worker spans and counts."""
        lines = []
        for path in sorted(self.log_dir.glob("cells-*.jsonl")):
            with open(path) as fh:
                lines.extend(json.loads(raw) for raw in fh)
        for line in lines:
            self.spans.extend(line.get("spans", ()))
            for k, v in line.get("counts", {}).items():
                self.counts[k] += v
        return lines


def timed_cell(job):
    """Drop-in for ``repro.parallel.executor.run_cell`` that logs host time.

    Module-level so the process pool can pickle it by reference. Runs in
    a worker (or inline in the parent when only one cell is cold).
    """
    from repro.parallel.jobs import run_cell

    rec = ACTIVE
    in_worker = os.getpid() != _parent_pid
    if in_worker:
        rec.spans = []
        rec.counts = defaultdict(float)
    t0 = perf_counter()
    if rec.traced:
        with rec.span("parallel.cell"):
            payload = run_cell(job)
    else:
        payload = run_cell(job)
    line = {"key": job_key(job), "dt": perf_counter() - t0}
    if in_worker and rec.traced:
        line["spans"] = rec.spans
        line["counts"] = dict(rec.counts)
    rec.dump_worker(line)
    return payload


_parent_pid = os.getpid()


def job_key(job) -> str:
    """Stable name of an experiment cell: its registry name and params."""
    return json.dumps([job.cell, dict(job.params)], sort_keys=True)


def install_cell_timer(rec: Recorder) -> None:
    """Route ``run_jobs`` cells through :func:`timed_cell` (both modes)."""
    global ACTIVE, _parent_pid
    import repro.parallel.executor as executor

    ACTIVE = rec
    _parent_pid = os.getpid()
    rec.patch(executor, "run_cell", timed_cell)


def install_layers(rec: Recorder) -> None:
    """Wrap every layer boundary of the per-layer table (traced runs)."""
    import repro.affinity.controller as controller
    import repro.apps.lk23 as lk23
    import repro.apps.matmul as matmul
    import repro.apps.video.pipeline as video
    import repro.experiments as experiments
    import repro.experiments.adaptive as adaptive
    import repro.experiments.figures as figures
    import repro.experiments.tables as tables
    import repro.orwl.affinity as orwl_affinity
    import repro.treematch.bisect as bisect
    import repro.treematch.grouping as grouping
    import repro.treematch.mapping as mapping
    import repro.treematch.strategies as strategies
    from repro.affinity.controller import AdaptiveController
    from repro.openmp.runtime import OpenMPRuntime
    from repro.orwl.affinity import AffinityModule
    from repro.orwl.runtime import Runtime
    from repro.parallel.cache import ResultCache
    from repro.sim.machine import SimMachine

    # Simulator: events, chase events and the scheduler leaf per run.
    for attr in ("run", "run_window"):
        _wrap_sim(rec, SimMachine, attr)

    # TreeMatch: every mapping entry point, nested calls folded by name.
    rec.wrap(AffinityModule, "affinity_compute", "treematch.map")
    rec.wrap(strategies, "map_with_strategy", "treematch.map")
    rec.wrap(mapping, "multilevel_map", "treematch.map")
    tm = mapping.__dict__["treematch_map"]
    for owner in (mapping, orwl_affinity, controller, figures):
        rec.patch(owner, "treematch_map", _spanned(rec, tm, "treematch.map"))
    rg = grouping.__dict__["refine_groups"]
    refine = _counted_refine(rec, rg)
    for owner in (grouping, mapping, bisect):
        rec.patch(owner, "refine_groups", refine)

    # Executor and cache (the parent side of regen-quick).
    rj = figures.__dict__["run_jobs"]
    for owner in (figures, tables):
        rec.patch(owner, "run_jobs", _spanned(rec, rj, "parallel.run_jobs"))
    rec.wrap(ResultCache, "get", "parallel.cache.get")
    rec.wrap(ResultCache, "put", "parallel.cache.put")

    # Figure/table assembly around run_jobs.
    for name in ("fig4_lk23", "fig5_matmul", "fig6_video",
                 "table2_lk23_counters", "table3_matmul_counters",
                 "table4_video_counters"):
        fn = experiments.__dict__[name]
        wrapped = _spanned(rec, fn, "experiments.assemble")
        rec.patch(experiments, name, wrapped)
        home = figures if name.startswith("fig") else tables
        rec.patch(home, name, wrapped)

    # Adaptive controller.
    def controller_counts(args, counts):
        counts["affinity.windows"] += args[0].windows_run
        counts["affinity.remaps"] += len(args[0].decisions)

    rec.wrap(AdaptiveController, "run", "affinity.run", controller_counts)

    # App builders and runtime steps.
    rec.wrap(lk23, "build_orwl_lk23", "apps.build")
    rec.wrap(matmul, "build_orwl_matmul", "apps.build")
    rec.wrap(video, "build_orwl_video", "apps.build")
    rec.wrap(adaptive, "build_runtime", "apps.build")
    rec.wrap(Runtime, "schedule", "orwl.schedule")
    rec.wrap(AffinityModule, "dependency_get", "orwl.dependency")
    rec.wrap(AffinityModule, "affinity_set", "topology.bind")
    rec.wrap(OpenMPRuntime, "prepare_run", "openmp.prepare")


def _spanned(rec: Recorder, fn, name: str, after=None):
    """*fn* inside a span; *after(args, counts)* may add counts once it
    returned (for methods ``args[0]`` is the instance)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, rec.counts)
        return result

    return wrapper


def _counted_refine(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(m, groups, *, max_rounds=4, stats=None):
        own = {} if stats is None else stats
        before = own.get("sweeps", 0)
        out = fn(m, groups, max_rounds=max_rounds, stats=own)
        rec.counts["treematch.refine_sweeps"] += own.get("sweeps", 0) - before
        return out

    return wrapper


def _wrap_sim(rec: Recorder, cls, attr: str) -> None:
    fn = cls.__dict__[attr]

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        sched = self.scheduler
        if "place" not in sched.__dict__:
            # Both fast cores bind ``sched.place`` at loop entry, so the
            # instance attribute must be in place before the first run.
            sched.place = _leaf(rec, sched.place, "sim.scheduler.place")
        ev0 = self.engine.events_processed
        chase0 = self.core_stats.get("chase_events", 0)
        with rec.span("sim.run"):
            out = fn(self, *args, **kwargs)
        rec.counts["sim.events"] += self.engine.events_processed - ev0
        rec.counts["sim.chase_events"] += (
            self.core_stats.get("chase_events", 0) - chase0
        )
        return out

    rec.patch(cls, attr, wrapper)


def _leaf(rec: Recorder, fn, name: str):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add_leaf(name, perf_counter() - t0)

    return wrapper


# -- folding -----------------------------------------------------------------


def fold(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``total`` (outermost spans of that name) and ``self``.

    ``self`` is each span's duration minus the union of its children's
    intervals (clipped to it) minus its leaf time. Children may run in
    other processes (pool workers), which is why coverage is a union
    and not a sum.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[str, list] = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append(s)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0}
    )
    for s in spans:
        sid, parent, name, t0, t1, leaf = s
        covered = _union([(max(c[3], t0), min(c[4], t1)) for c in children[sid]])
        entry = out[name]
        entry["self"] += max(0.0, (t1 - t0) - covered - leaf)
        if not _has_ancestor(by_id, parent, name):
            entry["total"] += t1 - t0
            entry["calls"] += 1
    return out


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _has_ancestor(by_id, parent, name) -> bool:
    while parent in by_id:
        span = by_id[parent]
        if span[2] == name:
            return True
        parent = span[1]
    return False
