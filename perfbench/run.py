#!/usr/bin/env python3
"""Placement-pipeline benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload paper-placed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrappers
installed (regen-quick keeps one per-cell timer around the executor's
``run_cell``, which is how ``cell_ms_*`` is measured in pool workers).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including ``trace.overhead``; its spans are written
to ``.perfbench_out/spans-<workload>-seed<seed>.json`` when it ends.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; progress goes to
standard error. Exit code 2 means the repository sources were not found
next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("paper-placed", "regen-quick", "map-large")
#: Variables that would change a workload if inherited from the caller.
ISOLATED_ENV = ("REPRO_JOBS", "REPRO_SCALE", "REPRO_SANITIZE", "ORWL_AFFINITY")
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "placement_cost_rel": "ratio",
}
PER_LAYER = {
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_run_s": "events/s",
    "sim.chase_events": "count",
    "sim.scheduler.place_s": "s",
    "sim.scheduler.place_calls": "count",
    "sim.scheduler.place_share": "ratio",
    "treematch.map_s": "s",
    "treematch.map_calls": "count",
    "treematch.refine_sweeps": "count",
    "parallel.run_jobs_s": "s",
    "parallel.cells": "count",
    "parallel.cache.get_s": "s",
    "parallel.cache.put_s": "s",
    "parallel.cache.hits": "count",
    "parallel.cache.misses": "count",
    "parallel.cache.hit_ratio": "ratio",
    "experiments.assemble_s": "s",
    "affinity.run_s": "s",
    "affinity.windows": "count",
    "affinity.remaps": "count",
    "apps.build_s": "s",
    "orwl.schedule_s": "s",
    "orwl.dependency_s": "s",
    "openmp.prepare_s": "s",
    "topology.bind_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def isolate_env(cache_dir: Path) -> None:
    """Drop caller settings that change a workload; never use ~/.cache."""
    for key in list(os.environ):
        if key in ISOLATED_ENV or key.startswith("REPRO_CACHE"):
            del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)


def make_workload(name: str, workers: int, tmp: Path):
    from workloads import MapLarge, PaperPlaced, RegenQuick

    if name == "paper-placed":
        return PaperPlaced()
    if name == "regen-quick":
        return RegenQuick(workers, tmp)
    return MapLarge()


def one_pass(wl, ctx, traced: bool, pass_dir: Path):
    from tracing import Recorder, install_cell_timer, install_layers

    pass_dir.mkdir(parents=True)
    rec = Recorder(pass_dir, traced=traced)
    if wl.name == "regen-quick":
        install_cell_timer(rec)
    if traced:
        install_layers(rec)
    reset_peak_rss()
    try:
        t0 = time.perf_counter()
        out = wl.run_pass(ctx, rec)
        wall = time.perf_counter() - t0
    finally:
        rec.uninstall()
    out.extra["rss_mb"] = peak_rss_mb()
    lines = rec.read_worker_logs()
    if wl.name == "regen-quick":
        wl.collect(ctx, out, lines)
        cache = out.extra.pop("cache")
        rec.counts["parallel.cache.hits"] += cache.hits
        rec.counts["parallel.cache.misses"] += cache.misses
    return rec, wall, out


def measure(wl, ctx, seconds: float, traced: bool, tmp: Path) -> list:
    """Timed passes until the next one would end after *seconds*.

    Traced runs alternate untraced and traced passes (at least one of
    each, ending on a traced one) so ``trace.overhead`` compares passes
    taken under the same conditions.
    """
    passes = []
    start = time.perf_counter()
    while True:
        flag = traced and len(passes) % 2 == 1
        rec, wall, out = one_pass(wl, ctx, flag, tmp / f"pass-{len(passes)}")
        passes.append((flag, wall, out, rec))
        log(f"pass {len(passes)} {'traced' if flag else 'untraced'} {wall:.3f} s")
        if traced and len(passes) % 2:
            continue
        typical = statistics.median(p[1] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from process start to the end of the workload's setup."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup child failed: {line!r}")
    return statistics.median(samples)


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux ``clear_refs``).

    The mark otherwise keeps the worst pass of the run, and which pass
    peaks highest depends on the allocator's history: the same
    map-large run peaked at 220, 250 or 263 MB.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since the last reset, or of any pool worker so far."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def quantile_ms(samples: list, q: int) -> float:
    """The *q*-th decile of *samples* (seconds), in ms."""
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=10, method="inclusive")[q - 1] * 1e3


def check_outputs(wl, ctx, seed: int, passes: list) -> tuple[int, int, list]:
    """Compare every pass's outputs; returns (attempted, failed, messages)."""
    from workloads import load_reference

    ref = None
    if hasattr(wl, "oracle"):
        ref = load_reference(wl.name, seed)
        if ref is None:
            log("no stored reference for this seed; running the object-core oracle")
            try:
                ref = wl.oracle(ctx)
            except Exception as exc:
                ref = {}
                log(f"oracle failed: {exc!r}")
    attempted = failed = 0
    messages = []
    for _, _, out, _ in passes:
        errors = out.errors + out.mismatches
        wl.check(ctx, out.outputs, ref, errors)
        attempted += len(out.outputs) + len(out.errors) + out.extra.get("warm_served", 0)
        failed += len(errors)
        messages += errors
    attempted = max(attempted, failed, 1)
    return attempted, failed, messages


def layer_metrics(passes: list) -> tuple[dict, list]:
    from tracing import fold

    traced = [p for p in passes if p[0]]
    plain = [p for p in passes if not p[0]]
    n = len(traced)
    spans = [s for p in traced for s in p[3].spans]
    counts: dict = {}
    for p in traced:
        for k, v in p[3].counts.items():
            counts[k] = counts.get(k, 0.0) + v
    f = fold(spans)

    def per_pass(name, field="total"):
        return f[name][field] / n if name in f else 0.0

    def count(name):
        return counts.get(name, 0.0) / n

    run_s = per_pass("sim.run")
    place_s = count("sim.scheduler.place_s")
    hits, misses = count("parallel.cache.hits"), count("parallel.cache.misses")
    traced_wall = statistics.median(p[1] for p in traced)
    m = {
        "sim.run_s": run_s,
        "sim.self_s": per_pass("sim.run", "self"),
        "sim.events": count("sim.events"),
        "sim.events_per_run_s": count("sim.events") / run_s if run_s else 0.0,
        "sim.chase_events": count("sim.chase_events"),
        "sim.scheduler.place_s": place_s,
        "sim.scheduler.place_calls": count("sim.scheduler.place_calls"),
        "sim.scheduler.place_share": place_s / run_s if run_s else 0.0,
        "treematch.map_s": per_pass("treematch.map"),
        "treematch.map_calls": per_pass("treematch.map", "calls"),
        "treematch.refine_sweeps": count("treematch.refine_sweeps"),
        "parallel.run_jobs_s": per_pass("parallel.run_jobs"),
        "parallel.cells": per_pass("parallel.cell", "calls"),
        "parallel.cache.get_s": per_pass("parallel.cache.get"),
        "parallel.cache.put_s": per_pass("parallel.cache.put"),
        "parallel.cache.hits": hits,
        "parallel.cache.misses": misses,
        "parallel.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "experiments.assemble_s": per_pass("experiments.assemble", "self"),
        "affinity.run_s": per_pass("affinity.run"),
        "affinity.windows": count("affinity.windows"),
        "affinity.remaps": count("affinity.remaps"),
        "apps.build_s": per_pass("apps.build"),
        "orwl.schedule_s": per_pass("orwl.schedule"),
        "orwl.dependency_s": per_pass("orwl.dependency"),
        "openmp.prepare_s": per_pass("openmp.prepare"),
        "topology.bind_s": per_pass("topology.bind"),
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / statistics.median(p[1] for p in plain),
    }
    return m, spans


def run(args, tmp: Path) -> dict:
    from repro.sim.shard import available_cpus

    workers = min(2, available_cpus())
    wl = make_workload(args.workload, workers, tmp)
    log(f"workload={wl.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} workers={workers}")
    ctx = wl.setup(args.seed)
    passes = measure(wl, ctx, args.seconds, bool(args.trace), tmp)
    attempted, failed, messages = check_outputs(wl, ctx, args.seed, passes)
    for key, msg in messages[:20]:
        log(f"FAILED {key}: {msg[:400]}")

    if args.trace:
        values, spans = layer_metrics(passes)
        units = PER_LAYER
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{wl.name}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "workers": workers,
                       "fields": ["id", "parent", "name", "t0", "t1", "leaf_s"],
                       "spans": spans, "metrics": values}, fh)
    else:
        plain = [p for p in passes if not p[0]]
        cells = [c for p in plain for c in p[2].cell_s]
        values = {
            "setup_s": setup_seconds(args.workload, args.seed),
            "wall_s": statistics.median(p[1] for p in plain),
            "cell_ms_p50": quantile_ms(cells, 5),
            "cell_ms_p90": quantile_ms(cells, 9),
            "peak_rss_mb": statistics.median(p[2].extra["rss_mb"] for p in plain),
            "placement_cost_rel": wl.quality(ctx),
        }
        units = END_TO_END
        log(f"{len(plain)} passes, {len(cells)} cells")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders dicts and sets; a random hash seed moves
        # map-large's peak RSS by ~12% from one process to the next.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: repository sources not found at {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    isolate_env(tmp / "default-cache")
    sys.path.insert(0, str(SRC))
    # ``import repro.parallel`` on its own fails cold with a circular
    # import; importing repro.experiments first is the working order.
    import repro.experiments  # noqa: F401

    if args.setup_only:
        make_workload(args.workload, 1, tmp).setup(args.seed)
        print("ready", flush=True)
        return 0
    tmp.mkdir(parents=True)
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
