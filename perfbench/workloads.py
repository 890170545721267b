"""The benchmark's three workloads and their output checks.

Each workload has ``setup(seed)`` (everything before the first timed
item), ``run_pass(ctx, rec)`` (one timed pass; returns a
:class:`PassOut`), ``check`` (compares a pass's outputs with the stored
reference of the seed, or with the untimed object-core oracle run for
seeds without one) and ``quality`` (the placement-cost ratio, computed
untimed once per run).

Why these three (see README.md for the layer predictions):

* ``paper-placed`` — the paper's placed apps in-process: every thread is
  pinned, so the simulator core loop, runtime bodies and pricing do the
  work and the OS-scheduler model stays on its sticky path.
* ``regen-quick`` — the user-facing "regenerate the paper" path at QUICK
  scale through ``run_jobs`` and a fresh ``ResultCache``: unbound and
  oversubscribed cells make the OS-scheduler model hot, and it is the
  only workload that exercises the executor and the cache.
* ``map-large`` — TreeMatch alone on either side of
  ``MULTILEVEL_CUTOVER``, where mapping is the whole run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracing import job_key

perf_counter = time.perf_counter

REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class PassOut:
    """What one timed pass produced."""

    outputs: list = field(default_factory=list)  # [(key, output)] to check
    cell_s: list = field(default_factory=list)  # host seconds per cell
    errors: list = field(default_factory=list)  # [(key, message)] raised
    mismatches: list = field(default_factory=list)  # [(key, message)] wrong
    extra: dict = field(default_factory=dict)


def counters_dict(c) -> dict:
    return dataclasses.asdict(c)


def canonical(obj):
    """JSON round trip, so stored and fresh outputs compare the same way."""
    return json.loads(json.dumps(obj))


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFS / workload / f"seed-{seed}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


@contextmanager
def object_core():
    """Force every simulation onto the object core, the reference oracle.

    Patches ``SimMachine.run``/``run_window`` for the duration; forked
    pool workers created inside the block inherit the patch.
    """
    from repro.sim.machine import SimMachine

    originals = {a: SimMachine.__dict__[a] for a in ("run", "run_window")}

    def forced(fn):
        def wrapper(self, *args, **kwargs):
            self.core = "object"
            return fn(self, *args, **kwargs)

        return wrapper

    for attr, fn in originals.items():
        setattr(SimMachine, attr, forced(fn))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(SimMachine, attr, fn)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cost_ratio(topology, comm, placement) -> float:
    """``Placement.cost`` over the cost of compact placement on *comm*."""
    from repro.treematch.strategies import compact_placement

    base = compact_placement(topology, comm.order, oversubscribe=True)
    return placement.cost(topology, comm) / base.cost(topology, comm)


def compare(key, got, want, errors) -> None:
    if want is None:
        errors.append((key, "no reference output"))
    elif canonical(got) != want:
        errors.append((key, f"output differs from reference: {got!r} != {want!r}"))


# -- paper-placed --------------------------------------------------------------


class PaperPlaced:
    """Five placed paper cells plus one adaptive phase-shift run."""

    name = "paper-placed"
    #: Cells timed for ``cell_ms_*``; the adaptive run is an item of the
    #: pass (in ``wall_s``) but not a cell.
    CELLS = ("lk23-orwl-affinity-64@SMP12E5", "lk23-openmp-close-160@SMP20E7",
             "matmul-orwl-affinity-32@SMP20E7", "mkl-compact-64@SMP12E5",
             "video-orwl-affinity-HD@SMP12E5-4S")
    ITEMS = CELLS + ("adaptive-phase-shift@SMP20E7",)

    def setup(self, seed: int) -> dict:
        from repro.apps.lk23 import Lk23Config
        from repro.apps.matmul import MatmulConfig
        from repro.apps.video import VideoConfig
        from repro.experiments.adaptive import AdaptSetup
        from repro.topology import machine_by_name

        return {
            "seed": seed,
            "e5": machine_by_name("SMP12E5"),
            "e7": machine_by_name("SMP20E7"),
            "e5_4s": machine_by_name("SMP12E5-4S"),
            "lk23_64": Lk23Config(n=4096, iterations=20, n_threads=64),
            "lk23_160": Lk23Config(n=4096, iterations=20, n_threads=160),
            "matmul_32": MatmulConfig(n=4096, n_tasks=32),
            "video_hd": VideoConfig(resolution="HD", frames=30),
            "adapt": AdaptSetup(seed=seed),
            "placements": [],
        }

    def run_item(self, ctx: dict, key: str):
        """Run one item; returns (checked output, placement triple or None)."""
        from repro.apps.lk23 import run_openmp_lk23, run_orwl_lk23
        from repro.apps.matmul import run_orwl_matmul
        from repro.apps.video import run_orwl_video
        from repro.experiments.adaptive import run_adaptive
        from repro.openmp.mkl import threaded_dgemm

        seed = ctx["seed"]
        if key.startswith("lk23-orwl"):
            res = run_orwl_lk23(ctx["e5"], ctx["lk23_64"], affinity=True, seed=seed)
        elif key.startswith("lk23-openmp"):
            res = run_openmp_lk23(ctx["e7"], ctx["lk23_160"], binding="close",
                                  seed=seed)
        elif key.startswith("matmul"):
            res = run_orwl_matmul(ctx["e7"], ctx["matmul_32"], affinity=True,
                                  seed=seed)
        elif key.startswith("mkl"):
            res = threaded_dgemm(ctx["e5"], 4096, 64, binding="compact", seed=seed)
        elif key.startswith("video"):
            res, _ = run_orwl_video(ctx["e5_4s"], ctx["video_hd"], affinity=True,
                                    seed=seed)
        else:
            out = run_adaptive(ctx["adapt"])
            machine = out["controller"].machine
            return {
                "seconds": out["seconds"],
                "counters": counters_dict(machine.total_counters()),
                "remaps": len(out["remaps"]),
                "windows": out["windows"],
            }, None
        placed = None
        if getattr(res, "placement", None) is not None:
            placed = (res.machine.topology, res.comm, res.placement)
        return {"seconds": res.seconds, "counters": counters_dict(res.counters)}, placed

    def run_pass(self, ctx: dict, rec) -> PassOut:
        out = PassOut()
        first = not ctx["placements"]
        for key in self.ITEMS:
            t0 = perf_counter()
            try:
                with rec.span("item") if rec.traced else nullcontext():
                    got, placed = self.run_item(ctx, key)
            except Exception as exc:  # a failed item counts, the run goes on
                out.errors.append((key, repr(exc)))
                continue
            if key in self.CELLS:
                out.cell_s.append(perf_counter() - t0)
            out.outputs.append((key, got))
            if first and placed is not None:
                ctx["placements"].append(placed)
        return out

    def oracle(self, ctx: dict) -> dict:
        with object_core():
            return {key: canonical(self.run_item(ctx, key)[0]) for key in self.ITEMS}

    def check(self, ctx: dict, outputs: list, ref: dict, errors: list) -> None:
        for key, got in outputs:
            compare(key, got, ref.get(key), errors)

    def quality(self, ctx: dict) -> float:
        return geomean(cost_ratio(*p) for p in ctx["placements"])


# -- regen-quick ---------------------------------------------------------------


class RegenQuick:
    """Figs 4/5/6 (a and b) then Tables II-IV at QUICK scale, cold then warm."""

    name = "regen-quick"
    FIG_MACHINES = (
        ("fig4_lk23", "SMP12E5"), ("fig4_lk23", "SMP20E7"),
        ("fig5_matmul", "SMP12E5"), ("fig5_matmul", "SMP20E7"),
        ("fig6_video", "SMP12E5-4S"), ("fig6_video", "SMP20E7-4S"),
    )
    TABLES = ("table2_lk23_counters", "table3_matmul_counters",
              "table4_video_counters")

    def __init__(self, workers: int, tmp: Path) -> None:
        self.workers = workers
        self.tmp = Path(tmp)
        self._n_cache = 0

    def setup(self, seed: int) -> dict:
        from repro.parallel import source_digest
        from repro.topology import machine_by_name

        for name in ("SMP12E5", "SMP20E7", "SMP12E5-4S", "SMP20E7-4S"):
            machine_by_name(name)
        return {"seed": seed, "digest": source_digest()}

    def _fresh_cache(self, ctx):
        from repro.parallel import ResultCache

        self._n_cache += 1
        return ResultCache(self.tmp / f"cache-{self._n_cache}", digest=ctx["digest"])

    def _regenerate(self, ctx: dict, cache) -> list:
        import repro.experiments as X

        seed, jobs = ctx["seed"], self.workers
        out = [
            getattr(X, fn)(machine, scale=X.QUICK, seed=seed, jobs=jobs, cache=cache)
            for fn, machine in self.FIG_MACHINES
        ]
        out += [
            getattr(X, fn)(scale=X.QUICK, seed=seed, jobs=jobs, cache=cache)
            for fn in self.TABLES
        ]
        return out

    @contextmanager
    def _capture(self, sink: list):
        """Record every ``run_jobs`` call's jobs and payloads into *sink*."""
        import repro.experiments.figures as figures
        import repro.experiments.tables as tables

        original = figures.__dict__["run_jobs"]

        def capture(jobs, **kwargs):
            payloads = original(jobs, **kwargs)
            sink.extend(zip((job_key(j) for j in jobs), payloads))
            return payloads

        figures.run_jobs = tables.run_jobs = capture
        try:
            yield
        finally:
            figures.run_jobs = tables.run_jobs = original

    def run_pass(self, ctx: dict, rec) -> PassOut:
        out = PassOut()
        cache = self._fresh_cache(ctx)
        captured = {"cold": [], "warm": []}
        results = {}
        for phase in ("cold", "warm"):
            try:
                with self._capture(captured[phase]):
                    results[phase] = self._regenerate(ctx, cache)
            except Exception as exc:
                out.errors.append((phase, repr(exc)))
        out.extra = {"results": results, "captured": captured, "cache": cache}
        return out

    def collect(self, ctx: dict, out: PassOut, lines: list) -> None:
        """After the pass: cell times from the worker logs, outputs to check."""
        out.cell_s = [line["dt"] for line in lines]
        results = out.extra.pop("results")
        captured = out.extra.pop("captured")
        cold, warm = captured["cold"], captured["warm"]
        out.outputs = cold
        cold_by_key = dict(cold)
        for key, payload in warm:
            if key not in cold_by_key or canonical(payload) != canonical(cold_by_key[key]):
                out.mismatches.append((key, "warm payload differs from cold payload"))
        if "warm" in results and results["warm"] != results.get("cold"):
            out.mismatches.append(("warm", "warm figures/tables differ from cold"))
        out.extra["warm_served"] = len(warm)

    def oracle(self, ctx: dict) -> dict:
        sink: list = []
        with object_core(), self._capture(sink):
            self._regenerate(ctx, self._fresh_cache(ctx))
        return {key: canonical(payload) for key, payload in sink}

    def check(self, ctx: dict, outputs: list, ref: dict, errors: list) -> None:
        for key, got in outputs:
            compare(key, got, ref.get(key), errors)

    def quality(self, ctx: dict) -> float:
        """Placement-cost ratio of the tables' ORWL (Affinity) rows.

        The cells run in pool workers, so the placements are rebuilt here
        (untimed) through the same app builders and ``affinity_compute``.
        """
        import repro.experiments as X
        from repro.apps.lk23 import Lk23Config, build_orwl_lk23
        from repro.apps.matmul import MatmulConfig, build_orwl_matmul
        from repro.apps.video import VideoConfig
        from repro.apps.video.pipeline import build_orwl_video
        from repro.orwl.runtime import Runtime
        from repro.topology import machine_by_name

        s = X.QUICK
        rows = (
            ("SMP12E5", build_orwl_lk23,
             Lk23Config(n=s.lk23_n, iterations=s.lk23_iterations, n_threads=64)),
            ("SMP12E5", build_orwl_matmul, MatmulConfig(n=s.matmul_n, n_tasks=64)),
            ("SMP12E5-4S", build_orwl_video,
             VideoConfig(resolution="HD", frames=s.video_frames)),
        )
        ratios = []
        for machine, build, cfg in rows:
            topo = machine_by_name(machine)
            rt = Runtime(topo, affinity=True, seed=ctx["seed"])
            build(rt, cfg)
            rt.schedule()
            comm = rt.dependency_get()
            ratios.append(cost_ratio(topo, comm, rt.affinity_compute()))
        return geomean(ratios)


# -- map-large -----------------------------------------------------------------


class MapLarge:
    """``map_with_strategy(strategy="auto")`` on three stencil instances."""

    name = "map-large"
    #: (key, tasks, relabelling, weight jitter, seeded). One size below
    #: and two above ``MULTILEVEL_CUTOVER`` (8192), so both the dense
    #: greedy+refine and the multilevel engine are timed.
    #:
    #: On randomly relabelled or weight-jittered stencils the multilevel
    #: engine's cost ratio swings between about 0.55 and 1.05, and its
    #: time by about ±30%, from one instance to the next, and dense
    #: refinement's time doubles on some jittered instances. A seeded
    #: instance of that kind would make the run-to-run spread exceed any
    #: bound the benchmark may set, so that regime is measured on one
    #: fixed instance (``FIXED_SEED``), and the seeded instances keep
    #: their weights uniform.
    INSTANCES = (
        ("dense-2048", 2048, "random", 0.0, True),
        ("csr-16384", 16384, "symmetry", 0.0, True),
        ("csr-16384-jittered", 16384, "random", 0.2, False),
    )
    FIXED_SEED = 20170905

    def setup(self, seed: int) -> dict:
        import numpy as np

        from repro.topology import machine_by_name

        instances = {}
        for key, n, relabel, jitter, seeded in self.INSTANCES:
            rng = np.random.default_rng(seed if seeded else self.FIXED_SEED)
            instances[key] = self.instance(n, rng, relabel, jitter)
        return {
            "topology": machine_by_name("SMP20E7"),
            "instances": instances,
            "placements": {},
        }

    @staticmethod
    def instance(n: int, rng, relabel: str, jitter: float):
        """A 2-D 5-point stencil with relabelled tasks and jittered weights.

        ``relabel="random"`` applies a random permutation of the tasks;
        ``"symmetry"`` one of the grid's eight rotations and reflections,
        which keeps neighbouring tasks close in label order.
        """
        import numpy as np
        import scipy.sparse as sp

        from repro.treematch import CommunicationMatrix
        from repro.treematch.strategies import MULTILEVEL_CUTOVER

        base = CommunicationMatrix.stencil2d(n, sparse=True).tocsr().tocoo()
        upper = base.row < base.col
        r, c, w = base.row[upper], base.col[upper], base.data[upper]
        w = w * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=w.size))
        if relabel == "random":
            label = rng.permutation(n)
        else:
            width = int(np.ceil(np.sqrt(n)))
            x, y = np.arange(n) % width, np.arange(n) // width
            k = int(rng.integers(8))
            if k & 1:
                x = width - 1 - x
            if k & 2:
                y = y.max() - y
            label = np.argsort(np.argsort(x * width + y if k & 4 else y * width + x))
        r, c = label[r], label[c]
        m = sp.csr_array(sp.coo_array(
            (np.concatenate([w, w]), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=(n, n),
        ))
        return CommunicationMatrix(m if n > MULTILEVEL_CUTOVER else m.toarray())

    def run_pass(self, ctx: dict, rec) -> PassOut:
        import numpy as np

        import repro.treematch.strategies as strategies

        out = PassOut()
        topo = ctx["topology"]
        for key, comm in ctx["instances"].items():
            t0 = perf_counter()
            try:
                with rec.span("item") if rec.traced else nullcontext():
                    placement = strategies.map_with_strategy(topo, comm, strategy="auto")
            except Exception as exc:
                out.errors.append((key, repr(exc)))
                continue
            out.cell_s.append(perf_counter() - t0)
            # Later passes keep only the assignment, so memory does not
            # grow with the number of passes a run fits.
            ctx["placements"].setdefault(key, placement)
            pus = np.array([placement.thread_to_pu.get(t, -1) for t in range(comm.order)])
            out.outputs.append((key, pus))
        return out

    def check(self, ctx: dict, outputs: list, ref, errors: list) -> None:
        """Placements must be valid and identical on every pass."""
        import numpy as np

        topo = ctx["topology"]
        if "checked" not in ctx:
            ctx["checked"] = {}
            for key, placement in ctx["placements"].items():
                bad = placement.violations(topo, n_threads=ctx["instances"][key].order)
                if bad:
                    errors.append((key, f"placement violations: {bad[:3]}"))
        for key, pus in outputs:
            first = ctx["checked"].setdefault(key, pus)
            if not np.array_equal(pus, first):
                errors.append((key, "placement differs between passes"))

    def quality(self, ctx: dict) -> float:
        topo = ctx["topology"]
        return geomean(
            cost_ratio(topo, comm, ctx["placements"][key])
            for key, comm in ctx["instances"].items()
        )
