#!/usr/bin/env python3
"""Write the stored reference outputs the benchmark checks against.

Run from the repository root::

    python3 perfbench/make_refs.py --seeds 0-15

For each seed, runs every simulated item of ``paper-placed`` and
``regen-quick`` once on the object core (the reference oracle) and
stores the simulated seconds and counters under
``perfbench/refs/<workload>/seed-<n>.json``. Regenerate them only when a
change is meant to alter simulated results. ``map-large`` has no stored
reference: its placements are checked for validity and repeatability.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import ROOT, SRC, isolate_env, log, make_workload


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def dumps(ref: dict) -> str:
    """One item per line, so a changed reference shows as a small diff."""
    rows = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ref.items()))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-15 or 1,4,9")
    args = ap.parse_args(argv)
    tmp = ROOT / ".perfbench_tmp" / f"refs-{os.getpid()}"
    isolate_env(tmp / "default-cache")
    sys.path.insert(0, str(SRC))
    import repro.experiments  # noqa: F401  (import-cycle workaround, see run.py)
    from repro.sim.shard import available_cpus
    from workloads import REFS

    try:
        for name in ("paper-placed", "regen-quick"):
            wl = make_workload(name, min(2, available_cpus()), tmp)
            for seed in parse_seeds(args.seeds):
                ref = wl.oracle(wl.setup(seed))
                path = REFS / name / f"seed-{seed}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "w") as fh:
                    fh.write(dumps(ref))
                log(f"wrote {path.relative_to(ROOT)} ({len(ref)} items)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
