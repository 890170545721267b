#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of one workload, with units.

Run from the repository root::

    python3 perfbench/report.py --workload regen-quick --seed 1 --seconds 30

Runs ``run.py`` twice, untraced (end-to-end metrics) and traced
(per-layer metrics), checks that both runs' outputs were correct and
prints one table. Exit code 1 when either run reports a failed item.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper-placed", "regen-quick", "map-large"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    ok = True
    print(f"{'metric':34s} {'value':>16s}  unit")
    for trace, title in ((0, "end to end"), (1, "per layer (traced run)")):
        result = run_once(args.workload, args.seed, args.seconds, trace)
        print(f"-- {title}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4g}")
        for name, m in result["metrics"].items():
            print(f"{name:34s} {m['value']:16.6g}  {m['unit']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
