"""Every ``repro`` module imports cold.

An import cycle shows only when a module is the *first* of its cycle to
be imported, so each module is imported with every ``repro`` module
evicted from ``sys.modules`` first — one fresh interpreter for the
whole sweep, a cold ``repro`` for each module in it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent

_SWEEP = """
import importlib, json, sys, traceback
failures = {}
for name in json.loads(sys.argv[1]):
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=3)
print(json.dumps(failures))
"""


def all_modules() -> list[str]:
    names = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_module_list_covers_the_package():
    names = all_modules()
    assert "repro" in names
    assert "repro.parallel" in names
    assert "repro.sim.scheduler" in names
    assert len(names) > 50


def test_every_module_imports_cold():
    result = subprocess.run(
        [sys.executable, "-c", _SWEEP, json.dumps(all_modules())],
        capture_output=True, text=True, timeout=300,
        cwd=PACKAGE_DIR.parent,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
    )
    assert result.returncode == 0, result.stderr
    failures = json.loads(result.stdout.splitlines()[-1])
    assert failures == {}, "\n".join(
        f"{name}:\n{tb}" for name, tb in failures.items()
    )
