"""Every module imports on its own, first, in a fresh interpreter.

An import cycle can hide behind import order: a module that fails when
imported first works once some other module has loaded the cycle's
other half.  One subprocess imports every module of the package, each
after purging ``repro*`` from ``sys.modules``, so each import starts
cold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import importlib, json, pkgutil, sys
import repro

names = ["repro"] + [info.name for info in
                     pkgutil.walk_packages(repro.__path__, prefix="repro.")]
failures = {}
for name in names:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as error:
        failures[name] = f"{type(error).__name__}: {error}"
print(json.dumps({"imported": len(names), "failures": failures}))
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["imported"] > 100
    assert report["failures"] == {}
