"""Import hygiene: every module imports first, and the daemon imports little.

An import cycle can hide behind import order: a module that fails when
imported first works once some other module has loaded the cycle's
other half.  One subprocess imports every module of the package, each
after purging ``repro*`` from ``sys.modules``, so each import starts
cold.

The serve daemon's cold start is what a restarted or scaled-out worker
pays before it can answer, so it must not load code it never runs:
scipy (clients send finished frames; the daemon never corrupts or
augments one), the study harness, the static linter, or the client side
of the serve package (client, load generator, chaos proxy).
"""

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.serve import ServeClient

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

#: modules the serve daemon must not load on its way to listening
_NOT_SERVED = (
    "repro.core.runner", "repro.core.executor", "repro.core.streaming",
    "repro.analysis.rules", "repro.analysis.concurrency",
    "repro.analysis.engine", "repro.analysis.reporters",
    "repro.analysis.baseline", "repro.analysis.sanitize",
    "repro.serve.loadgen", "repro.serve.chaos", "repro.serve.client",
)


def _env():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def test_every_module_imports_first_in_a_fresh_interpreter():
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["imported"] > 100
    assert report["failures"] == {}


def _listening_port(proc, timeout=60.0):
    deadline = time.monotonic() + timeout
    line = b""
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        assert ready, "daemon did not start listening in time"
        chunk = proc.stdout.read1(256)
        assert chunk, f"daemon exited with {proc.wait()} before listening"
        line += chunk
    text = line.decode().strip()
    assert text.startswith("repro serve listening on "), text
    return int(text.rsplit(":", 1)[1])


def test_serve_daemon_imports_only_its_serving_closure(tmp_path):
    log = tmp_path / "imports.log"
    # -v logs every module load, also those made by importlib (the lazy
    # package exports); -X importtime sees only import statements
    argv = [sys.executable, "-v", "-m", "repro", "serve", "--port", "0"]
    with open(log, "wb") as stderr, \
            subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE,
                             stderr=stderr) as proc:
        try:
            port = _listening_port(proc)
            with ServeClient.connect("127.0.0.1", port) as admin:
                admin.shutdown(drain=False)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
    # "import 'repro.serve.daemon' # <...SourceFileLoader object at ...>"
    loaded = {row.split("'")[1] for row in log.read_text().splitlines()
              if row.startswith("import '")}
    assert "repro.serve.daemon" in loaded     # the log was parsed
    assert sorted(filter(_is_scipy, loaded)) == []
    assert sorted(loaded.intersection(_NOT_SERVED)) == []


def test_data_scenarios_and_serve_import_without_scipy():
    script = ("import json, sys\n"
              "import repro.data, repro.scenarios, repro.serve\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert [name for name in loaded if _is_scipy(name)] == []
