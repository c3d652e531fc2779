"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/daemon_launcher.py TRACE_PATH [serve options...]

Installs the daemon-side wrappers (:mod:`hooks`), enters the same CLI
entry as ``python -m repro serve``, and writes the spans as Chrome
trace-event JSON once the daemon has exited.  The traced serve runs
use this in place of ``python -m repro serve``.
"""

from __future__ import annotations

import sys

import hooks
from spans import Tracer

#: daemon span ids start here, so they never collide with the client's
DAEMON_ID_BASE = 10 ** 12


def main(argv) -> int:
    from repro.cli import main as repro_main

    trace_path, serve_args = argv[0], argv[1:]
    tracer = Tracer(id_base=DAEMON_ID_BASE)
    hooks.install_session_layers(tracer)
    hooks.install_serve_layers(tracer)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
