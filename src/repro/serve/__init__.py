"""Serve layer: reusable adaptation sessions and the multi-tenant daemon.

The paper's deployment story is a model adapting *in production* on an
edge box; this package is that runtime.  It has two halves:

- :class:`~repro.serve.session.AdaptationSession` — the adaptation
  lifecycle (prepare, guarded per-batch forward, scoring, teardown,
  checkpoint/resume) as one reusable object, and
  :func:`~repro.serve.session.run_stream`, the one driver that plays a
  whole stream through it (fault injection, scenario adapt-gating,
  per-batch stats).  The ``stream`` CLI and the native study runner's
  cells call ``run_stream``, so the daemon serves *exactly* the code
  path the experiments measure.
- The daemon stack — :class:`~repro.serve.manager.SessionManager`
  (whose tenants adapt in forked host processes,
  :mod:`repro.serve.host`), :class:`~repro.serve.daemon.ServeDaemon`,
  :class:`~repro.serve.client.ServeClient` and the wire protocol
  (:mod:`repro.serve.protocol`) — multi-tenant streaming over TCP with
  journal-backed crash recovery: kill the daemon, restart with
  ``--resume``, and every tenant continues bit-identically.

Long-lived operation is hardened and *tested under adversity*:
:mod:`repro.serve.chaos` provides a seeded TCP chaos proxy (mid-frame
disconnects, truncated frames, dribbling senders, garbage) reusing the
robustness layer's fault grammar over its own network namespace; the
daemon answers with connection deadlines, recoverable protocol-error
replies, a ``status`` health message, graceful drain, idle-tenant
eviction, and online journal compaction, while the client retries
idempotently with seeded backoff.

PR 9 made the stack *fast and measurably so*: the daemon is a
``selectors`` event loop (thousands of connections, no
thread-per-connection), batches from many tenants coalesce through the
cross-tenant :class:`~repro.serve.scheduler.BatchScheduler`, and
:mod:`repro.serve.loadgen` generates seeded open-loop multi-tenant
load and reduces it to p50/p95/p99 latency + throughput — the
``serving`` section of ``BENCH_engine.json`` that ``bench --compare``
gates in CI.

CLI: ``repro serve`` / ``repro serve-client`` / ``repro serve-bench``.

The package imports nothing up front: each name below loads its
submodule on first access, so the daemon (``repro serve``) does not
load the client, the load generator or the chaos proxy it never runs.
"""

from __future__ import annotations

import importlib

#: submodule -> the public names it defines
_MODULES = {
    "chaos": ("ChaosProxy", "NETWORK_FAULT_NAMES",
              "parse_network_fault_specs"),
    "client": ("ServeClient", "ServeDisconnectedError", "ServeError",
               "ServeTimeoutError"),
    "daemon": ("ServeDaemon",),
    "host": ("HostError",),
    "loadgen": ("ARRIVAL_KINDS", "ArrivalSpec", "TenantLoad",
                "parse_arrival_spec", "run_loadgen", "run_serving_bench"),
    "manager": ("AdmissionError", "SessionManager", "TenantSpec"),
    "scheduler": ("BatchScheduler", "BatchTicket", "SchedulerClosedError"),
    "session": ("AdaptationSession", "run_stream"),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
