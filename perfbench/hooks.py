"""Span wrappers the traced run installs on the program's entry points.

Only public entry points are wrapped, from the outside, so the program
runs unmodified: the kernel view comes from
:class:`~repro.engine.instrument.InstrumentedBackend`, the rest from
replacing a class's method (or a module's imported function) with a
spanned version.  Every ``install_*`` function returns undo callables.
"""

from __future__ import annotations

import json
from typing import Callable, List

from spans import Tracer, now_ns


def traced_backend(tracer: Tracer, inner):
    """``inner`` behind an InstrumentedBackend whose kernel calls are spans.

    Convolution spans carry their multiply-accumulate count, computed
    from the call's shapes the way :mod:`repro.models.summary` counts
    them: output elements times input channels per group times kernel
    area, once per gradient a backward call computes.
    """
    from repro.engine import InstrumentedBackend

    class _TracedBackend(InstrumentedBackend):
        def _timed(self, op, fn, *args):
            span = tracer.begin("engine." + op)
            outer = tracer.enter(span)
            try:
                result = fn(*args)
            finally:
                tracer.finish(span, outer)
            if op == "conv2d_forward":
                weight = args[1]
                span.args = {"macs": result.size * weight[0].size}
            elif op == "conv2d_backward":
                grad, weight = args[0], args[2]
                passes = int(bool(args[5])) + int(bool(args[6]))
                span.args = {"macs": grad.size * weight[0].size * passes}
            return result

    return _TracedBackend(inner)


def _arena(backend) -> List[int]:
    stats = backend.arena_stats()
    return [stats.requests, stats.hits, stats.bytes_allocated]


def _method_of(session) -> str:
    runner = session.runner
    return getattr(runner, "method", runner).name


def install_session_layers(tracer: Tracer) -> List[Callable[[], None]]:
    """Spans on the adaptation stack: session, guard, method, optimizer."""
    from repro.adapt import BNNorm, BNOpt, NoAdapt
    from repro.engine import get_backend
    from repro.nn.optim import Adam
    from repro.robustness.guard import GuardedAdaptation
    from repro.serve.session import AdaptationSession

    measured: List[int] = []

    def checkpoint_size(result, session) -> dict:
        # every checkpoint of a run has the same shapes, so the first
        # one's encoded size stands for all (taken once, in warm-up)
        if measured:
            return {}
        measured.append(len(json.dumps(result, separators=(",", ":"))))
        return {"bytes": measured[0]}

    undo = [
        tracer.wrap(AdaptationSession, "process_batch",
                    "session.process_batch",
                    args_of=lambda session, *a, **k: {
                        "method": _method_of(session),
                        "arena0": _arena(get_backend())},
                    after_of=lambda _result, session, *a, **k: {
                        "arena1": _arena(get_backend())}),
        tracer.wrap(AdaptationSession, "checkpoint", "session.checkpoint",
                    after_of=checkpoint_size),
        tracer.wrap(GuardedAdaptation, "forward", "guard.forward"),
        tracer.wrap(Adam, "step", "optim.adam_step"),
    ]
    for method in (NoAdapt, BNNorm, BNOpt):
        undo.append(tracer.wrap(method, "forward", "adapt.forward"))
    return undo


def install_serve_layers(tracer: Tracer) -> List[Callable[[], None]]:
    """Spans on the daemon side: wire decode, manager, scheduler, journal.

    The scheduler wrapper splits each submitted batch into a
    ``scheduler.wait`` span (submit to start) and a ``scheduler.run``
    span, both children of the submitting ``ingest`` although they end
    on a worker thread.
    """
    from repro.resilience.journal import RunJournal
    from repro.serve import daemon, manager
    from repro.serve.scheduler import BatchScheduler

    submit = BatchScheduler.submit

    def traced_submit(scheduler, key, fn):
        parent = tracer.current()
        submitted = now_ns()

        def run():
            tracer.record("scheduler.wait", submitted, now_ns(), parent)
            return tracer.call("scheduler.run", fn, parent=parent)

        return submit(scheduler, key, run)

    BatchScheduler.submit = traced_submit
    create_backend = manager.create_backend
    manager.create_backend = lambda *a, **k: traced_backend(
        tracer, create_backend(*a, **k))
    return [
        lambda: setattr(BatchScheduler, "submit", submit),
        lambda: setattr(manager, "create_backend", create_backend),
        tracer.wrap(daemon, "decode_array", "wire.decode"),
        tracer.wrap(manager.SessionManager, "ingest", "manager.ingest",
                    request_of=lambda _m, tenant, *a, chunk=None, **k:
                    f"{tenant}:{chunk}"),
        tracer.wrap(RunJournal, "append", "journal.append",
                    after_of=lambda _result, journal, *a, **k: {
                        "size": journal.size_bytes()}),
        tracer.wrap(RunJournal, "compact", "journal.compact"),
    ]


def install_client(tracer: Tracer, tenant_of) -> List[Callable[[], None]]:
    """Spans on the client side: one per ``send_frames``, encode inside.

    ``tenant_of(client)`` names the tenant a client serves; with the
    explicit ``chunk`` the benchmark passes, that names the request.
    """
    from repro.serve import client

    return [
        tracer.wrap(client.ServeClient, "send_frames", "client.send_frames",
                    request_of=lambda c, *a, chunk=None, **k:
                    f"{tenant_of(c)}:{chunk}"),
        tracer.wrap(client, "encode_array", "client.encode"),
    ]
