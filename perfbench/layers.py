"""Per-layer metrics from the spans of a traced run.

Every request of the timed window has one root span whose duration is
the latency the caller saw: ``bench.round`` on ``stream`` (three
``process_batch`` calls on one batch), ``client.send_frames`` on the
serve workloads.  The other spans of the request are attributed by
their self time (duration minus the part children cover).  On the
serve workloads the daemon's spans are not children of the client's,
so the daemon's share outside ``ingest`` is a residual,
``daemon.self_ms`` = latency - client encode - wire decode - ingest,
covering the client's JSON and socket calls, the wire, the event loop
and the reply.  What the self times do not add up to is reported as
``unattributed.ms``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Collection, Dict, Iterable, List, Optional, Sequence

from measure import median, percentile
from spans import Span, self_times

METHODS = ("no_adapt", "bn_norm", "bn_opt")
KERNELS = ("conv2d_forward", "conv2d_backward", "batchnorm_stats")
ROOTS = ("bench.round", "client.send_frames")

#: per-method metrics, reported as ``<method>.<name>``
METHOD_METRICS = (
    ("engine.conv2d_forward.ms", "ms"),
    ("engine.conv2d_backward.ms", "ms"),
    ("engine.batchnorm_stats.ms", "ms"),
    ("engine.other.ms", "ms"),
    ("engine.calls", "count"),
    ("engine.conv.gmac", "GMAC"),
    ("engine.conv.gmac_per_s", "GMAC/s"),
    ("engine.arena.hit_pct", "%"),
    ("engine.arena.requests", "count"),
    ("engine.arena.mb_allocated", "MB"),
    ("adapt.forward.ms", "ms"),
    ("adapt.self_ms", "ms"),
    ("optim.adam_step.ms", "ms"),
    ("session.process_batch.ms_p50", "ms"),
    ("session.process_batch.ms_p90", "ms"),
)

#: metrics of the layers above the batch, one value per workload run
SHARED_METRICS = (
    ("guard.self_ms", "ms"),
    ("guard.rollbacks", "count"),
    ("session.checkpoint.ms", "ms"),
    ("session.checkpoint.kb", "kB"),
    ("journal.append.ms_p50", "ms"),
    ("journal.append.ms_p90", "ms"),
    ("journal.kb_per_batch", "kB"),
    ("journal.compactions", "count"),
    ("journal.compact.ms", "ms"),
    ("scheduler.wait.ms_p50", "ms"),
    ("scheduler.wait.ms_p90", "ms"),
    ("scheduler.busy_pct", "%"),
    ("scheduler.depth_max", "count"),
    ("manager.ingest.ms_p50", "ms"),
    ("manager.ingest.ms_p90", "ms"),
    ("manager.self_ms", "ms"),
    ("manager.dropped_frames", "count"),
    ("wire.request_kb", "kB"),
    ("wire.decode.ms", "ms"),
    ("daemon.self_ms", "ms"),
    ("client.encode.ms", "ms"),
    ("process.cpu_ms_per_frame", "ms"),
    ("process.threads_max", "count"),
    ("request_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("loadgen.lateness_ms_p90", "ms"),
    ("unattributed.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("failed_pct", "%"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{method}.{name}": unit for method in METHODS
             for name, unit in METHOD_METRICS}
    units.update(SHARED_METRICS)
    return units


def _ms(ns: float) -> float:
    return ns / 1e6


def _pct(samples: Sequence[float], pct: int) -> float:
    if not samples:
        return 0.0
    return median(samples) if pct == 50 else percentile(samples, pct)


def attach_decodes(spans: Iterable[Span]) -> None:
    """Give each ``wire.decode`` the request of the next ``ingest``.

    The daemon decodes a request's arrays before it can know which
    request they belong to; on the dispatcher thread, the ``ingest``
    that follows claims them.
    """
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.name in ("wire.decode", "manager.ingest"):
            by_thread[span.thread].append(span)
    for calls in by_thread.values():
        calls.sort(key=lambda span: span.start)
        pending: List[Span] = []
        for span in calls:
            if span.name == "wire.decode":
                pending.append(span)
                continue
            for decode in pending:
                decode.request = span.request
            pending = []


def _arena_delta(batches: List[Span]) -> List[int]:
    """Arena counters moved by ``batches``, overlapping ones counted once."""
    total = [0, 0, 0]
    group_start = group_end = None
    reach = None
    for span in sorted(batches, key=lambda s: s.start):
        if reach is None or span.start > reach:
            if group_start is not None:
                total = [a + e - s for a, s, e in
                         zip(total, group_start, group_end)]
            group_start, group_end, reach = (span.args["arena0"],
                                             span.args["arena1"], span.end)
        else:
            group_end = [max(a, b) for a, b in
                         zip(group_end, span.args["arena1"])]
            reach = max(reach, span.end)
    if group_start is not None:
        total = [a + e - s for a, s, e in zip(total, group_start, group_end)]
    return total


def per_layer(spans: List[Span], requests: Collection[str], *,
              window: Sequence[int], workers: int = 1,
              extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-layer metrics of the timed ``requests`` from their spans.

    ``requests`` holds the ids of the timed requests; ``window`` is the
    timed interval (ns, CLOCK_MONOTONIC); ``workers`` the scheduler's
    pool size.
    ``extra`` supplies the metrics no span carries (process, failures,
    overhead, wire size) and overrides nothing measured here.
    """
    attach_decodes(spans)
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    mine = [span for span in spans if span.request in requests]
    by_request: Dict[str, List[Span]] = defaultdict(list)
    for span in mine:
        by_request[span.request].append(span)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in mine:
        named[span.name].append(span)

    def method_of(span: Span) -> Optional[str]:
        while span is not None:
            if span.name == "session.process_batch":
                return span.args["method"]
            span = by_id.get(span.parent)
        return None

    metrics = {name: 0.0 for name in metric_units()}
    batches: Dict[str, List[Span]] = defaultdict(list)
    for span in named["session.process_batch"]:
        batches[span.args["method"]].append(span)
    inside: Dict[str, Dict[str, List[Span]]] = defaultdict(
        lambda: defaultdict(list))
    for span in mine:
        if span.name.startswith("engine.") or span.name in (
                "adapt.forward", "optim.adam_step"):
            method = method_of(span)
            if method is not None:
                inside[method][span.name].append(span)

    for method, runs in batches.items():
        count = len(runs)
        spans_of = inside[method]
        if not any(name.startswith("engine.") for name in spans_of):
            raise RuntimeError(f"{method} ran {count} batches but no kernel "
                               "call was traced; the backend hook missed")

        def total_ms(name: str) -> float:
            return _ms(sum(span.duration for span in spans_of[name])) / count

        prefix = method + "."
        for kernel in KERNELS:
            metrics[f"{prefix}engine.{kernel}.ms"] = total_ms("engine." + kernel)
        others = [name for name in spans_of if name.startswith("engine.")
                  and name[len("engine."):] not in KERNELS]
        metrics[prefix + "engine.other.ms"] = sum(
            total_ms(name) for name in others)
        metrics[prefix + "engine.calls"] = sum(
            len(spans_of[name]) for name in spans_of
            if name.startswith("engine.")) / count
        conv = spans_of["engine.conv2d_forward"] + \
            spans_of["engine.conv2d_backward"]
        macs = sum(span.args["macs"] for span in conv)
        conv_s = sum(span.duration for span in conv) / 1e9
        metrics[prefix + "engine.conv.gmac"] = macs / 1e9 / count
        metrics[prefix + "engine.conv.gmac_per_s"] = \
            macs / 1e9 / conv_s if conv_s else 0.0
        acquired, hits, allocated = _arena_delta(runs)
        metrics[prefix + "engine.arena.hit_pct"] = \
            100.0 * hits / acquired if acquired else 0.0
        metrics[prefix + "engine.arena.requests"] = acquired / count
        metrics[prefix + "engine.arena.mb_allocated"] = allocated / 1e6 / count
        metrics[prefix + "adapt.forward.ms"] = total_ms("adapt.forward")
        metrics[prefix + "adapt.self_ms"] = _ms(sum(
            selfs[span.id] for span in spans_of["adapt.forward"])) / count
        metrics[prefix + "optim.adam_step.ms"] = total_ms("optim.adam_step")
        durations = [_ms(span.duration) for span in runs]
        metrics[prefix + "session.process_batch.ms_p50"] = _pct(durations, 50)
        metrics[prefix + "session.process_batch.ms_p90"] = _pct(durations, 90)

    batch_count = sum(len(runs) for runs in batches.values()) or 1
    metrics["guard.self_ms"] = _ms(sum(
        selfs[span.id] for span in named["guard.forward"])) / batch_count
    checkpoints = named["session.checkpoint"]
    metrics["session.checkpoint.ms"] = _ms(sum(
        span.duration for span in checkpoints)) / batch_count
    sizes = [span.args["bytes"] for span in spans
             if span.name == "session.checkpoint" and span.args
             and "bytes" in span.args]
    metrics["session.checkpoint.kb"] = sizes[0] / 1e3 if sizes else 0.0

    appends = named["journal.append"]
    append_ms = [_ms(span.duration) for span in appends]
    metrics["journal.append.ms_p50"] = _pct(append_ms, 50)
    metrics["journal.append.ms_p90"] = _pct(append_ms, 90)
    if appends:
        all_appends = sorted((span for span in spans
                              if span.name == "journal.append"),
                             key=lambda span: span.end)
        first = min(appends, key=lambda span: span.end)
        before = [span.args["size"] for span in all_appends
                  if span.end < first.end]
        base = before[-1] if before else 0
        grown = max(span.args["size"] for span in appends) - base
        metrics["journal.kb_per_batch"] = grown / 1e3 / len(appends)
    compactions = [span for span in spans if span.name == "journal.compact"
                   and window[0] <= span.start < window[1]]
    metrics["journal.compactions"] = float(len(compactions))
    if compactions:
        metrics["journal.compact.ms"] = _ms(sum(
            span.duration for span in compactions)) / len(compactions)

    waits = named["scheduler.wait"]
    runs_ = named["scheduler.run"]
    metrics["scheduler.wait.ms_p50"] = _pct([_ms(s.duration) for s in waits], 50)
    metrics["scheduler.wait.ms_p90"] = _pct([_ms(s.duration) for s in waits], 90)
    if runs_:
        span_ns = window[1] - window[0]
        busy = sum(min(s.end, window[1]) - max(s.start, window[0])
                   for s in runs_ if s.end > window[0] and s.start < window[1])
        metrics["scheduler.busy_pct"] = 100.0 * busy / (workers * span_ns)
        # a batch is queued or running from its submit to its run's end
        events = []
        for wait in waits:
            events.append((wait.start, 1))
        for span in runs_:
            events.append((span.end, -1))
        depth = deepest = 0
        for _, step in sorted(events):
            depth += step
            deepest = max(deepest, depth)
        metrics["scheduler.depth_max"] = float(deepest)

    ingests = named["manager.ingest"]
    metrics["manager.ingest.ms_p50"] = _pct([_ms(s.duration) for s in ingests], 50)
    metrics["manager.ingest.ms_p90"] = _pct([_ms(s.duration) for s in ingests], 90)

    unattributed = []
    manager_self = daemon_self = decode = encode = 0.0
    for request, owned in by_request.items():
        roots = [span for span in owned if span.name in ROOTS]
        if len(roots) != 1:
            continue
        latency = roots[0].duration
        parts = sum(selfs[span.id] for span in owned
                    if span is not roots[0])
        if roots[0].name == "client.send_frames":
            sums = defaultdict(int)
            for span in owned:
                sums[span.name] += span.duration
            residual = latency - sums["client.encode"] \
                - sums["wire.decode"] - sums["manager.ingest"]
            parts += residual
            daemon_self += residual
            decode += sums["wire.decode"]
            encode += sums["client.encode"]
            manager_self += sum(selfs[span.id] for span in owned
                                if span.name in ("manager.ingest",
                                                 "scheduler.run"))
        unattributed.append(latency - parts)
    count = len(unattributed) or 1
    metrics["manager.self_ms"] = _ms(manager_self) / count
    metrics["daemon.self_ms"] = _ms(daemon_self) / count
    metrics["wire.decode.ms"] = _ms(decode) / count
    metrics["client.encode.ms"] = _ms(encode) / count
    metrics["unattributed.ms"] = _ms(sum(unattributed)) / count
    for name, value in (extra or {}).items():
        metrics[name] = float(value)
    return metrics

