"""``stream``: the paper's unit, in-process, three methods round-robin.

One thread, closed loop.  No-Adapt, BN-Norm and BN-Opt (guard off,
numpy backend) each adapt their own copy of the pre-trained tiny
``wrn40_2``; every round hands the same batch of 16 frames to each in
turn.  A request is one round, so ``request_ms_*`` is the time to adapt
one incoming batch under all three methods; the per-method split is in
the traced run's ``<method>.session.process_batch.*``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import hooks
import inputs
import layers
from measure import (Tally, median, min_samples, percentile, proc_cpu_s,
                     proc_status)
from spans import Tracer, now_ns

METHODS = ("no_adapt", "bn_norm", "bn_opt")
#: batches generated per run; later rounds wrap around them
POOL = 256
WARMUP_ROUNDS = 2
#: rounds (warm-up included) whose predictions are scored
SCORED_ROUNDS = 200
#: timed rounds every run completes, so the p90 has ten beyond it
MIN_ROUNDS = min_samples(90)
#: set-ups per run; ``setup_s`` is their median.  One set-up takes
#: about 0.2 s, so host noise dominates a median of few (NOTES.md)
SETUPS = 9


def build_sessions() -> Dict[str, object]:
    from repro.serve.session import AdaptationSession
    from repro.train.trainer import pretrain_robust

    sessions = {}
    for method in METHODS:
        model = pretrain_robust("wrn40_2", image_size=inputs.IMAGE_SIZE,
                                seed=0)
        sessions[method] = AdaptationSession(model, method,
                                             guard=False).start()
    return sessions


def watch_logits(sessions, bad: List[str]) -> None:
    """Record every batch whose logits are not all finite.

    Looks the method's ``forward`` up on its class at call time, so a
    traced run's wrapper (installed on the class) still runs.
    """
    for name, session in sessions.items():
        runner = session.runner

        def checked(images, runner=runner, name=name):
            logits = type(runner).forward(runner, images)
            if not np.isfinite(logits).all():
                bad.append(name)
            return logits

        runner.forward = checked


class Phase:
    """One timed pass over the stream with fresh sessions.

    With a ``tracer``, every other round runs traced (spans on, through
    a traced backend) and the rest untraced, so both halves see the
    same host and their medians give the tracing overhead.
    """

    def __init__(self, batches, seconds: float,
                 tracer: Optional[Tracer] = None) -> None:
        self.batches = batches
        self.seconds = seconds
        self.tracer = tracer
        self.setup_s: List[float] = []
        #: untraced and traced round latencies
        self.latency_ms: List[float] = []
        self.traced_ms: List[float] = []
        self.backend = None
        self.batch_ms: Dict[str, List[float]] = {m: [] for m in METHODS}
        self.errors: Dict[str, float] = {}
        self.bad_logits: List[str] = []
        self.tally = Tally()
        self.frames = 0
        self.wall_s = 0.0
        self.cpu_ms_per_frame = 0.0
        self.window = (0, 0)

    def setup(self):
        """Load models, start sessions, warm up; returns the sessions."""
        began = time.perf_counter()
        sessions = build_sessions()
        watch_logits(sessions, self.bad_logits)
        for index in range(WARMUP_ROUNDS):
            images, labels = self.batches[index]
            for session in sessions.values():
                session.process_batch(images, labels)
        self.setup_s.append(time.perf_counter() - began)
        return sessions

    def run(self, setups: int = 1) -> "Phase":
        for _ in range(setups):
            sessions = self.setup()
        cpu0 = proc_cpu_s(os.getpid())
        window0 = now_ns()
        began = time.perf_counter()
        index = WARMUP_ROUNDS
        while index < SCORED_ROUNDS or len(self.latency_ms) < MIN_ROUNDS \
                or (self.tracer is not None
                    and len(self.traced_ms) < MIN_ROUNDS) \
                or time.perf_counter() - began < self.seconds:
            images, labels = self.batches[index % len(self.batches)]
            if not self._round(sessions, index, images, labels):
                break
            index += 1
            if index == SCORED_ROUNDS:
                self.errors = {
                    name: 100.0 * (1 - s.frames_correct / s.frames_processed)
                    for name, s in sessions.items()}
        self.wall_s = time.perf_counter() - began
        self.window = (window0, now_ns())
        self.frames = self.tally.attempted * len(METHODS) * inputs.BATCH
        self.cpu_ms_per_frame = 1e3 * (proc_cpu_s(os.getpid()) - cpu0) \
            / max(self.frames, 1)
        self.peak_rss_mb = proc_status(os.getpid())["VmHWM"] / 1024
        return self

    def _round(self, sessions, index, images, labels) -> bool:
        tracer = self.tracer if index % 2 == 0 else None
        with contextlib.ExitStack() as traced:
            if tracer is not None:
                self._trace(traced, tracer, index)
            began = time.perf_counter()
            try:
                for name, session in sessions.items():
                    start = time.perf_counter()
                    session.process_batch(images, labels)
                    self.batch_ms[name].append(
                        1e3 * (time.perf_counter() - start))
            except Exception as error:  # a failed operation ends the run
                self.tally.record(error=f"{type(error).__name__}: {error}")
                return False
            elapsed = 1e3 * (time.perf_counter() - began)
        (self.latency_ms if tracer is None else self.traced_ms).append(
            elapsed)
        self.tally.record()
        return True

    def _trace(self, stack: contextlib.ExitStack, tracer: Tracer,
               index: int) -> None:
        """Turn tracing on for one round; ``stack`` turns it off."""
        from repro.engine import default_backend, use_backend

        if self.backend is None:
            self.backend = hooks.traced_backend(tracer, default_backend())
        for undo in hooks.install_session_layers(tracer):
            stack.callback(undo)
        stack.enter_context(use_backend(self.backend))
        root = tracer.begin("bench.round", request=f"round:{index}")
        stack.callback(tracer.finish, root, tracer.enter(root))


def run(state: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns metrics, counts and check failures.

    A traced run also writes its spans to ``state``.
    """
    batches = inputs.frame_batches(seed, 0, POOL)
    plain = Phase(batches, seconds).run(setups=SETUPS)
    result = {"attempted": plain.tally.attempted,
              "failed": plain.tally.failed,
              "failures": check(seed, plain), "metrics": {}, "detail": {}}
    if result["failures"]:
        return result
    result["detail"] = {f"{m}.batch_ms_p50": median(plain.batch_ms[m])
                        for m in METHODS}
    if not trace:
        latency = plain.latency_ms
        result["metrics"] = {
            "setup_s": median(plain.setup_s),
            "request_ms_p50": median(latency),
            "frames_per_s": plain.frames / plain.wall_s,
            "error_pct": sum(plain.errors.values()) / len(plain.errors),
        }
        result["detail"].update({f"{m}.batch_ms_p90": percentile(
            plain.batch_ms[m], 90) for m in METHODS})
        result["detail"].update({f"{m}.error_pct": plain.errors[m]
                                 for m in METHODS})
        return result
    tracer = Tracer()
    traced = Phase(batches, seconds, tracer).run()
    tracer.write(str(state / f"stream-seed{seed}-trace.json"))
    result["attempted"] += traced.tally.attempted
    result["failed"] += traced.tally.failed
    if traced.tally.failed:
        result["failures"].append(
            f"traced pass: {traced.tally.failed} round(s) raised: "
            f"{sorted(traced.tally.reasons)}")
        return result
    result["metrics"] = traced_metrics(tracer, plain, traced)
    result["failures"] += check_macs(result["metrics"])
    return result


def traced_metrics(tracer: Tracer, plain: Phase, traced: Phase) -> dict:
    """Per-layer metrics of the half-traced pass ``traced``."""
    requests = {span.request for span in tracer.spans
                if span.name == "bench.round"}
    base = median(traced.latency_ms)
    return layers.per_layer(tracer.spans, requests, window=traced.window,
                            extra={
        "request_ms_p90": percentile(plain.latency_ms, 90),
        "peak_rss_mb": plain.peak_rss_mb,
        "process.cpu_ms_per_frame": plain.cpu_ms_per_frame,
        "process.threads_max": proc_status(os.getpid())["Threads"],
        "trace.overhead_pct": 100.0 * (median(traced.traced_ms) - base)
        / base,
        "failed_pct": traced.tally.failed_pct,
    })


def check_macs(metrics: Dict[str, float]) -> List[str]:
    """The traced forward MAC count must be the model summary's."""
    from repro.models.summary import summarize
    from repro.train.trainer import pretrain_robust

    model = pretrain_robust("wrn40_2", image_size=inputs.IMAGE_SIZE, seed=0)
    summary = summarize(model, (3, inputs.IMAGE_SIZE, inputs.IMAGE_SIZE))
    per_frame = sum(layer.macs for layer in summary.layers
                    if layer.kind == "conv")
    expected = per_frame * inputs.BATCH / 1e9
    traced = metrics["no_adapt.engine.conv.gmac"]
    if abs(traced - expected) > 1e-9 * expected:
        return [f"traced {traced:.6f} GMAC per batch, summary {expected:.6f}"]
    return []


def expected_errors() -> Dict[str, Dict[str, float]]:
    """Per seed, each method's error (%) over the first SCORED_ROUNDS
    rounds, as ``record_errors.py`` recorded it (none if the file was
    recorded over another number of rounds)."""
    document = json.loads(
        Path(__file__).with_name("expected_errors.json").read_text())
    return document["errors"] if document["rounds"] == SCORED_ROUNDS else {}


#: largest drift (percentage points) of a recorded error that still
#: passes; a change in arithmetic order may flip a handful of the 3,200
#: scored predictions per method, a broken kernel flips hundreds
ERROR_TOLERANCE = 1.0


def check(seed: int, phase: Phase) -> List[str]:
    """The stream's output checks; returns what failed."""
    failures = []
    if phase.tally.failed:
        failures.append(f"{phase.tally.failed} round(s) raised: "
                        f"{sorted(phase.tally.reasons)}")
    if phase.bad_logits:
        failures.append(f"non-finite logits from {sorted(set(phase.bad_logits))}")
    errors = phase.errors
    if len(errors) != len(METHODS):
        failures.append(f"fewer than {SCORED_ROUNDS} rounds completed")
        return failures
    if not (errors["no_adapt"] > errors["bn_norm"]
            and errors["no_adapt"] > errors["bn_opt"]):
        failures.append(f"adaptation did not beat no_adapt: {errors}")
    recorded = expected_errors().get(str(seed))
    if recorded is not None:
        for method, value in recorded.items():
            if abs(errors[method] - value) > ERROR_TOLERANCE:
                failures.append(f"{method} error {errors[method]:.3f}% is not "
                                f"the recorded {value:.3f}% for seed {seed}")
    return failures
