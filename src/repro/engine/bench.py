"""Engine micro-benchmark: conv forward/backward and one BN-Opt step.

``python -m repro bench`` times the leaf kernels the paper's latency
breakdowns are made of, once per execution backend, and writes the
results to ``BENCH_engine.json`` so successive PRs accumulate a
comparable perf trajectory.  Three workloads:

- ``conv_forward`` — a representative mid-network convolution (3x3,
  stride 1, pad 1) under ``no_grad``, the shape class that dominates
  every forward-time figure (Figs. 3/6/9);
- ``conv_backward`` — the same convolution's input+weight gradient,
  the bulk of BN-Opt's adaptation overhead (Figs. 4/7/10);
- ``bn_opt_step`` — one full TENT step (forward with BN statistics
  recompute, entropy backward, Adam update on gamma/beta) on a small
  conv-BN stack;
- ``process_batch_<method>`` for no_adapt, bn_norm and bn_opt — one
  :meth:`~repro.serve.session.AdaptationSession.process_batch` of a
  randomly initialised tiny WRN-40-2 (batch 16, 16x16, guard off): the
  paper's unit of cost, forward time = inference + adaptation.

Timings are best-of-``repeats`` wall clock (median is also recorded);
the arena's hit-rate over the measured iterations is reported per
backend.

With ``sweep=True`` the document also gets a ``sweep`` section: a small
native adaptation grid is driven once serially and once through the
process-parallel scheduler (:mod:`repro.parallel`), recording wall time
and cells/sec for each so the sweep-throughput trajectory is tracked
alongside the kernel timings.

With ``serving=True`` (v3) the document also gets a ``serving``
section: a seeded multi-tenant load-generator run against an
in-process event-loop daemon (:mod:`repro.serve.loadgen`), recording
per-request p50/p95/p99 latency, queue depth, and frames/sec — the
serve path's throughput number, gated by the same ``--compare`` CI
gate as the kernels.

:func:`compare_engine_bench` turns two documents into a perf-regression
verdict — ``python -m repro bench --compare BASELINE.json`` exits
non-zero when any kernel slowed down (or sweep throughput dropped)
beyond the tolerance, which is what CI's perf gate runs on every PR.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine import Backend, create_backend, use_backend
from repro.engine.blas import blas_threads

DEFAULT_BENCH_PATH = "BENCH_engine.json"

#: schema version for BENCH_engine.json (bump on incompatible change);
#: v2 added the optional ``sweep`` throughput section, v3 the optional
#: ``serving`` latency/throughput section (repro.serve.loadgen)
BENCH_FORMAT_VERSION = 3


def _time(fn: Callable[[], None], repeats: int, warmup: int = 1) -> Dict[str, float]:
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return {
        "best_s": samples[0],
        "median_s": samples[len(samples) // 2],
        "repeats": repeats,
    }


def _conv_workload(batch: int, channels: int, size: int, seed: int):
    from repro.tensor.tensor import Tensor
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(
        (batch, channels, size, size)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal(
        (channels * 2, channels, 3, 3)).astype(np.float32) * 0.1,
        requires_grad=True)
    return x, w


def _bench_conv(backend: Backend, batch: int, channels: int, size: int,
                repeats: int, seed: int) -> Dict[str, Dict[str, float]]:
    from repro.tensor import no_grad
    from repro.tensor.conv import conv2d
    x, w = _conv_workload(batch, channels, size, seed)

    def forward() -> None:
        with no_grad():
            conv2d(x, w, stride=1, padding=1)

    def forward_backward() -> None:
        x.zero_grad()
        w.zero_grad()
        out = conv2d(x, w, stride=1, padding=1)
        out.backward(np.ones_like(out.data))

    with use_backend(backend):
        fw = _time(forward, repeats)
        bw = _time(forward_backward, repeats)
    return {"conv_forward": fw, "conv_backward": bw}


def _bench_bn_opt_step(backend: Backend, batch: int, repeats: int,
                       seed: int) -> Dict[str, float]:
    from repro import nn
    from repro.adapt.bn_opt import BNOpt
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, bias=False), nn.BatchNorm2d(16),
        nn.ReLU(),
        nn.Conv2d(16, 32, 3, stride=2, padding=1, bias=False),
        nn.BatchNorm2d(32), nn.ReLU(),
        nn.GlobalAvgPool2d(), nn.Linear(32, 10))
    images = rng.standard_normal((batch, 3, 16, 16)).astype(np.float32)
    method = BNOpt(lr=1e-3)

    def step() -> None:
        method.prepare(model)
        method.forward(images)

    with use_backend(backend):
        return _time(step, repeats)


#: methods timed through ``AdaptationSession.process_batch``
PROCESS_BATCH_METHODS = ("no_adapt", "bn_norm", "bn_opt")
#: the fixed ``process_batch`` workload (independent of ``batch``/``size``)
PROCESS_BATCH_WORKLOAD = {"model": "wrn40_2", "profile": "tiny",
                          "batch": 16, "size": 16, "guard": False}


def _bench_process_batch(backend: Backend, repeats: int,
                         seed: int) -> Dict[str, Dict[str, float]]:
    """Time one ``process_batch`` per method on its own fresh model."""
    from repro.models.registry import build_model
    from repro.nn import init as nn_init
    from repro.serve.session import AdaptationSession
    work = PROCESS_BATCH_WORKLOAD
    rng = np.random.default_rng(seed)
    images = rng.standard_normal(
        (work["batch"], 3, work["size"], work["size"])).astype(np.float32)
    labels = rng.integers(0, 10, work["batch"])
    rows: Dict[str, Dict[str, float]] = {}
    for method in PROCESS_BATCH_METHODS:
        nn_init.seed(seed)
        model = build_model(work["model"], profile=work["profile"])
        session = AdaptationSession(model, method, guard=work["guard"])
        with use_backend(backend), session:
            rows[f"process_batch_{method}"] = _time(
                lambda: session.process_batch(images, labels), repeats)
    return rows


def _bench_sweep(workers: int, seed: int) -> dict:
    """Time a small native adaptation grid serially vs in parallel.

    One tiny *untrained* WRN-40-2 (shipped pre-built, so no training
    cost pollutes the throughput number) over a 3-method x 2-batch grid
    with two corruption streams: 6 cells, each real adaptation work on
    the numpy engine.  Cells/sec is the sweep-scheduling metric the
    parallel executor is supposed to move.
    """
    from repro.core.config import StudyConfig
    from repro.core.runner import run_native_study
    from repro.models.registry import build_model

    base = StudyConfig(models=("wrn40_2",),
                       methods=("no_adapt", "bn_norm", "bn_opt"),
                       batch_sizes=(32, 64),
                       corruptions=("gaussian_noise", "fog"),
                       image_size=16, stream_samples=96, seed=seed)
    models = {"wrn40_2": build_model("wrn40_2", profile="tiny")}
    cells = (len(base.models) * len(base.methods) * len(base.batch_sizes))
    section: dict = {
        "cells": cells,
        "grid": {"models": list(base.models),
                 "methods": list(base.methods),
                 "batch_sizes": list(base.batch_sizes),
                 "corruptions": list(base.corruptions),
                 "stream_samples": base.stream_samples},
    }
    from dataclasses import replace as _replace
    for label, n in (("serial", 0), ("parallel", workers)):
        start = time.perf_counter()
        run_native_study(_replace(base, workers=n), models=models)
        wall = time.perf_counter() - start
        section[label] = {"wall_s": wall, "cells_per_s": cells / wall}
        if label == "parallel":
            section[label]["workers"] = workers
    if workers > 1:
        # one worker process measures spawn overhead, not parallelism
        section["speedup_parallel_vs_serial"] = (
            section["parallel"]["cells_per_s"]
            / section["serial"]["cells_per_s"])
    return section


def run_engine_bench(backends: Sequence[str] = ("numpy",),
                     batch: int = 64,
                     channels: int = 16,
                     size: int = 16,
                     repeats: int = 5,
                     seed: int = 0,
                     sweep: bool = False,
                     sweep_workers: int = 0,
                     serving: bool = False,
                     serving_tenants: int = 2,
                     serving_frames: int = 96,
                     serving_batch: int = 16,
                     serving_arrival: str = "poisson:rate=256",
                     serving_workers: int = 2) -> dict:
    """Benchmark every named backend; return the BENCH_engine document.

    ``sweep=True`` appends the sweep-throughput section (serial vs
    ``sweep_workers`` processes; 0 means one per CPU core).
    ``serving=True`` appends the serving latency/throughput section
    (``serving_tenants`` seeded tenant streams of ``serving_frames``
    frames each through an in-process daemon).
    """
    results: Dict[str, dict] = {}
    for name in backends:
        backend = create_backend(name)
        try:
            entry: dict = dict(_bench_conv(backend, batch, channels, size,
                                           repeats, seed))
            entry["bn_opt_step"] = _bench_bn_opt_step(backend, batch,
                                                      repeats, seed)
            entry.update(_bench_process_batch(backend, repeats, seed))
            stats = backend.arena_stats()
            entry["arena"] = {
                "requests": stats.requests,
                "hits": stats.hits,
                "hit_rate": stats.hit_rate,
                "bytes_allocated": stats.bytes_allocated,
                "bytes_reused": stats.bytes_reused,
            }
            results[name] = entry
        finally:
            backend.close()
    doc = {
        "format": "repro.engine_bench",
        "version": BENCH_FORMAT_VERSION,
        "workload": {"batch": batch, "channels": channels, "size": size,
                     "kernel": 3, "repeats": repeats, "seed": seed,
                     "process_batch": dict(PROCESS_BATCH_WORKLOAD)},
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "blas_threads": blas_threads(),
        },
        "backends": results,
    }
    if sweep:
        doc["sweep"] = _bench_sweep(sweep_workers or os.cpu_count() or 1,
                                    seed)
    if serving:
        # lazy import: the serve stack is heavy and the kernel bench
        # must stay runnable without it
        from repro.serve.loadgen import run_serving_bench
        doc["serving"] = run_serving_bench(
            tenants=serving_tenants, frames_per_tenant=serving_frames,
            batch_size=serving_batch, arrival=serving_arrival,
            seed=seed, workers=serving_workers)
    return doc


def write_engine_bench(path: Union[str, Path] = DEFAULT_BENCH_PATH,
                       **kwargs) -> dict:
    """Run the bench and write the JSON document to ``path``."""
    doc = run_engine_bench(**kwargs)
    from repro.resilience.atomic import atomic_write_text
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
    return doc


def format_engine_bench(doc: dict) -> str:
    """Human-readable summary of a BENCH_engine document."""
    lines = [f"engine bench (batch={doc['workload']['batch']}, "
             f"{doc['host']['cpu_count']} cpus)"]
    header = f"{'backend':<12s} {'conv fw':>10s} {'conv bw':>10s} {'bn-opt':>10s}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in doc["backends"].items():
        lines.append(
            f"{name:<12s} {entry['conv_forward']['best_s'] * 1e3:9.2f}ms "
            f"{entry['conv_backward']['best_s'] * 1e3:9.2f}ms "
            f"{entry['bn_opt_step']['best_s'] * 1e3:9.2f}ms"
            + (f"  arena {100 * entry['arena']['hit_rate']:.0f}% hit"
               if entry.get("arena", {}).get("requests") else ""))
    header = f"{'process_batch':<14s}" + "".join(
        f" {method:>10s}" for method in PROCESS_BATCH_METHODS)
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in doc["backends"].items():
        lines.append(f"{name:<14s}" + "".join(
            f" {entry[f'process_batch_{method}']['best_s'] * 1e3:8.2f}ms"
            for method in PROCESS_BATCH_METHODS))
    sweep = doc.get("sweep")
    if sweep:
        speedup = sweep.get("speedup_parallel_vs_serial")
        lines.append(
            f"sweep ({sweep['cells']} cells): "
            f"serial {sweep['serial']['cells_per_s']:.2f} cells/s, "
            f"parallel[{sweep['parallel']['workers']}] "
            f"{sweep['parallel']['cells_per_s']:.2f} cells/s"
            + (f" (x{speedup:.2f})" if speedup is not None else ""))
    serving = doc.get("serving")
    if serving:
        lines.append(format_serving_section(serving))
    return "\n".join(lines)


def format_serving_section(serving: dict) -> str:
    """One-line human summary of a ``serving`` bench section."""
    config = serving.get("config", {})
    latency = serving.get("latency_ms", {})
    line = (f"serving ({config.get('tenants', '?')} tenants x "
            f"{config.get('frames_per_tenant', '?')} frames, "
            f"{config.get('arrival', '?')}): "
            f"p50 {latency.get('p50', 0.0):.1f}ms "
            f"p95 {latency.get('p95', 0.0):.1f}ms "
            f"p99 {latency.get('p99', 0.0):.1f}ms, "
            f"{serving.get('frames_per_s', 0.0):.1f} frames/s")
    if serving.get("frames_dropped"):
        line += f", {serving['frames_dropped']} dropped"
    if serving.get("errors"):
        line += f", {serving['errors']} error(s)"
    return line


# ----------------------------------------------------------------------
# Perf-regression comparison (the CI gate behind ``bench --compare``)
# ----------------------------------------------------------------------

#: timed rows compared per backend (lower is better)
_KERNEL_OPS = ("conv_forward", "conv_backward", "bn_opt_step") + tuple(
    f"process_batch_{method}" for method in PROCESS_BATCH_METHODS)

#: serving latency percentiles compared (lower is better)
_SERVING_LATENCY_METRICS = ("p50", "p95", "p99")


def compare_engine_bench(current: dict, baseline: dict,
                         tolerance_pct: float = 25.0) -> dict:
    """Compare two BENCH_engine documents; flag regressions.

    A kernel regresses when its best time exceeds the baseline's by
    more than ``tolerance_pct`` percent; sweep throughput regresses
    when cells/sec drops by more than the same margin; serving latency
    percentiles (lower is better) and frames/sec (higher is better)
    regress the same way.  Metrics present on only one side are
    skipped, not failed — a v1 baseline (no ``sweep`` section) gates
    the kernels it has and nothing else, and a pre-v3 baseline with no
    ``serving`` section leaves the serving numbers informational (a
    note says so) — the gate never breaks on its own format growth.

    Returns ``{"tolerance_pct", "checked", "regressions", "skipped",
    "notes"}`` where each entry of ``checked``/``regressions`` is
    ``{"metric", "baseline", "current", "ratio"}`` (ratio > 1 means
    slower/worse).
    """
    if tolerance_pct < 0:
        raise ValueError(
            f"tolerance_pct must be >= 0, got {tolerance_pct}")
    allowed = 1.0 + tolerance_pct / 100.0
    checked: List[dict] = []
    regressions: List[dict] = []
    skipped: List[str] = []
    notes: List[str] = []

    def check(metric: str, base_value: Optional[float],
              cur_value: Optional[float], *, lower_is_better: bool) -> None:
        if not base_value or not cur_value or base_value <= 0 \
                or cur_value <= 0:
            skipped.append(metric)
            return
        ratio = (cur_value / base_value if lower_is_better
                 else base_value / cur_value)
        entry = {"metric": metric, "baseline": base_value,
                 "current": cur_value, "ratio": ratio}
        checked.append(entry)
        if ratio > allowed:
            regressions.append(entry)

    base_backends = baseline.get("backends", {})
    for name, entry in current.get("backends", {}).items():
        base_entry = base_backends.get(name, {})
        for op in _KERNEL_OPS:
            check(f"{name}/{op}/best_s",
                  base_entry.get(op, {}).get("best_s"),
                  entry.get(op, {}).get("best_s"), lower_is_better=True)
    for mode in ("serial", "parallel"):
        check(f"sweep/{mode}/cells_per_s",
              baseline.get("sweep", {}).get(mode, {}).get("cells_per_s"),
              current.get("sweep", {}).get(mode, {}).get("cells_per_s"),
              lower_is_better=False)
    cur_serving = current.get("serving") or {}
    base_serving = baseline.get("serving") or {}
    if cur_serving and not base_serving:
        # pre-v3 baseline: report the serving numbers but gate nothing
        # (exactly the v1 no-sweep tolerance, one format later)
        notes.append(
            "baseline has no 'serving' section (pre-v3 format): serving "
            "metrics are informational this run, not gated")
        for name in _SERVING_LATENCY_METRICS:
            skipped.append(f"serving/latency_{name}_ms")
        skipped.append("serving/frames_per_s")
    else:
        for name in _SERVING_LATENCY_METRICS:
            check(f"serving/latency_{name}_ms",
                  base_serving.get("latency_ms", {}).get(name),
                  cur_serving.get("latency_ms", {}).get(name),
                  lower_is_better=True)
        check("serving/frames_per_s",
              base_serving.get("frames_per_s"),
              cur_serving.get("frames_per_s"), lower_is_better=False)
    return {"tolerance_pct": tolerance_pct, "checked": checked,
            "regressions": regressions, "skipped": skipped,
            "notes": notes}


def format_bench_comparison(comparison: dict) -> str:
    """Human-readable verdict for a :func:`compare_engine_bench` result."""
    tolerance = comparison["tolerance_pct"]
    lines = [f"perf comparison (tolerance {tolerance:g}%): "
             f"{len(comparison['checked'])} metric(s) checked, "
             f"{len(comparison['regressions'])} regression(s)"]
    flagged = {entry["metric"] for entry in comparison["regressions"]}
    for entry in comparison["checked"]:
        verdict = "REGRESSED" if entry["metric"] in flagged else "ok"
        lines.append(
            f"  {entry['metric']:<32s} {entry['ratio']:6.2f}x "
            f"({entry['baseline']:.4g} -> {entry['current']:.4g})  "
            f"{verdict}")
    if comparison["skipped"]:
        lines.append("  skipped (absent on one side): "
                     + ", ".join(comparison["skipped"]))
    for note in comparison.get("notes", ()):
        lines.append(f"  note: {note}")
    return "\n".join(lines)
