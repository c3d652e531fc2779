"""Simulated profiler: conv/BN forward/backward breakdown (Figs. 4, 7, 10).

The paper attaches the PyTorch Autograd profiler (batch size 50) and
reports, per model and adaptation algorithm, the average time spent in
convolution and batch-norm forward and backward passes.  The same
decomposition falls directly out of our device cost model; this module
packages it, and additionally models the profiler's *memory* overhead —
the reason the paper could not profile ResNeXt on the Ultra96-v2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.devices.calibrate import METHOD_FLAGS
from repro.devices.cost_model import forward_latency
from repro.engine import ArenaStats
from repro.devices.memory import PROFILER_OVERHEAD, estimate_memory
from repro.devices.spec import DeviceSpec
from repro.models.summary import ModelSummary


class ProfilerOOM(RuntimeError):
    """The profiler's bookkeeping pushed the configuration past device memory."""


@dataclass(frozen=True)
class BreakdownRow:
    """One (model, method) bar group of a breakdown figure."""

    model: str
    method: str
    conv_fw_s: float
    bn_fw_s: float        # includes statistics-recompute work when adapting
    conv_bw_s: float
    bn_bw_s: float
    other_s: float

    @property
    def total_s(self) -> float:
        return (self.conv_fw_s + self.bn_fw_s + self.conv_bw_s
                + self.bn_bw_s + self.other_s)


def breakdown_for(summary: ModelSummary, device: DeviceSpec, method: str,
                  batch_size: int = 50, check_profiler_memory: bool = True
                  ) -> BreakdownRow:
    """Profiled phase decomposition for one configuration.

    Raises :class:`ProfilerOOM` when attaching the profiler would exceed
    the device memory budget (the paper's ResNeXt-on-Ultra96 case).
    """
    if method not in METHOD_FLAGS:
        raise KeyError(f"unknown method {method!r}")
    adapts, backward = METHOD_FLAGS[method]
    if check_profiler_memory:
        estimate = estimate_memory(summary, batch_size, device,
                                   does_backward=backward, profiling=True)
        if not estimate.fits:
            raise ProfilerOOM(
                f"profiling {summary.model_name}/{method} at batch "
                f"{batch_size} needs {estimate.total_gb:.2f} GB "
                f"(x{PROFILER_OVERHEAD} profiler overhead) on "
                f"{device.display_name}")
    lat = forward_latency(summary, batch_size, device,
                          adapts_bn_stats=adapts, does_backward=backward)
    other = (lat.elementwise_fw_s + lat.elementwise_bw_s + lat.overhead_fw_s
             + lat.overhead_bw_s + lat.optimizer_s)
    return BreakdownRow(model=summary.model_name, method=method,
                        conv_fw_s=lat.conv_fw_s, bn_fw_s=lat.bn_fw_total_s,
                        conv_bw_s=lat.conv_bw_s, bn_bw_s=lat.bn_bw_s,
                        other_s=other)


def breakdown_table(summaries: Sequence[ModelSummary], device: DeviceSpec,
                    methods: Sequence[str] = ("no_adapt", "bn_norm", "bn_opt"),
                    batch_size: int = 50) -> List[BreakdownRow]:
    """Breakdown rows for a figure; configurations that OOM under the
    profiler are skipped (matching the paper's missing ResNeXt bars)."""
    rows: List[BreakdownRow] = []
    for summary in summaries:
        for method in methods:
            try:
                rows.append(breakdown_for(summary, device, method, batch_size))
            except ProfilerOOM:
                continue
    return rows


def format_arena_report(stats_by_backend: Dict[str, ArenaStats],
                        title: str = "Workspace arena hit-rates:") -> str:
    """Render per-backend scratch-buffer reuse as an aligned text table.

    ``stats_by_backend`` maps a backend label to its
    :meth:`~repro.engine.Backend.arena_stats` snapshot (or an
    ``InstrumentedBackend.arena_delta()``).  Native profiles expose the
    same numbers on ``NativeProfile.arena``.
    """
    lines = []
    if title:
        lines.append(title)
    header = (f"{'backend':<14s} {'requests':>9s} {'hits':>9s} "
              f"{'hit rate':>9s} {'MB reused':>10s} {'MB alloc':>10s}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, stats in stats_by_backend.items():
        lines.append(
            f"{name:<14s} {stats.requests:9d} {stats.hits:9d} "
            f"{100.0 * stats.hit_rate:8.1f}% {stats.bytes_reused / 1e6:10.1f} "
            f"{stats.bytes_allocated / 1e6:10.1f}")
    return "\n".join(lines)


def format_breakdown(rows: Sequence[BreakdownRow], title: str = "") -> str:
    """Render breakdown rows as an aligned text table (seconds)."""
    lines = []
    if title:
        lines.append(title)
    header = (f"{'model':<14s} {'method':<9s} {'conv fw':>9s} {'bn fw':>9s} "
              f"{'conv bw':>9s} {'bn bw':>9s} {'other':>9s} {'total':>9s}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.model:<14s} {row.method:<9s} {row.conv_fw_s:9.3f} "
            f"{row.bn_fw_s:9.3f} {row.conv_bw_s:9.3f} {row.bn_bw_s:9.3f} "
            f"{row.other_s:9.3f} {row.total_s:9.3f}")
    return "\n".join(lines)
