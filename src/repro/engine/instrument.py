"""Instrumented backend wrapper: per-kernel call counts and wall time.

Wrap any backend to observe what the engine actually does::

    inst = InstrumentedBackend(NumpyBackend())
    with use_backend(inst):
        model(x).backward(...)
    print(inst.describe())

The wrapper delegates every leaf kernel to the inner backend, timing
each call with ``perf_counter`` and aggregating by kernel name.  It
shares the inner backend's arena, so ``arena_stats()`` reports the real
bytes allocated/reused during the instrumented region.
:func:`repro.profiling.profiler.profile_native` uses this wrapper to
attribute engine time per op kind without relying solely on the
module-level ``trace_calls`` hook (which cannot see inside backward
passes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict


from repro.engine.arena import ArenaStats
from repro.engine.base import Backend, DelegatingBackend


@dataclass
class OpStat:
    """Aggregate for one kernel: invocation count and total seconds."""

    calls: int = 0
    time_s: float = 0.0


class InstrumentedBackend(DelegatingBackend):
    """Delegating wrapper that counts and times every kernel call."""

    def __init__(self, inner: Backend):
        super().__init__(inner)
        self.op_stats: Dict[str, OpStat] = {}
        self._arena_start: ArenaStats = inner.arena_stats()

    def _call(self, op: str, fn, *args):
        # every kernel goes through _timed, which subclasses override
        # (the benchmark's traced backend turns each call into a span)
        return self._timed(op, fn, *args)

    def _timed(self, op: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        stat = self.op_stats.setdefault(op, OpStat())
        stat.calls += 1
        stat.time_s += elapsed
        return result

    # -- reporting ------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the op counters and re-baseline the arena snapshot."""
        self.op_stats = {}
        self._arena_start = self.inner.arena_stats()

    def arena_delta(self) -> ArenaStats:
        """Arena activity since this wrapper was created (or reset)."""
        now = self.inner.arena_stats()
        base = self._arena_start
        return ArenaStats(
            requests=now.requests - base.requests,
            hits=now.hits - base.hits,
            misses=now.misses - base.misses,
            bytes_allocated=now.bytes_allocated - base.bytes_allocated,
            bytes_reused=now.bytes_reused - base.bytes_reused,
        )

    def total_time_s(self) -> float:
        """Seconds spent inside backend kernels."""
        return sum(stat.time_s for stat in self.op_stats.values())

    def describe(self) -> str:
        """One line per kernel: ``name calls time``; arena summary last."""
        lines = [f"{op:<22s} {stat.calls:6d} calls {stat.time_s * 1e3:9.2f} ms"
                 for op, stat in sorted(self.op_stats.items())]
        arena = self.arena_delta()
        lines.append(
            f"arena: {arena.hits}/{arena.requests} hits "
            f"({100.0 * arena.hit_rate:.0f}%), "
            f"{arena.bytes_reused / 1e6:.1f} MB reused, "
            f"{arena.bytes_allocated / 1e6:.1f} MB allocated")
        return "\n".join(lines)
