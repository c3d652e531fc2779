"""Seeded multi-tenant load generation and the serving latency harness.

The paper's tables cost adaptation per device; the fleet question the
ROADMAP asks — how many streams can one box serve, at what tail
latency — needs *load*, not a single stream.  This module generates it
the way the rest of the repo generates adversity: from a tiny seeded
grammar.

An :class:`ArrivalSpec` is written in the spec grammar of
:mod:`repro.grammar` (``"poisson:rate=120"``, ``"burst:rate=64+size=8"``)
and expands — with a seed — into an *open-loop* schedule of absolute
send instants: the generator sends when the schedule says, whether or
not the daemon has kept up, so queueing delay shows up in the measured
latency instead of silently throttling the offered load (the
coordinated-omission trap).

:func:`run_loadgen` drives one client thread per
:class:`TenantLoad` against a live daemon, records per-request service
latency *and* open-loop latency (measured from the scheduled instant),
samples the daemon's queue depth over ``status``, and reduces it all
to a report with p50/p95/p99 percentiles and throughput.
:func:`run_serving_bench` wraps that in an in-process daemon and
returns the ``serving`` section that :mod:`repro.engine.bench` embeds
in ``BENCH_engine.json`` and ``bench --compare`` gates in CI.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

import numpy as np

from repro import grammar

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "TenantLoad",
    "parse_arrival_spec",
    "run_loadgen",
    "run_serving_bench",
]

#: supported arrival-process kinds
ARRIVAL_KINDS = tuple(grammar.ARRIVAL.kinds)

_DEFAULTS = grammar.ARRIVAL.params("burst")


@dataclass(frozen=True)
class ArrivalSpec:
    """One tenant's open-loop arrival process, fingerprintable.

    ``rate`` is offered frames per second; ``size`` (burst kind only)
    is how many consecutive chunks fire back-to-back before the
    schedule pauses long enough to keep the average rate.
    """

    kind: str = "uniform"
    rate: float = _DEFAULTS["rate"]
    size: int = _DEFAULTS["size"]

    def __post_init__(self):
        grammar.ARRIVAL.params(self.kind)       # refuses an unknown kind
        if not self.rate > 0:
            raise ValueError("arrival rate must be > 0 frames/s")
        if self.size < 1:
            raise ValueError("burst size must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "ArrivalSpec":
        """Parse the compact form, e.g. ``"poisson:rate=120"``."""
        return grammar.parse(text, grammar.ARRIVAL,
                             lambda kind, params, at: cls(kind, **params))

    def compact(self) -> str:
        """Canonical compact form (parse → compact round-trips)."""
        params = [("rate", self.rate)]
        if self.kind == "burst" or self.size != _DEFAULTS["size"]:
            params.append(("size", self.size))
        return grammar.format_spec(self.kind, params)

    def gaps(self, chunk_frames: int, seed: int = 0) -> Iterator[float]:
        """Infinite stream of inter-send gaps (seconds) between chunks.

        Seeded and deterministic: the same (spec, chunk size, seed)
        always yields the same schedule, which is what makes a serving
        benchmark comparable across runs.
        """
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        interval = chunk_frames / self.rate
        if self.kind == "uniform":
            while True:
                yield interval
        elif self.kind == "poisson":
            rng = np.random.default_rng(
                np.random.SeedSequence((int(seed), 0x10adc)))
            while True:
                yield float(rng.exponential(interval))
        else:       # burst: `size` chunks back-to-back, then a pause
            while True:
                for _ in range(self.size - 1):
                    yield 0.0
                yield interval * self.size

    def offsets(self, chunks: int, chunk_frames: int,
                seed: int = 0) -> np.ndarray:
        """Absolute send offsets (s) for ``chunks`` requests."""
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        gaps = self.gaps(chunk_frames, seed)
        out = np.empty(chunks, dtype=np.float64)
        out[0] = 0.0
        for index in range(1, chunks):
            out[index] = out[index - 1] + next(gaps)
        return out


def parse_arrival_spec(text: str) -> ArrivalSpec:
    """Module-level alias mirroring ``parse_fault_specs`` ergonomics."""
    return ArrivalSpec.parse(text)


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's offered load: spec, volume, and arrival process."""

    spec: "TenantSpec"          # noqa: F821 — imported lazily below
    frames: int = 128
    #: frames per request; 0 means one batch per request
    chunk_frames: int = 0
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.chunk_frames < 0:
            raise ValueError("chunk_frames must be >= 0")

    @property
    def request_frames(self) -> int:
        return self.chunk_frames or self.spec.batch_size


def _make_stream(load: TenantLoad, seed: int) -> List[tuple]:
    """Seeded synthetic frames for one tenant, carved per request."""
    # crc32, not hash(): the tenant-name entropy must survive Python's
    # per-process string-hash randomization to stay reproducible
    rng = np.random.default_rng(np.random.SeedSequence(
        (int(seed), zlib.crc32(load.spec.tenant.encode("utf-8")))))
    size = load.spec.image_size
    per = load.request_frames
    chunks = []
    remaining = load.frames
    while remaining > 0:
        count = min(per, remaining)
        images = rng.standard_normal((count, 3, size, size)).astype(
            np.float32)
        labels = rng.integers(0, 10, size=count).astype(np.int64)
        chunks.append((images, labels))
        remaining -= count
    return chunks


def latency_percentiles(values_ms: Sequence[float]) -> dict:
    if not values_ms:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0,
                "max": 0.0}
    data = np.asarray(values_ms, dtype=np.float64)
    p50, p95, p99 = np.percentile(data, [50.0, 95.0, 99.0])
    return {"p50": round(float(p50), 3), "p95": round(float(p95), 3),
            "p99": round(float(p99), 3),
            "mean": round(float(data.mean()), 3),
            "max": round(float(data.max()), 3)}


class _TenantRunner(threading.Thread):
    """One tenant's open-loop sender (daemon thread; joined by caller)."""

    def __init__(self, host: str, port: int, load: TenantLoad, seed: int,
                 barrier: threading.Barrier, *, connect_timeout: float,
                 call_timeout: float, retries: int) -> None:
        super().__init__(daemon=True, name=f"loadgen-{load.spec.tenant}")
        self._host = host
        self._port = port
        self.load = load
        self._seed = seed
        self._barrier = barrier
        self._connect_timeout = connect_timeout
        self._call_timeout = call_timeout
        self._retries = retries
        self.samples: List[dict] = []
        self.errors: List[str] = []
        self.final_card = None

    def _wait_start(self) -> None:
        try:
            self._barrier.wait(timeout=60.0)
        except threading.BrokenBarrierError:
            pass        # a peer failed setup; start unaligned rather
            #             than not at all

    def run(self) -> None:
        from repro.serve.client import ServeClient, ServeError
        load = self.load
        chunks = _make_stream(load, self._seed)
        gaps = load.arrival.gaps(load.request_frames, self._seed)
        aligned = False
        try:
            client = ServeClient.connect(
                self._host, self._port, timeout=self._connect_timeout,
                call_timeout=self._call_timeout, retries=self._retries,
                seed=self._seed)
        except OSError as error:
            self.errors.append(f"connect: {error}")
            self._barrier.abort()           # unblock waiting peers
            return
        try:
            with client:
                client.hello(load.spec)
                aligned = True
                self._wait_start()          # all tenants start together
                epoch = time.monotonic()
                scheduled = 0.0
                for index, (images, labels) in enumerate(chunks):
                    if index > 0:
                        scheduled += next(gaps)
                    delay = epoch + scheduled - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    started = time.monotonic()
                    try:
                        ack = client.send_frames(images, labels)
                    except ServeError as error:
                        self.errors.append(f"chunk {index}: {error}")
                        continue
                    finished = time.monotonic()
                    self.samples.append({
                        "tenant": load.spec.tenant,
                        "chunk": index,
                        "scheduled_s": scheduled,
                        "latency_s": finished - started,
                        "open_loop_latency_s": finished - epoch - scheduled,
                        "accepted": int(ack["accepted"]),
                        "dropped": int(ack["dropped"]),
                        "batches_done": int(ack["batches_done"]),
                    })
                self.final_card = client.close_tenant()
        except (ServeError, OSError) as error:
            self.errors.append(str(error))
        finally:
            if not aligned:
                self._barrier.abort()       # hello failed: unblock peers


class _StatusSampler(threading.Thread):
    """Poll the daemon's queue depth while the load runs."""

    def __init__(self, host: str, port: int, every_s: float, *,
                 connect_timeout: float) -> None:
        super().__init__(daemon=True, name="loadgen-status")
        self._host = host
        self._port = port
        self._every_s = every_s
        self._connect_timeout = connect_timeout
        # not `_stop`: that name is a threading.Thread internal
        self._halt = threading.Event()
        self.depths: List[int] = []

    def run(self) -> None:
        from repro.serve.client import ServeClient, ServeError
        try:
            client = ServeClient.connect(self._host, self._port,
                                         timeout=self._connect_timeout)
        except OSError:
            return      # no status samples, the report says so
        with client:
            while not self._halt.wait(self._every_s):
                try:
                    status = client.status()
                except (ServeError, OSError):
                    return      # daemon gone or draining: stop sampling
                pending = sum(t.get("pending_frames", 0)
                              for t in status.get("tenants", {}).values())
                self.depths.append(int(pending))

    def stop(self) -> None:
        self._halt.set()


def run_loadgen(host: str, port: int, loads: Sequence[TenantLoad], *,
                seed: int = 0, status_every_s: float = 0.05,
                connect_timeout: float = 10.0, call_timeout: float = 30.0,
                retries: int = 0) -> dict:
    """Drive the tenant loads against a live daemon; returns the report.

    Open-loop: each tenant sends on its seeded schedule regardless of
    daemon backpressure, so the latency percentiles include queueing
    delay.  ``seed`` shapes every schedule and every synthetic frame —
    the *offered* load is exactly reproducible; the measured latencies
    are, of course, the machine's.
    """
    if not loads:
        raise ValueError("at least one TenantLoad is required")
    barrier = threading.Barrier(len(loads))
    runners = [
        _TenantRunner(host, port, load, seed + index, barrier,
                      connect_timeout=connect_timeout,
                      call_timeout=call_timeout, retries=retries)
        for index, load in enumerate(loads)
    ]
    sampler = None
    if status_every_s > 0:
        sampler = _StatusSampler(host, port, status_every_s,
                                 connect_timeout=connect_timeout)
        sampler.start()
    started = time.monotonic()
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join()
    wall_s = time.monotonic() - started
    if sampler is not None:
        sampler.stop()
        sampler.join(timeout=5.0)

    samples = [sample for runner in runners for sample in runner.samples]
    errors = [error for runner in runners for error in runner.errors]
    accepted = sum(sample["accepted"] for sample in samples)
    dropped = sum(sample["dropped"] for sample in samples)
    latencies = [sample["latency_s"] * 1e3 for sample in samples]
    open_loop = [max(0.0, sample["open_loop_latency_s"]) * 1e3
                 for sample in samples]
    depths = sampler.depths if sampler is not None else []
    per_tenant = {}
    for runner in runners:
        card = runner.final_card
        per_tenant[runner.load.spec.tenant] = {
            "requests": len(runner.samples),
            "arrival": runner.load.arrival.compact(),
            "frames_accepted": sum(s["accepted"] for s in runner.samples),
            "frames_dropped": sum(s["dropped"] for s in runner.samples),
            "batches_done": (int(card.batches_total)
                             if card is not None else 0),
            "latency_ms": latency_percentiles(
                [s["latency_s"] * 1e3 for s in runner.samples]),
            "errors": len(runner.errors),
        }
    return {
        "tenants": sorted(load.spec.tenant for load in loads),
        "seed": int(seed),
        "requests": len(samples),
        "frames_offered": sum(load.frames for load in loads),
        "frames_accepted": accepted,
        "frames_dropped": dropped,
        "wall_s": round(wall_s, 4),
        "frames_per_s": round(accepted / wall_s, 2) if wall_s > 0 else 0.0,
        "latency_ms": latency_percentiles(latencies),
        "open_loop_latency_ms": latency_percentiles(open_loop),
        "queue_depth": {
            "samples": len(depths),
            "mean": round(float(np.mean(depths)), 2) if depths else 0.0,
            "max": int(max(depths)) if depths else 0,
        },
        "errors": len(errors),
        "error_messages": errors[:8],
        "per_tenant": per_tenant,
    }


def run_serving_bench(*, tenants: int = 2, frames_per_tenant: int = 96,
                      batch_size: int = 16,
                      arrival: str = "poisson:rate=256", seed: int = 0,
                      workers: int = 2, method: str = "bn_opt",
                      guard: bool = True, model: str = "wrn40_2",
                      image_size: int = 16) -> dict:
    """One seeded end-to-end serving benchmark; returns the section
    that ``BENCH_engine.json`` embeds under ``"serving"``.

    Spins an in-process event-loop daemon over a fresh manager, drives
    ``tenants`` concurrent seeded streams through :func:`run_loadgen`,
    and flattens the report into the gated metrics (p50/p95/p99
    latency, frames/s) plus the full report for humans.
    """
    from repro.serve.daemon import ServeDaemon
    from repro.serve.manager import SessionManager, TenantSpec

    spec = ArrivalSpec.parse(arrival)
    manager = SessionManager(max_tenants=max(tenants, 1), workers=workers)
    daemon = ServeDaemon(manager)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = daemon.address
        loads = [
            TenantLoad(
                spec=TenantSpec(tenant=f"load{index}", model=model,
                                method=method, batch_size=batch_size,
                                guard=guard, queue_capacity=2,
                                image_size=image_size, seed=seed + index),
                frames=frames_per_tenant,
                arrival=spec)
            for index in range(tenants)
        ]
        report = run_loadgen(host, port, loads, seed=seed)
    finally:
        daemon.shutdown()
        thread.join(timeout=10.0)
        daemon.close()
    return {
        "config": {"tenants": tenants,
                   "frames_per_tenant": frames_per_tenant,
                   "batch_size": batch_size, "arrival": spec.compact(),
                   "seed": int(seed), "workers": workers,
                   "method": method, "guard": bool(guard),
                   "model": model, "image_size": image_size},
        "requests": report["requests"],
        "frames_accepted": report["frames_accepted"],
        "frames_dropped": report["frames_dropped"],
        "frames_per_s": report["frames_per_s"],
        "latency_ms": report["latency_ms"],
        "open_loop_latency_ms": report["open_loop_latency_ms"],
        "queue_depth": report["queue_depth"],
        "errors": report["errors"],
        "report": report,
    }
