"""``serve-durable`` and ``serve-saturate``: the daemon, driven over TCP.

The daemon runs as a subprocess (``python -m repro serve``; the traced
pass uses :mod:`daemon_launcher`, which enters the same CLI).  One
benchmark process drives it with two client threads, one connection
and one tenant each, and sends one 16-frame batch per request.

- ``serve-durable``: open loop.  The daemon journals to a fresh file
  with every other flag at its default; both tenants run the default
  :class:`~repro.serve.manager.TenantSpec` (``bn_opt``, guard on) on
  the pre-trained model, each sending :data:`DURABLE_FPS` frames/s on
  a fixed period, half a period apart, well below capacity.  A request
  is timed from the instant it was due, so a stall also charges the
  requests queued behind it.
- ``serve-saturate``: closed loop, the two clients send back to back.
  No journal; both tenants run ``bn_norm`` with the guard on.  A
  request is due when it is sent.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

import hooks
import inputs
import layers
from measure import (Tally, median, min_samples, percentile, proc_cpu_s,
                     proc_status)
from spans import Tracer, now_ns, read_spans

TENANTS = 2
#: frames/s each serve-durable tenant offers (see NOTES.md for the sweep)
DURABLE_FPS = 56.0
#: back-to-back requests per tenant before the timed window opens
WARMUP_REQUESTS = 3
#: serve-saturate requests per tenant that every run completes; the
#: scorecard after this many is the one scored and replayed
SATURATE_SCORED = 150
SETUPS = 3
#: batches generated per tenant; later requests wrap around them
POOL = 256
CALL_TIMEOUT_S = 30.0
SPAWN_TIMEOUT_S = 60.0

#: per workload: tenant method, journal on/off, the open-loop rate per
#: tenant in frames/s (None: closed loop), and the latency limit on the
#: request p90 in ms (None: no limit); BENCHMARK.json quotes the limit
WORKLOADS = {
    "serve-durable": {"method": "bn_opt", "journal": True,
                      "fps": DURABLE_FPS, "p90_limit_ms": 250.0},
    "serve-saturate": {"method": "bn_norm", "journal": False, "fps": None,
                       "p90_limit_ms": None},
}


class Daemon:
    """One ``repro serve`` subprocess, from spawn to exit."""

    def __init__(self, root: Path, state: Path, *, journal: bool,
                 trace_path: Optional[Path] = None) -> None:
        self.journal = None
        options = ["--port", "0"]
        if journal:
            self.journal = state / f"journal-{os.getpid()}-{now_ns()}.jsonl"
            options += ["--journal", str(self.journal)]
        if trace_path is None:
            argv = [sys.executable, "-m", "repro", "serve", *options]
        else:
            launcher = Path(__file__).with_name("daemon_launcher.py")
            argv = [sys.executable, str(launcher), str(trace_path), *options]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   REPRO_CACHE=os.environ["REPRO_CACHE"])
        self.log = open(state / "daemon.log", "ab")
        self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log)
        self.port = self._listening_port()

    def _listening_port(self) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                self.kill()
                raise RuntimeError("daemon did not start listening in time")
            chunk = self.proc.stdout.read1(256)
            if not chunk:
                raise RuntimeError(
                    f"daemon exited with {self.proc.wait()} before listening")
            line += chunk
        text = line.decode().strip()
        if not text.startswith("repro serve listening on "):
            raise RuntimeError(f"unexpected daemon output {text!r}")
        return int(text.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Ask the daemon to shut down and wait until it has exited."""
        from repro.serve import ServeClient, ServeError

        try:
            with ServeClient.connect("127.0.0.1", self.port,
                                     call_timeout=CALL_TIMEOUT_S) as admin:
                admin.shutdown(drain=False)
            self.proc.wait(timeout=60)
        except (ServeError, OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.close()

    def close(self) -> None:
        self.proc.stdout.close()
        self.log.close()
        if self.journal is not None and self.journal.exists():
            self.journal.unlink()


class Tenant:
    """One client thread's connection, tenant and request log."""

    def __init__(self, client, spec, batches, score_at: int) -> None:
        self.client = client
        self.spec = spec
        self.batches = batches
        self.score_at = score_at
        self.chunk = 0
        self.accepted = 0
        self.dropped = 0
        self.last_ack: dict = {}
        self.card = None
        #: per timed request: (request id, due, sent, acked) in ns
        self.timed: List[tuple] = []
        self.tally = Tally()

    def send(self, due: Optional[int] = None) -> None:
        """Send the next batch; timed when ``due`` is given."""
        from repro.serve import ServeError

        images, labels = self.batches[self.chunk % len(self.batches)]
        request = f"{self.spec.tenant}:{self.chunk}"
        sent = now_ns()
        try:
            ack = self.client.send_frames(images, labels, chunk=self.chunk)
        except ServeError as error:
            ack, failure = None, f"{type(error).__name__}: {error}"
        else:
            failure = None
        acked = now_ns()
        self.chunk += 1
        if ack is not None:
            self.accepted += ack["accepted"]
            self.dropped += ack["dropped"]
            self.last_ack = ack
        if due is not None:
            self.tally.record(
                error=failure, sent=len(labels),
                accepted=ack["accepted"] if ack else 0,
                dropped=ack["dropped"] if ack else 0)
            self.timed.append((request, due, sent, acked))
        elif failure is not None:
            raise RuntimeError(f"warm-up request failed: {failure}")
        if self.chunk == self.score_at:
            self.card = self.client.scorecard()

    def run_open(self, start: int, offsets) -> None:
        for offset in offsets:
            due = start + int(offset * 1e9)
            pause = (due - now_ns()) / 1e9
            if pause > 0:
                time.sleep(pause)
            self.send(due)

    def run_closed(self, end: int) -> None:
        while now_ns() < end or self.chunk < self.score_at:
            self.send(now_ns())

    def run_thread(self, target, *args) -> None:
        """A client thread's body: an error it raises ends the tenant's
        requests and counts as one failed operation."""
        try:
            target(*args)
        except Exception as error:  # reported by check(), never lost
            self.tally.record(error=f"{type(error).__name__}: {error}")

    def close(self) -> None:
        self.client.close()


class Pass:
    """One daemon life: set up (possibly several times), then the window."""

    def __init__(self, root: Path, state: Path, config: dict, seed: int,
                 seconds: float, batches, trace_path=None,
                 client_names: Optional[Dict[int, str]] = None) -> None:
        self.config = config
        #: tenant name per client object, for the traced client spans
        self.client_names = client_names
        self.root, self.state = root, state
        self.seed, self.seconds = seed, seconds
        self.batches = batches
        self.trace_path = trace_path
        self.setup_s: List[float] = []
        fps = config["fps"]
        self.arrivals = None if fps is None else [
            inputs.interleaved_arrivals(index, TENANTS, fps / inputs.BATCH,
                                        seconds)
            for index in range(TENANTS)]

    def score_at(self, index: int) -> int:
        if self.arrivals is None:
            return SATURATE_SCORED
        return WARMUP_REQUESTS + len(self.arrivals[index])

    def setup(self):
        from repro.serve import ServeClient, TenantSpec

        began = now_ns()
        daemon = Daemon(self.root, self.state, journal=self.config["journal"],
                        trace_path=self.trace_path)
        tenants = []
        try:
            for index in range(TENANTS):
                spec = TenantSpec(tenant=f"t{index}", train=True,
                                  method=self.config["method"])
                client = ServeClient.connect("127.0.0.1", daemon.port,
                                             call_timeout=CALL_TIMEOUT_S)
                tenants.append(Tenant(client, spec, self.batches[index],
                                      self.score_at(index)))
                if self.client_names is not None:
                    self.client_names[id(client)] = spec.tenant
                client.hello(spec)
            for tenant in tenants:
                for _ in range(WARMUP_REQUESTS):
                    tenant.send()
        except BaseException:
            for tenant in tenants:
                tenant.close()
            daemon.kill()
            raise
        self.setup_s.append((now_ns() - began) / 1e9)
        return daemon, tenants

    def run(self, setups: int = 1) -> "Pass":
        for attempt in range(setups):
            daemon, tenants = self.setup()
            if attempt + 1 < setups:
                for tenant in tenants:
                    tenant.close()
                daemon.stop()
        self.tenants = tenants
        try:
            self.workers = tenants[0].client.status()["scheduler"]["workers"]
            self._window(daemon, tenants)
        finally:
            for tenant in tenants:
                tenant.close()
            daemon.stop()
        return self

    def _window(self, daemon: Daemon, tenants: List[Tenant]) -> None:
        cpu0 = proc_cpu_s(daemon.pid)
        start = now_ns() + 5_000_000        # both threads begin together
        end = start + int(self.seconds * 1e9)
        threads = []
        for index, tenant in enumerate(tenants):
            if self.arrivals is not None:
                target, args = tenant.run_open, (start, self.arrivals[index])
            else:
                target, args = tenant.run_closed, (end,)
            threads.append(threading.Thread(
                target=tenant.run_thread, args=(target, *args),
                name=f"client-{index}"))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        if any(thread.is_alive() for thread in threads):
            daemon.kill()
            raise RuntimeError("client threads did not finish in time")
        if any(tenant.tally.failed for tenant in tenants):
            return          # check() reports it; no metric is computed
        self.window = (start, max(t.timed[-1][3] for t in tenants))
        status = proc_status(daemon.pid)
        self.peak_rss_mb = status["VmHWM"] / 1024
        self.threads = status["Threads"]
        frames = sum(len(t.timed) for t in tenants) * inputs.BATCH
        self.cpu_ms_per_frame = 1e3 * (proc_cpu_s(daemon.pid) - cpu0) / frames

    # -- results -------------------------------------------------------

    @property
    def records(self) -> List[tuple]:
        return [record for tenant in self.tenants for record in tenant.timed]

    def latency_ms(self) -> List[float]:
        return [(acked - due) / 1e6 for _, due, _, acked in self.records]

    def lateness_ms(self) -> List[float]:
        return [(sent - due) / 1e6 for _, due, sent, _ in self.records]

    def frames_per_s(self) -> float:
        accepted = sum(t.accepted for t in self.tenants) \
            - TENANTS * WARMUP_REQUESTS * inputs.BATCH
        return accepted / ((self.window[1] - self.window[0]) / 1e9)

    def error_pct(self) -> float:
        cards = [tenant.card for tenant in self.tenants]
        wrong = sum(c.frames_processed * c.effective_error_pct for c in cards)
        return wrong / sum(c.frames_processed for c in cards)

    def tally(self) -> Tally:
        total = Tally()
        for tenant in self.tenants:
            total.attempted += tenant.tally.attempted
            total.failed += tenant.tally.failed
            for reason, count in tenant.tally.reasons.items():
                total.reasons[reason] = total.reasons.get(reason, 0) + count
        return total


#: scorecard fields a replay must reproduce exactly (timing excluded)
_REPLAYED = ("frames_total", "frames_processed", "frames_dropped",
             "batches_total", "effective_error_pct", "faults_injected",
             "rollbacks", "degraded_batches", "fallback_frames", "tenant")


def replay_mismatch(tenant: Tenant) -> Optional[str]:
    """Re-run a tenant's scored prefix in-process; describe any difference.

    The repository's bit-identity contract: a served stream and an
    :class:`~repro.serve.session.AdaptationSession` fed the same frames
    end in the same scorecard.
    """
    from repro.serve.session import AdaptationSession
    from repro.train.trainer import pretrain_robust

    spec = tenant.spec
    model = pretrain_robust(spec.model, image_size=spec.image_size,
                            seed=spec.seed)
    session = AdaptationSession(model, spec.method, guard=spec.guard,
                                tenant=spec.tenant).start()
    for index in range(tenant.score_at):
        images, labels = tenant.batches[index % len(tenant.batches)]
        session.process_batch(images, labels)
    served, replayed = asdict(tenant.card), asdict(session.scorecard())
    diff = {key: (served[key], replayed[key]) for key in _REPLAYED
            if served[key] != replayed[key]}
    return f"{spec.tenant} served vs replayed: {diff}" if diff else None


def check(run: Pass, replay: bool = True) -> List[str]:
    failures = []
    tally = run.tally()
    if tally.failed:
        failures.append(f"{tally.failed} of {tally.attempted} requests "
                        f"failed: {tally.reasons}")
    for tenant in run.tenants:
        sent = tenant.chunk * inputs.BATCH
        if tenant.accepted + tenant.dropped != sent:
            failures.append(f"{tenant.spec.tenant}: {tenant.accepted} "
                            f"accepted + {tenant.dropped} dropped != "
                            f"{sent} sent")
        done = tenant.last_ack.get("batches_done", -1)
        if done * inputs.BATCH != tenant.accepted:
            failures.append(f"{tenant.spec.tenant}: batches_done {done} x "
                            f"{inputs.BATCH} != {tenant.accepted} accepted")
        if tenant.last_ack.get("rollbacks", -1) != 0:
            failures.append(f"{tenant.spec.tenant}: guard rolled back "
                            f"{tenant.last_ack.get('rollbacks')} batch(es)")
        if tenant.card is None:
            failures.append(f"{tenant.spec.tenant}: no scored prefix")
    if replay and not failures:
        mismatch = replay_mismatch(run.tenants[0])
        if mismatch:
            failures.append(mismatch)
    return failures


def request_kb(batch) -> float:
    """Bytes of one framed ``frames`` request, as the protocol encodes it."""
    from repro.serve.checkpoint import encode_array

    images, labels = batch
    message = {"type": "frames", "images": encode_array(images),
               "labels": encode_array(labels), "faults": 0, "chunk": 0}
    payload = json.dumps(message, sort_keys=True, separators=(",", ":"))
    return (4 + len(payload)) / 1e3


def run(root: Path, state: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    batches = [inputs.frame_batches(seed, index + 1, POOL)
               for index in range(TENANTS)]
    config = WORKLOADS[workload]
    plain = Pass(root, state, config, seed, seconds, batches).run(
        setups=1 if trace else SETUPS)
    tally = plain.tally()
    result = {"attempted": tally.attempted, "failed": tally.failed,
              "failures": check(plain), "metrics": {}, "detail": {},
              "warnings": []}
    if result["failures"]:
        return result
    latency = plain.latency_ms()
    p90 = percentile(latency, 90)
    result["detail"] = {"requests": len(latency),
                        "lateness_ms_p50": median(plain.lateness_ms()),
                        "request_ms_p90": p90}
    if len(latency) >= min_samples(95):
        result["detail"]["request_ms_p95"] = percentile(latency, 95)
    limit = config["p90_limit_ms"]
    if limit is not None and p90 > limit:
        result["warnings"].append(
            f"LIMIT EXCEEDED: request_ms_p90 {p90:.1f} ms is over the "
            f"{limit:.0f} ms limit of {workload}")
    if not trace:
        result["metrics"] = {
            "setup_s": median(plain.setup_s),
            "request_ms_p50": median(latency),
            "frames_per_s": plain.frames_per_s(),
            "error_pct": plain.error_pct(),
        }
        return result
    trace_path = state / f"{workload}-seed{seed}-daemon-trace.json"
    tracer = Tracer()
    names: Dict[int, str] = {}
    undo = hooks.install_client(tracer, lambda client: names[id(client)])
    try:
        traced = Pass(root, state, config, seed, seconds, batches,
                      trace_path=trace_path, client_names=names).run()
    finally:
        for step in undo:
            step()
    traced_tally = traced.tally()
    result["attempted"] += traced_tally.attempted
    result["failed"] += traced_tally.failed
    result["failures"] = [f"traced pass: {failure}"
                          for failure in check(traced, replay=False)]
    if result["failures"]:
        return result
    daemon_spans = read_spans(str(trace_path))
    spans = tracer.spans + daemon_spans
    requests = {record[0] for record in traced.records}
    base = median(latency)
    acks = [tenant.last_ack for tenant in traced.tenants]
    open_loop = traced.arrivals is not None
    result["metrics"] = layers.per_layer(
        spans, requests, window=traced.window, workers=traced.workers,
        extra={
            "request_ms_p90": p90,
            "peak_rss_mb": plain.peak_rss_mb,
            "guard.rollbacks": sum(ack.get("rollbacks", 0) for ack in acks),
            "manager.dropped_frames": sum(
                tenant.dropped for tenant in traced.tenants),
            "wire.request_kb": request_kb(batches[0][0]),
            "process.cpu_ms_per_frame": plain.cpu_ms_per_frame,
            "process.threads_max": plain.threads,
            "loadgen.lateness_ms_p90": percentile(
                traced.lateness_ms(), 90) if open_loop else 0.0,
            "trace.overhead_pct": 100.0 * (median(traced.latency_ms())
                                           - base) / base,
            "failed_pct": traced_tally.failed_pct,
        })
    tracer.write(str(state / f"{workload}-seed{seed}-client-trace.json"))
    return result
