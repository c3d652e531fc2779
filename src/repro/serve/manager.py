"""Multi-tenant session management for the serve daemon.

A *tenant* is one named adaptation stream: its own model instance, its
own :class:`~repro.serve.session.AdaptationSession`, its own frame
queue.  :class:`SessionManager` admits and tracks all of them and
provides the three operations the daemon's connection handlers call:

- :meth:`open_tenant` — admit (or re-attach to) a tenant from a
  :class:`TenantSpec`, resuming from the journal when one is configured;
- :meth:`ingest` — append frames to the tenant's queue, apply admission
  control, and coalesce full adaptation batches;
- :meth:`close_tenant` — finish the stream and journal the scorecard.

The sessions live in ``workers`` host processes
(:mod:`repro.serve.host`), forked when the manager is built.  Admission
places a tenant on the least-loaded live host, where its session stays
for the tenant's life; a checkpoint carries a tenant's whole state, so
an evicted or resumed tenant may land on any host.  Each host has its
own :class:`~repro.serve.scheduler.BatchScheduler`:
ingest carves batches and submits each under the tenant's key, the
worker sends it to the host as one round trip, and ingest waits the
tickets out, so the ack is still synchronous.  Per-tenant order and
non-overlap are the scheduler's invariants, so a stream stays
bit-identical to running its batches inline, one after another, while
tenants on different hosts adapt in parallel.

The manager keeps what the ack, ``status`` and the journal need: the
scorecard the host returned with its last reply, and the counts only
the front sees — faults the client reported and frames admission
dropped — which travel to the host on the tenant's next request.

Durability follows the study runners' journal discipline
(:mod:`repro.resilience.journal`): every processed batch appends a
``tenant_checkpoint`` entry carrying the session's full checkpoint, so
a killed daemon restarted with ``resume=True`` re-admits every open
tenant *bit-identically* — same BN state, same guard ladder position,
same optimizer moments, same score counters — onto a model whose
frozen weights must match the checkpoint's digest.  Admission
control reuses the real-time simulator's ``queue_capacity`` semantics
(:class:`repro.core.streaming.RealTimeStream`): a tenant buffers at
most ``queue_capacity`` batches of backlog beyond the one being
assembled; frames past that are dropped and scored as such.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
import weakref
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.engine import create_backend
from repro.engine.blas import set_one_blas_thread
from repro.models.registry import build_model
from repro.nn import init as nn_init
from repro.resilience.journal import RunJournal
from repro.scenarios.metrics import StreamScorecard
from repro.serve.host import Host, HostError, start_hosts
from repro.serve.protocol import scorecard_to_dict
from repro.serve.scheduler import BatchTicket
from repro.serve.session import AdaptationSession

_log = logging.getLogger("repro.serve")

#: journal event names of the serve layer (the study runners own
#: run_start/cell_ok/...; serve events are disjoint so one scanner can
#: tell the two document kinds apart)
SERVE_EVENTS = ("serve_start", "tenant_open", "tenant_checkpoint",
                "tenant_close", "tenant_evict")

#: the manager's lock discipline, outermost first, enforced by the
#: REP009 lock-order analysis: a per-tenant `entry.lock` may be held
#: while taking the registry or journal lock, never the reverse
_LOCK_ORDER = ("entry.lock", "SessionManager._tenants_lock",
               "SessionManager._journal_lock")

#: closed-tenant final scorecards retained for idempotent re-close
_FINAL_SCORECARDS_KEPT = 128


class AdmissionError(RuntimeError):
    """A tenant the manager refuses to admit (capacity or spec clash)."""


@dataclass(frozen=True)
class TenantSpec:
    """Everything that shapes one tenant's stream, fingerprintable.

    ``train=True`` pre-trains the tiny-profile model through the robust
    trainer's shared disk cache; ``train=False`` (the default, and what
    CI smoke uses) builds a deterministically random-initialized model
    seeded by ``seed`` — fast, and still reproducible across daemon
    restarts.
    """

    tenant: str
    model: str = "wrn40_2"
    method: str = "bn_opt"
    batch_size: int = 16
    guard: bool = True
    queue_capacity: int = 2
    train: bool = False
    image_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.tenant:
            raise ValueError("tenant name must be non-empty")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")

    def fingerprint(self) -> str:
        """Stable digest of the spec; a resume under a different spec
        is refused rather than silently continuing an incomparable
        stream."""
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class _Tenant:
    """One admitted tenant: spec, host, frame queue, its own lock."""

    def __init__(self, spec: TenantSpec, host: Host) -> None:
        self.spec = spec
        self.host = host
        self.pending_images: List[np.ndarray] = []
        self.pending_labels: List[np.ndarray] = []
        self.lock = threading.Lock()
        self.closed = False
        #: highest applied ``frames`` chunk index (idempotent re-send
        #: dedupe); rides the checkpoint so resume keeps the dedupe line
        self.last_chunk = -1
        #: monotonic instant of the last ingest/open (idle eviction)
        self.last_active = time.monotonic()
        #: frames carved into batches sitting in the scheduler — counted
        #: against :attr:`capacity` so admission sees the true backlog,
        #: not just the uncarved remainder
        self.queued_frames = 0
        #: the scorecard the host returned with its last reply
        self.card: Optional[StreamScorecard] = None
        #: running totals only the front sees; each request carries them
        self.faults = 0
        self.dropped = 0
        #: the open request; every other request waits for it
        self.opened: Optional[BatchTicket] = None
        #: the close request, shared by concurrent closers
        self.closing: Optional[BatchTicket] = None

    @property
    def capacity(self) -> int:
        """Maximum buffered frames: the batch being assembled plus
        ``queue_capacity`` batches of backlog."""
        return (self.spec.queue_capacity + 1) * self.spec.batch_size

    def counts(self) -> tuple:
        """The front's totals as the host's next request carries them."""
        return self.faults, self.dropped

    def scorecard(self) -> StreamScorecard:
        """The host's last scorecard with the front's totals applied."""
        return replace(self.card, faults_injected=self.faults,
                       frames_dropped=self.dropped,
                       frames_total=self.card.frames_processed + self.dropped)

    def ack(self, accepted: int, dropped: int, duplicate: bool) -> dict:
        card = self.card
        return {"accepted": accepted, "dropped": dropped,
                "duplicate": duplicate, "batches_done": card.batches_total,
                "rollbacks": card.rollbacks,
                "degraded_batches": card.degraded_batches,
                "fallback_frames": card.fallback_frames}

    def journal_entry(self, checkpoint: dict) -> dict:
        """The ``tenant_checkpoint`` journal entry for ``checkpoint``."""
        return {"event": "tenant_checkpoint", "tenant": self.spec.tenant,
                "fingerprint": self.spec.fingerprint(),
                "batches_done": self.card.batches_total,
                "chunk": self.last_chunk, "checkpoint": checkpoint}


def _release(hosts: List[Host], journal: Optional[RunJournal]) -> None:
    """Stop the hosts' schedulers, then the hosts; close the journal."""
    for host in hosts:
        host.scheduler.close()
    for host in hosts:
        host.stop()
    if journal is not None:
        journal.close()


class SessionManager:
    """Admits tenants onto host processes and owns the journal.

    Thread-safe: connection handler threads call into it concurrently.
    The tenant table has its own lock, each tenant serializes its
    front-side state (frame queue, counts, dedupe line) behind a
    per-tenant lock, and journal appends — the
    :class:`~repro.resilience.journal.RunJournal` is not itself
    thread-safe — are serialized behind a journal lock.

    ``workers`` is the number of host processes, forked here, before
    the manager starts a thread or opens its journal.  Each host builds
    its own engine backend through this module's ``create_backend``,
    looked up when the manager is built.
    """

    def __init__(self, *, journal: Optional[str] = None,
                 resume: bool = False,
                 max_tenants: int = 8, checkpoint_every: int = 1,
                 compact_above: int = 0, workers: int = 2) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if compact_above < 0:
            raise ValueError("compact_above must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.max_tenants = max_tenants
        self.checkpoint_every = checkpoint_every
        #: journal size (bytes) above which a checkpoint append triggers
        #: online compaction (0 disables the threshold)
        self.compact_above = compact_above
        self.evictions = 0
        self.compactions = 0
        self._tenants: Dict[str, _Tenant] = {}
        self._tenants_lock = threading.Lock()
        self._journal_lock = threading.Lock()
        self._saved: Dict[str, dict] = {}
        self._final: Dict[str, object] = {}
        self._journal: Optional[RunJournal] = None
        self._hosts: List[Host] = []
        # BLAS at one thread before the fork: the hosts inherit the count
        # and never set it themselves (see repro.engine.blas)
        set_one_blas_thread()
        try:
            # first: the hosts fork from a process with no thread and no
            # journal of this manager's yet (see repro.serve.host)
            self._hosts = start_hosts(workers,
                                      partial(create_backend, "numpy"))
            if journal:
                self._journal = RunJournal(journal, resume=resume)
                if resume:
                    self._saved = self._scan_saved()
                self._append({"event": "serve_start",
                              "resumed_tenants": sorted(self._saved)})
        except BaseException:
            # a journal that fails to open or scan leaves no host behind
            _release(self._hosts, self._journal)
            raise
        # a manager dropped without close() (the kill-resume tests'
        # SIGKILL) still ends its hosts and closes its journal file
        self._release = weakref.finalize(self, _release, self._hosts,
                                         self._journal)
        for host in self._hosts:
            host.scheduler.start()

    # -- journal -------------------------------------------------------

    def _append(self, entry: dict) -> None:
        if self._journal is None:
            return
        with self._journal_lock:
            self._journal.append(entry)

    def _scan_saved(self) -> Dict[str, dict]:
        """Last checkpoint per still-open tenant from a prior daemon life."""
        saved: Dict[str, dict] = {}
        for entry in self._journal.scan().entries:
            event = entry.get("event")
            if event == "tenant_checkpoint":
                saved[entry["tenant"]] = entry
            elif event == "tenant_close":
                saved.pop(entry["tenant"], None)
        return saved

    # -- tenant lifecycle ----------------------------------------------

    def _build_session(self, spec: TenantSpec) -> AdaptationSession:
        if spec.train:
            from repro.train.trainer import pretrain_robust
            model = pretrain_robust(spec.model, image_size=spec.image_size,
                                    seed=spec.seed)
        else:
            nn_init.seed(spec.seed)
            model = build_model(spec.model, profile="tiny")
            model.eval()
        return AdaptationSession(model, spec.method, guard=spec.guard,
                                 tenant=spec.tenant)

    def _place(self) -> Host:
        """The least-loaded live host, the first one on a tie."""
        live = [host for host in self._hosts if host.alive]
        if not live:
            raise AdmissionError("no host process is alive")
        return min(live, key=lambda host: host.tenants)

    def open_tenant(self, spec: TenantSpec) -> dict:
        """Admit ``spec``, resuming from the journal when possible.

        Returns ``{"resumed": bool, "batches_done": int, "chunk": int}``
        (``chunk`` is the last applied send index, -1 when none).
        Re-opening a tenant already live in this process re-attaches to
        it (the spec must match); a tenant with a checkpoint from a
        previous daemon life — or suspended here by idle eviction — is
        restored from it, on whichever host admission picks.  A resume
        refused for a different spec (:class:`AdmissionError`) or
        different model weights (``ValueError`` from
        :meth:`~repro.serve.session.AdaptationSession.load_checkpoint`)
        keeps the checkpoint, so a retry with the right spec resumes.
        """
        saved = None
        with self._tenants_lock:
            entry = self._tenants.get(spec.tenant)
            live = entry is not None
            if live:
                if entry.spec != spec:
                    raise AdmissionError(
                        f"tenant {spec.tenant!r} is live with a different "
                        "spec")
            else:
                if len(self._tenants) >= self.max_tenants:
                    raise AdmissionError(
                        f"tenant limit reached ({self.max_tenants})")
                saved = self._saved.get(spec.tenant)
                if saved is not None \
                        and saved["fingerprint"] != spec.fingerprint():
                    raise AdmissionError(
                        f"tenant {spec.tenant!r} was journaled under a "
                        "different spec; refusing to resume")
                host = self._place()
                # built here, where every host shares one model cache
                session = self._build_session(spec)
                entry = _Tenant(spec, host)
                if saved is not None:
                    entry.last_chunk = int(saved.get("chunk", -1))
                host.tenants += 1
                self._tenants[spec.tenant] = entry
                entry.opened = host.scheduler.submit(
                    spec.tenant,
                    partial(self._open_in_host, entry, session, saved))
        try:
            entry.opened.wait()
        except BaseException:
            if not live:
                self._forget(entry)
            raise
        if not live:
            self._append({"event": "tenant_open", "tenant": spec.tenant,
                          "spec": asdict(spec),
                          "fingerprint": spec.fingerprint(),
                          "resumed": saved is not None})
        return {"resumed": live or saved is not None,
                "batches_done": entry.card.batches_total,
                "chunk": entry.last_chunk}

    def _open_in_host(self, entry: _Tenant, session: AdaptationSession,
                      saved: Optional[dict]) -> None:
        """Ship the unstarted session to its host, which starts it or
        resumes it from ``saved`` (scheduler worker)."""
        checkpoint = None if saved is None else saved["checkpoint"]
        card = entry.host.call("open", entry.spec.tenant, session,
                               checkpoint)
        with entry.lock:
            entry.card = card
            entry.faults, entry.dropped = card.faults_injected, \
                card.frames_dropped
        if saved is not None:
            # the saved entry goes only once the host has loaded it: a
            # refused resume (spec or weights mismatch) keeps it
            with self._tenants_lock:
                if self._saved.get(entry.spec.tenant) is saved:
                    del self._saved[entry.spec.tenant]

    def _forget(self, entry: _Tenant) -> None:
        """Drop ``entry`` from the table and free its host slot."""
        with self._tenants_lock:
            if self._tenants.get(entry.spec.tenant) is entry:
                del self._tenants[entry.spec.tenant]
                entry.host.tenants -= 1

    def session(self, tenant: str) -> AdaptationSession:
        """A copy of one tenant's session, fetched from its host.

        It reflects every request queued for the tenant before this
        call; changing it changes nothing in the host (tests read the
        adapted model from it).
        """
        entry = self._get(tenant)
        with entry.lock:
            counts = entry.counts()
        ticket = entry.host.scheduler.submit(
            tenant, partial(entry.host.call, "session", tenant, counts))
        ticket.wait()
        return ticket.result

    def tenants(self) -> List[str]:
        """Names of the currently live tenants."""
        with self._tenants_lock:
            return sorted(self._tenants)

    def _get(self, tenant: str) -> _Tenant:
        with self._tenants_lock:
            entry = self._tenants.get(tenant)
        if entry is None:
            raise AdmissionError(f"unknown tenant {tenant!r}")
        entry.opened.wait()     # usable once its host has opened it
        return entry

    # -- streaming -----------------------------------------------------

    def ingest(self, tenant: str, images: np.ndarray,
               labels: np.ndarray, *, faults: int = 0,
               chunk: Optional[int] = None) -> dict:
        """Queue frames, apply admission control, run full batches.

        Frames beyond the tenant's buffer capacity are dropped (scored
        as drops, exactly the real-time simulator's overflow rule);
        accepted frames are coalesced into ``batch_size`` adaptation
        batches, submitted to the tenant's host scheduler, and *waited
        out* — the ack reflects every batch of this chunk —
        checkpointing every ``checkpoint_every`` batches.  Carving and
        submission happen under the tenant lock so concurrent ingests
        for one tenant enqueue in arrival order; the wait happens
        outside it so other chunks can queue up meanwhile.  ``faults``
        is the sender's count
        of faults it injected into this chunk (faults happen at the
        *edge*, client-side; the daemon only tallies them so the
        tenant's scorecard stays honest).

        ``chunk`` is the sender's monotonically increasing send index:
        a chunk at or below the highest applied one is acknowledged as
        a ``duplicate`` without touching the session, so a client whose
        connection was severed between apply and ack can blindly
        re-send — adaptation is never double-applied.  The dedupe line
        rides the journal checkpoints, staying consistent with the
        model state a resume restores.
        """
        if len(images) != len(labels):
            raise ValueError("images and labels must align")
        entry = self._get(tenant)
        tickets: List[BatchTicket] = []
        with entry.lock:
            if entry.closed:
                raise AdmissionError(f"tenant {tenant!r} is closed")
            entry.last_active = time.monotonic()
            if chunk is not None and int(chunk) <= entry.last_chunk:
                return entry.ack(0, 0, duplicate=True)
            entry.faults += int(faults)
            backlog = len(entry.pending_images) + entry.queued_frames
            space = entry.capacity - backlog
            accepted = max(0, min(len(images), space))
            dropped = len(images) - accepted
            entry.dropped += dropped
            entry.pending_images.extend(np.asarray(image)
                                        for image in images[:accepted])
            entry.pending_labels.extend(int(label)
                                        for label in labels[:accepted])
            if chunk is not None:
                entry.last_chunk = int(chunk)
            batch = entry.spec.batch_size
            while len(entry.pending_images) >= batch:
                batch_images = np.stack(entry.pending_images[:batch])
                batch_labels = np.asarray(entry.pending_labels[:batch])
                del entry.pending_images[:batch]
                del entry.pending_labels[:batch]
                entry.queued_frames += batch
                tickets.append(entry.host.scheduler.submit(
                    tenant, partial(self._process_batch, entry,
                                    batch_images, batch_labels)))
        for ticket in tickets:
            ticket.wait()
        with entry.lock:
            return entry.ack(accepted, dropped, duplicate=False)

    def _process_batch(self, entry: _Tenant, images: np.ndarray,
                       labels: np.ndarray) -> None:
        """Run one carved batch in the tenant's host (scheduler worker).

        One round trip: the request carries the front's counts and asks
        for a checkpoint when one is due; the reply's scorecard becomes
        the tenant's, and its checkpoint is journaled.  The scheduler
        runs the tenant's requests one at a time in FIFO order, so no
        lock is held while the host works.
        """
        with entry.lock:
            entry.queued_frames -= len(images)
            counts = entry.counts()
            due = self._journal is not None and \
                (entry.card.batches_total + 1) % self.checkpoint_every == 0
        card, checkpoint = entry.host.call(
            "batch", entry.spec.tenant, counts, images, labels, due)
        with entry.lock:
            entry.card = card
            if checkpoint is not None:
                self._append(entry.journal_entry(checkpoint))
                self.maybe_compact()

    def scorecard(self, tenant: str):
        """The tenant's current scorecard (live counters included)."""
        entry = self._get(tenant)
        with entry.lock:
            return entry.scorecard()

    def close_tenant(self, tenant: str, *, restore: bool = False):
        """Finish one tenant's stream; returns its final scorecard.

        Idempotent: re-closing an already-closed tenant (a retrying
        client whose ``closed`` reply was lost on a severed connection)
        returns the recorded final scorecard instead of refusing.  The
        close request queues behind the tenant's carved batches, so the
        final scorecard counts every frame an ack already admitted.
        """
        try:
            entry = self._get(tenant)
        except AdmissionError:
            with self._tenants_lock:
                final = self._final.get(tenant)
            if final is not None:
                return final
            raise
        with entry.lock:
            if entry.closing is None:
                if entry.closed:
                    raise AdmissionError(
                        f"tenant {tenant!r} is being suspended")
                entry.closed = True
                entry.closing = entry.host.scheduler.submit(
                    tenant, partial(entry.host.call, "close", tenant,
                                    entry.counts(), restore))
            closing = entry.closing
        try:
            closing.wait()
        finally:
            self._forget(entry)
        card = closing.result
        with self._tenants_lock:
            self._final[tenant] = card
            while len(self._final) > _FINAL_SCORECARDS_KEPT:
                self._final.pop(next(iter(self._final)))
        self._append({"event": "tenant_close", "tenant": tenant,
                      "scorecard": scorecard_to_dict(card)})
        return card

    # -- long-lived operation ------------------------------------------

    def evict_idle(self, max_idle_s: float) -> List[str]:
        """Suspend tenants idle for more than ``max_idle_s`` seconds.

        Checkpoint-on-evict: the tenant's full checkpoint moves into the
        suspended table (and the journal, when one is configured), its
        session and model are dropped from the host, and a later
        ``hello`` re-admits it bit-identically, on any host — exactly
        the daemon-restart resume path, so an idle tenant costs a
        journal entry instead of a live model.  Tenants with a request
        queued or running are never evicted.
        """
        if max_idle_s <= 0:
            return []
        with self._tenants_lock:
            candidates = list(self._tenants.items())
        evicted: List[str] = []
        now = time.monotonic()
        for name, entry in candidates:
            if not entry.lock.acquire(blocking=False):
                continue                        # mid-request: active
            try:
                if entry.closed or entry.card is None \
                        or entry.queued_frames \
                        or now - entry.last_active < max_idle_s \
                        or not entry.host.scheduler.wait_key(name, 0):
                    continue                    # queued work counts as busy
                entry.closed = True
                ticket = entry.host.scheduler.submit(
                    name, partial(self._evict_in_host, entry,
                                  entry.counts()))
            finally:
                entry.lock.release()
            try:
                ticket.wait()
            except HostError as error:
                _log.warning("idle tenant %s lost: %s", name, error)
                self._forget(entry)
                continue
            saved = ticket.result
            with self._tenants_lock:
                if self._tenants.get(name) is entry:
                    del self._tenants[name]
                    entry.host.tenants -= 1
                self._saved[name] = saved
            self.evictions += 1
            self._append(saved)
            self._append({"event": "tenant_evict", "tenant": name,
                          "batches_done": saved["batches_done"]})
            evicted.append(name)
        return evicted

    def _evict_in_host(self, entry: _Tenant, counts: tuple) -> dict:
        checkpoint = entry.host.call("evict", entry.spec.tenant, counts)
        with entry.lock:
            return entry.journal_entry(checkpoint)

    def drain(self, timeout: Optional[float] = None) -> dict:
        """Checkpoint every live tenant, then compact the journal.

        The graceful-shutdown half that belongs to the manager: the
        hosts' backlogs run dry (up to ``timeout`` seconds overall),
        each tenant's final ``tenant_checkpoint`` is journaled, then the
        journal is compacted down to one checkpoint per tenant.  Tenants
        stay *open* in the journal — a daemon restarted with
        ``resume=True`` re-admits all of them — which is what
        distinguishes drain from :meth:`close`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> Optional[float]:
            return None if deadline is None \
                else max(0.0, deadline - time.monotonic())

        # first every batch an ack admitted is applied (and
        # checkpointed) before the final per-tenant checkpoints are cut
        for host in self._hosts:
            host.scheduler.wait_idle(remaining())
        with self._tenants_lock:
            entries = list(self._tenants.items())
        checkpointed: List[str] = []
        skipped: List[str] = []
        for name, entry in entries:
            left = remaining()
            if not entry.lock.acquire(timeout=-1 if left is None else left):
                skipped.append(name)            # stuck past the deadline:
                continue                        # prior checkpoints stand
            ticket = None
            try:
                if entry.closed or entry.card is None:
                    continue
                if self._journal is not None:
                    ticket = entry.host.scheduler.submit(
                        name, partial(self._drain_checkpoint, entry,
                                      entry.counts()))
            finally:
                entry.lock.release()
            try:
                if ticket is not None and not ticket.wait(remaining()):
                    skipped.append(name)
                    continue
            except HostError:
                skipped.append(name)
                continue
            checkpointed.append(name)
        removed = self.compact()
        return {"checkpointed": checkpointed, "skipped": skipped,
                "compacted_entries": removed}

    def _drain_checkpoint(self, entry: _Tenant, counts: tuple) -> None:
        checkpoint = entry.host.call("checkpoint", entry.spec.tenant, counts)
        with entry.lock:
            self._append(entry.journal_entry(checkpoint))

    def compact(self) -> int:
        """Compact the journal now (no-op without one); entries removed."""
        if self._journal is None:
            return 0
        with self._journal_lock:
            removed = self._journal.compact()
            self.compactions += 1
        return removed

    def maybe_compact(self) -> int:
        """Compact when the journal has outgrown ``compact_above``."""
        if self._journal is None or self.compact_above <= 0:
            return 0
        with self._journal_lock:
            if self._journal.size_bytes() < self.compact_above:
                return 0
            removed = self._journal.compact()
            self.compactions += 1
        return removed

    def status(self) -> dict:
        """JSON-safe health document: tenants, hosts, journal, counters."""
        with self._tenants_lock:
            entries = list(self._tenants.items())
            suspended = sorted(self._saved)
        tenants = {}
        for name, entry in entries:
            if entry.card is None:
                continue                        # still being opened
            with entry.lock:
                card = entry.scorecard()
                pending = len(entry.pending_images) + entry.queued_frames
            tenants[name] = {
                "batches_done": card.batches_total,
                "pending_frames": pending,
                "chunk": entry.last_chunk,
                "closed": entry.closed,
                "host": entry.host.pid,
                "frames_processed": card.frames_processed,
                "frames_dropped": card.frames_dropped,
                "faults_injected": card.faults_injected,
                "rollbacks": card.rollbacks,
                "degraded_batches": card.degraded_batches,
                "fallback_frames": card.fallback_frames,
            }
        journal = None
        if self._journal is not None:
            with self._journal_lock:
                journal = {"path": str(self._journal.path),
                           "size_bytes": self._journal.size_bytes(),
                           "compact_above": self.compact_above,
                           "compactions": self.compactions}
        stats = [host.scheduler.stats() for host in self._hosts]
        scheduler = {key: sum(stat[key] for stat in stats)
                     for key in ("workers", "queued", "in_flight",
                                 "dispatched")}
        # what batches run with: the hosts' count, the same in each
        scheduler["blas_threads"] = self._hosts[0].blas_threads
        hosts = [host.describe(sorted(name for name, entry in entries
                                      if entry.host is host))
                 for host in self._hosts]
        return {"tenants": tenants, "suspended": suspended,
                "max_tenants": self.max_tenants,
                "evictions": self.evictions, "journal": journal,
                "scheduler": scheduler, "hosts": hosts}

    def close(self, *, close_tenants: bool = True) -> None:
        """Shut the manager down: close sessions, hosts, journal.

        ``close_tenants=False`` (the drained-shutdown path) leaves
        tenants un-closed in the journal so a restart with
        ``resume=True`` re-admits them from their drain checkpoints.
        """
        try:
            if close_tenants:
                with self._tenants_lock:
                    names = sorted(self._tenants)
                for name in names:
                    try:
                        self.close_tenant(name)
                    except HostError as error:
                        _log.warning("tenant %s lost with its host: %s",
                                     name, error)
        finally:
            self._release()
