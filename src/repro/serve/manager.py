"""Multi-tenant session management for the serve daemon.

A *tenant* is one named adaptation stream: its own model instance, its
own :class:`~repro.serve.session.AdaptationSession`, its own frame
queue.  :class:`SessionManager` owns all of them and provides the three
operations the daemon's connection handlers call:

- :meth:`open_tenant` — admit (or re-attach to) a tenant from a
  :class:`TenantSpec`, resuming from the journal when one is configured;
- :meth:`ingest` — append frames to the tenant's queue, apply admission
  control, and coalesce full adaptation batches through the session;
- :meth:`close_tenant` — finish the stream and journal the scorecard.

Batches are *not* run on the caller's thread: ingest carves them and
submits each to a shared :class:`~repro.serve.scheduler.BatchScheduler`
(cross-tenant round-robin over ``workers`` threads), then waits the
tickets out so the ack is still synchronous.  Per-tenant order and
non-overlap are the scheduler's invariants, so the stream stays
bit-identical to PR 8's inline processing; what changed is that many
tenants' batches now share one bounded pool instead of each hogging
its own connection thread.

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
import threading
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.engine import create_backend, use_backend
from repro.models.registry import build_model
from repro.nn import init as nn_init
from repro.resilience.journal import RunJournal
from repro.serve.protocol import scorecard_to_dict
from repro.serve.scheduler import BatchScheduler, BatchTicket
from repro.serve.session import AdaptationSession

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
    """One admitted tenant: spec, session, frame queue, its own lock."""

    def __init__(self, spec: TenantSpec, session: AdaptationSession) -> None:
        self.spec = spec
        self.session = session
        self.pending_images: List[np.ndarray] = []
        self.pending_labels: List[np.ndarray] = []
        self.lock = threading.Lock()
        self.closed = False
        #: highest applied ``frames`` chunk index (idempotent re-send
        #: dedupe); rides the checkpoint so resume keeps the dedupe line
        self.last_chunk = -1
        #: monotonic instant of the last ingest/open (idle eviction)
        self.last_active = time.monotonic()
        #: frames carved into batches sitting in (or running on) the
        #: scheduler — counted against :attr:`capacity` so admission
        #: sees the true backlog, not just the uncarved remainder
        self.queued_frames = 0

    @property
    def capacity(self) -> int:
        """Maximum buffered frames: the batch being assembled plus
        ``queue_capacity`` batches of backlog."""
        return (self.spec.queue_capacity + 1) * self.spec.batch_size


class SessionManager:
    """Owns every tenant session plus the shared backend and journal.

    Thread-safe: connection handler threads call into it concurrently.
    The tenant table has its own lock, each tenant serializes its
    stream behind a per-tenant lock (frames for one tenant process in
    arrival order even across connections), and journal appends — the
    :class:`~repro.resilience.journal.RunJournal` is not itself
    thread-safe — are serialized behind a journal lock.
    """

    def __init__(self, *, journal: Optional[str] = None,
                 resume: bool = False, backend: str = "numpy",
                 max_tenants: int = 8, checkpoint_every: int = 1,
                 compact_above: int = 0, workers: int = 2) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if compact_above < 0:
            raise ValueError("compact_above must be >= 0")
        self.max_tenants = max_tenants
        self.checkpoint_every = checkpoint_every
        #: journal size (bytes) above which a checkpoint append triggers
        #: online compaction (0 disables the threshold)
        self.compact_above = compact_above
        self.evictions = 0
        self.compactions = 0
        self._backend = create_backend(backend)
        self._scheduler = BatchScheduler(workers=workers)
        self._tenants: Dict[str, _Tenant] = {}
        self._tenants_lock = threading.Lock()
        self._journal_lock = threading.Lock()
        self._journal = RunJournal(journal, resume=resume) if journal else None
        self._saved: Dict[str, dict] = {}
        self._final: Dict[str, object] = {}
        if self._journal is not None:
            if resume:
                self._saved = self._scan_saved()
            self._append({"event": "serve_start",
                          "resumed_tenants": sorted(self._saved)})

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

    def open_tenant(self, spec: TenantSpec) -> dict:
        """Admit ``spec``, resuming from the journal when possible.

        Returns ``{"resumed": bool, "batches_done": int, "chunk": int}``
        (``chunk`` is the last applied send index, -1 when none).
        Re-opening a tenant already live in this process re-attaches to
        it (the spec must match); a tenant with a checkpoint from a
        previous daemon life — or suspended here by idle eviction — is
        restored from it.  A resume refused for a different spec
        (:class:`AdmissionError`) or different model weights
        (``ValueError`` from
        :meth:`~repro.serve.session.AdaptationSession.load_checkpoint`)
        keeps the checkpoint, so a retry with the right spec resumes.
        """
        with self._tenants_lock:
            live = self._tenants.get(spec.tenant)
            if live is not None:
                if live.spec != spec:
                    raise AdmissionError(
                        f"tenant {spec.tenant!r} is live with a different "
                        "spec")
                return {"resumed": True,
                        "batches_done": live.session.batches_total,
                        "chunk": live.last_chunk}
            if len(self._tenants) >= self.max_tenants:
                raise AdmissionError(
                    f"tenant limit reached ({self.max_tenants})")
            # the saved entry goes only once the session has loaded it: a
            # refused resume (spec or weights mismatch) keeps it for a retry
            saved = self._saved.get(spec.tenant)
            if saved is not None and saved["fingerprint"] != spec.fingerprint():
                raise AdmissionError(
                    f"tenant {spec.tenant!r} was journaled under a "
                    "different spec; refusing to resume")
            session = self._build_session(spec)
            if saved is not None:
                session.load_checkpoint(saved["checkpoint"])
                del self._saved[spec.tenant]
            else:
                session.start()
            tenant = _Tenant(spec, session)
            if saved is not None:
                tenant.last_chunk = int(saved.get("chunk", -1))
            self._tenants[spec.tenant] = tenant
        self._append({"event": "tenant_open", "tenant": spec.tenant,
                      "spec": asdict(spec),
                      "fingerprint": spec.fingerprint(),
                      "resumed": saved is not None})
        return {"resumed": saved is not None,
                "batches_done": session.batches_total,
                "chunk": tenant.last_chunk}

    def session(self, tenant: str) -> AdaptationSession:
        """The live session of one tenant (tests and handlers)."""
        return self._get(tenant).session

    def tenants(self) -> List[str]:
        """Names of the currently live tenants."""
        with self._tenants_lock:
            return sorted(self._tenants)

    def _get(self, tenant: str) -> _Tenant:
        with self._tenants_lock:
            try:
                return self._tenants[tenant]
            except KeyError:
                raise AdmissionError(f"unknown tenant {tenant!r}") from None

    # -- streaming -----------------------------------------------------

    def ingest(self, tenant: str, images: np.ndarray,
               labels: np.ndarray, *, faults: int = 0,
               chunk: Optional[int] = None) -> dict:
        """Queue frames, apply admission control, run full batches.

        Frames beyond the tenant's buffer capacity are dropped (scored
        as drops, exactly the real-time simulator's overflow rule);
        accepted frames are coalesced into ``batch_size`` adaptation
        batches, submitted to the shared cross-tenant scheduler, and
        *waited out* — the ack reflects every batch of this chunk —
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
            session = entry.session
            entry.last_active = time.monotonic()
            if chunk is not None and int(chunk) <= entry.last_chunk:
                card = session.scorecard()
                return {
                    "accepted": 0,
                    "dropped": 0,
                    "duplicate": True,
                    "batches_done": session.batches_total,
                    "rollbacks": card.rollbacks,
                    "degraded_batches": card.degraded_batches,
                    "fallback_frames": card.fallback_frames,
                }
            session.faults_injected += int(faults)
            backlog = len(entry.pending_images) + entry.queued_frames
            space = entry.capacity - backlog
            accepted = max(0, min(len(images), space))
            dropped = len(images) - accepted
            if dropped:
                session.drop_frames(dropped)
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
                tickets.append(self._scheduler.submit(
                    tenant, partial(self._process_batch, entry,
                                    batch_images, batch_labels)))
        for ticket in tickets:
            ticket.wait()
        with entry.lock:
            card = session.scorecard()
            return {
                "accepted": accepted,
                "dropped": dropped,
                "duplicate": False,
                "batches_done": session.batches_total,
                "rollbacks": card.rollbacks,
                "degraded_batches": card.degraded_batches,
                "fallback_frames": card.fallback_frames,
            }

    def _process_batch(self, entry: _Tenant, images: np.ndarray,
                       labels: np.ndarray) -> None:
        """Run one carved batch (scheduler worker thread).

        The tenant lock serializes against close/evict/drain; the
        scheduler already guarantees one batch per tenant at a time and
        FIFO order, so taking the lock here never contends with another
        batch of the same tenant.
        """
        with entry.lock:
            entry.queued_frames -= len(images)
            if entry.closed:
                return      # close or evict raced the queue: discarded
            with use_backend(self._backend):
                entry.session.process_batch(images, labels)
            if entry.session.batches_total % self.checkpoint_every == 0:
                self._checkpoint(entry)

    def _checkpoint(self, entry: _Tenant) -> None:
        if self._journal is None:
            return      # nothing keeps it: do not build the checkpoint
        self._append({"event": "tenant_checkpoint",
                      "tenant": entry.spec.tenant,
                      "fingerprint": entry.spec.fingerprint(),
                      "batches_done": entry.session.batches_total,
                      "chunk": entry.last_chunk,
                      "checkpoint": entry.session.checkpoint()})
        self.maybe_compact()

    def scorecard(self, tenant: str):
        """The tenant's current scorecard (live counters included)."""
        return self._get(tenant).session.scorecard()

    def close_tenant(self, tenant: str, *, restore: bool = False):
        """Finish one tenant's stream; returns its final scorecard.

        Idempotent: re-closing an already-closed tenant (a retrying
        client whose ``closed`` reply was lost on a severed connection)
        returns the recorded final scorecard instead of refusing.
        """
        try:
            entry = self._get(tenant)
        except AdmissionError:
            with self._tenants_lock:
                final = self._final.get(tenant)
            if final is not None:
                return final
            raise
        # wait out this tenant's queued/in-flight batches first, so the
        # final scorecard counts every frame an ack already admitted
        self._scheduler.wait_key(tenant)
        with entry.lock:
            if not entry.closed:
                entry.session.close(restore_model=restore)
                entry.closed = True
        card = entry.session.scorecard()
        with self._tenants_lock:
            self._tenants.pop(tenant, None)
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
        session and model are dropped, and a later ``hello`` re-admits
        it bit-identically — exactly the daemon-restart resume path, so
        an idle tenant costs a journal entry instead of a live model.
        Tenants mid-batch are never evicted (their lock is busy).
        """
        if max_idle_s <= 0:
            return []
        with self._tenants_lock:
            candidates = list(self._tenants.items())
        evicted: List[str] = []
        now = time.monotonic()
        for name, entry in candidates:
            if not entry.lock.acquire(blocking=False):
                continue                        # mid-batch: active
            try:
                if entry.closed or entry.queued_frames \
                        or now - entry.last_active < max_idle_s:
                    continue                    # queued work counts as busy
                saved = {"event": "tenant_checkpoint", "tenant": name,
                         "fingerprint": entry.spec.fingerprint(),
                         "batches_done": entry.session.batches_total,
                         "chunk": entry.last_chunk,
                         "checkpoint": entry.session.checkpoint()}
                with self._tenants_lock:
                    if self._tenants.get(name) is not entry:
                        continue                # raced a concurrent close
                    del self._tenants[name]
                    self._saved[name] = saved
                entry.closed = True
                self.evictions += 1
                self._append(saved)
                self._append({"event": "tenant_evict", "tenant": name,
                              "batches_done": entry.session.batches_total})
                evicted.append(name)
            finally:
                entry.lock.release()
        return evicted

    def drain(self, timeout: Optional[float] = None) -> dict:
        """Checkpoint every live tenant, then compact the journal.

        The graceful-shutdown half that belongs to the manager: each
        tenant's lock is taken (waiting out any in-flight batch, up to
        ``timeout`` seconds overall) and a final ``tenant_checkpoint``
        journaled, then the journal is compacted down to one checkpoint
        per tenant.  Tenants stay *open* in the journal — a daemon
        restarted with ``resume=True`` re-admits all of them — which is
        what distinguishes drain from :meth:`close`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # first let the scheduler run the backlog dry: every batch an
        # ack admitted is applied (and checkpointed) before the final
        # per-tenant drain checkpoints are cut
        remaining = None if deadline is None \
            else max(0.0, deadline - time.monotonic())
        self._scheduler.wait_idle(remaining)
        with self._tenants_lock:
            entries = list(self._tenants.items())
        checkpointed: List[str] = []
        skipped: List[str] = []
        for name, entry in entries:
            remaining = -1 if deadline is None \
                else max(0.0, deadline - time.monotonic())
            if not entry.lock.acquire(timeout=remaining):
                skipped.append(name)            # stuck mid-batch past the
                continue                        # deadline: prior per-batch
            try:                                # checkpoints still stand
                if not entry.closed and entry.session.active:
                    self._checkpoint(entry)
                    checkpointed.append(name)
            finally:
                entry.lock.release()
        removed = self.compact()
        return {"checkpointed": checkpointed, "skipped": skipped,
                "compacted_entries": removed}

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
        """JSON-safe health document: tenants, journal, counters."""
        with self._tenants_lock:
            entries = list(self._tenants.items())
            suspended = sorted(self._saved)
        tenants = {}
        for name, entry in entries:
            card = entry.session.scorecard()
            tenants[name] = {
                "batches_done": entry.session.batches_total,
                "pending_frames": len(entry.pending_images)
                + entry.queued_frames,
                "chunk": entry.last_chunk,
                "closed": entry.closed,
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
        return {"tenants": tenants, "suspended": suspended,
                "max_tenants": self.max_tenants,
                "evictions": self.evictions, "journal": journal,
                "scheduler": self._scheduler.stats()}

    def close(self, *, close_tenants: bool = True) -> None:
        """Shut the manager down: close sessions, journal, backend.

        ``close_tenants=False`` (the drained-shutdown path) leaves
        tenants un-closed in the journal so a restart with
        ``resume=True`` re-admits them from their drain checkpoints.
        """
        if close_tenants:
            with self._tenants_lock:
                names = sorted(self._tenants)
            for name in names:
                self.close_tenant(name)
        self._scheduler.close()
        if self._journal is not None:
            with self._journal_lock:
                self._journal.close()
        self._backend.close()
