"""The reusable adaptation-stream lifecycle: one session, one tenant.

:class:`AdaptationSession` owns the adaptation lifecycle — build the
method, optionally wrap it in
:class:`~repro.robustness.guard.GuardedAdaptation`, ``prepare`` it on a
model, time each ``forward``, score predictions, track guard counters,
restore the source state — so every stream in the repo runs the exact
same code path: the :func:`run_stream` driver (the ``stream`` CLI and
the native study runner's cells) and the multi-tenant serve daemon.
It adds the one thing a long-lived daemon needs that a batch run does
not: journal-ready :meth:`~AdaptationSession.checkpoint` /
:meth:`~AdaptationSession.load_checkpoint` that resume a killed stream
bit-identically.  A checkpoint carries BN state only, plus a digest of
the frozen weights (:func:`~repro.adapt.state.frozen_digest`), so it
resumes only onto a model with the same weights.

Lifecycle::

    session = AdaptationSession(model, "bn_opt", guard=True, tenant="cam0")
    with session:                      # prepare()s the runner
        session.process_batch(images, labels)   # -> BatchStats
    card = session.scorecard()         # StreamScorecard, tenant-stamped

or, for a whole stream with optional faults and a scenario schedule::

    stats = run_stream(session, batches, faults="nan@2",
                       schedule=stream.schedule)
    card = session.scorecard()

Teardown policy (``restore``):

- ``"on_error"`` (default, the streaming contract): the model keeps its
  adapted state on clean exit — deployment semantics — but an
  exception mid-stream always restores the source
  :class:`~repro.adapt.state.BNState` captured at ``start()`` before
  propagating, so a crashed stream cannot leak poisoned BN statistics
  into whatever runs next on the same model instance.
- ``"always"`` (the study-runner contract): clean exit restores too,
  giving episodic evaluation: each stream leaves the model exactly as
  it found it — momentum and mode flags included — so every stream of
  a study starts from the same state.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.adapt import build_method
from repro.adapt.base import AdaptationMethod
from repro.adapt.state import BNState, frozen_digest
from repro.robustness.faults import FaultInjector, FaultSpec, parse_fault_specs
from repro.robustness.guard import GuardConfig, GuardedAdaptation
from repro.scenarios.metrics import BatchStats, StreamScorecard
from repro.scenarios.schedule import ScenarioSchedule
from repro.serve.checkpoint import decode_state, encode_state
from repro.tensor.tensor import Tensor, no_grad

#: checkpoint document version (bumped on incompatible layout changes;
#: older versions are refused, not migrated)
CHECKPOINT_VERSION = 2

#: valid teardown policies
_RESTORE_POLICIES = ("on_error", "always")


class AdaptationSession:
    """One adaptation stream bound to one model: the serve layer's unit.

    Parameters
    ----------
    model:
        The model to adapt (mutated in place, exactly as in deployment).
    method:
        An :class:`AdaptationMethod` instance, a method name, or an
        already-built :class:`GuardedAdaptation` (used as-is).
    guard:
        ``True`` (default thresholds), a :class:`GuardConfig`, or
        ``False`` to run unprotected.  Ignored when ``method`` is
        already a :class:`GuardedAdaptation`.
    fps:
        Optional frame arrival rate; when given, a batch whose measured
        service time exceeds the batch period counts as late.
    tenant:
        Name stamped into scorecards and checkpoints ("" for
        single-stream use).
    restore:
        Teardown policy, ``"on_error"`` or ``"always"`` (see module
        docstring).
    """

    def __init__(self, model, method: Union[str, AdaptationMethod],
                 *, guard: Union[bool, GuardConfig] = False,
                 fps: Optional[float] = None, tenant: str = "",
                 restore: str = "on_error") -> None:
        if restore not in _RESTORE_POLICIES:
            raise ValueError(f"restore must be one of {_RESTORE_POLICIES}")
        if isinstance(method, str):
            method = build_method(method)
        if isinstance(method, GuardedAdaptation):
            runner = method
        elif guard:
            config = guard if isinstance(guard, GuardConfig) else None
            runner = GuardedAdaptation(method, config)
        else:
            runner = method
        self.model = model
        self.runner = runner
        self.fps = fps
        self.tenant = tenant
        #: compact scenario spec stamped into scorecards; set by
        #: run_stream from its schedule ("" = plain stream)
        self.scenario = ""
        self.restore = restore
        self._started = False
        self._closed = False
        # the model's BN state as start() found it, for teardown/resume
        self._source: Optional[BNState] = None
        # stream accounting
        self.frames_processed = 0
        self.frames_correct = 0
        self.frames_dropped = 0
        self.batches_total = 0
        self.batches_late = 0
        self.wall_time_s = 0.0
        #: filled in by drivers that own a FaultInjector
        self.faults_injected = 0
        # guard counters, copied from the runner after every batch and
        # on close (the runner re-zeroes them when it re-prepares)
        self.rollbacks = 0
        self.degraded_batches = 0
        self.fallback_frames = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def guarded(self) -> bool:
        """Whether a :class:`GuardedAdaptation` wraps this stream."""
        return isinstance(self.runner, GuardedAdaptation)

    @property
    def active(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        return self._started and not self._closed

    def start(self) -> "AdaptationSession":
        """Capture the source :class:`BNState` and ``prepare`` the runner."""
        if self._started:
            raise RuntimeError("start() on an already-started session")
        self._source = BNState.capture(self.model)
        self.runner.prepare(self.model)
        self._started = True
        return self

    def __enter__(self) -> "AdaptationSession":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # an exception mid-stream always restores the source state so a
        # crashed stream cannot leak adapted/poisoned BN statistics
        self.close(restore_model=(self.restore == "always"
                                  or exc_type is not None))

    def close(self, restore_model: Optional[bool] = None) -> None:
        """Finish the stream: harvest counters, optionally restore.

        ``restore_model=None`` applies the session's ``restore`` policy
        for a clean finish.  Restoring applies the :class:`BNState`
        captured at :meth:`start`, so the model ends exactly as it was
        found — statistics, affine parameters, counters, momentum and
        mode flags.  The runner is left as is: the next session's
        ``start()`` re-prepares it.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._sync_counters()
        if restore_model is None:
            restore_model = self.restore == "always"
        if restore_model:
            self._source.apply(self.model)
        self._closed = True

    def _sync_counters(self) -> None:
        """Copy the guard's running counters into the session."""
        if self.guarded:
            self.rollbacks = self.runner.rollbacks
            self.degraded_batches = self.runner.degraded_batches
            self.fallback_frames = self.runner.fallback_frames

    # -- streaming ---------------------------------------------------------

    def process_batch(self, images: np.ndarray, labels: np.ndarray,
                      *, adapt: bool = True) -> BatchStats:
        """Adapt on one batch, score it, and return its :class:`BatchStats`.

        Wall time is measured around the (adapting) forward; scoring is
        a NaN-safe argmax; with ``fps`` set, a batch whose service time
        exceeds its arrival period counts as late.  The returned stats
        carry this batch's frames, correct count and guard-counter
        deltas, ready for segmentation.

        ``adapt=False`` serves the batch with the model *as adapted so
        far* but frozen — eval-mode inference under ``no_grad``, no BN
        statistic updates, no optimizer step, ``batches_adapted``
        untouched — the ``budgeted`` scenario's between-grants service
        mode.  Train/eval flags are restored afterwards, so the next
        adapting batch sees the runner's own configuration.
        """
        if not self.active:
            raise RuntimeError("process_batch() outside start()/close()")
        before = (self.rollbacks, self.degraded_batches,
                  self.fallback_frames)
        start = time.perf_counter()
        if adapt:
            logits = self.runner.forward(images)
        else:
            logits = self._frozen_forward(images)
        elapsed = time.perf_counter() - start
        self.wall_time_s += elapsed
        self.batches_total += 1
        predictions = np.nan_to_num(logits).argmax(axis=-1)
        correct = int((predictions == labels).sum())
        self.frames_correct += correct
        self.frames_processed += len(labels)
        if self.fps is not None and elapsed > len(labels) / self.fps:
            self.batches_late += 1
        self._sync_counters()
        return BatchStats(
            index=self.batches_total - 1, frames=len(labels),
            correct=correct, rollbacks=self.rollbacks - before[0],
            degraded_batches=self.degraded_batches - before[1],
            fallback_frames=self.fallback_frames - before[2],
            adapted=adapt)

    def _frozen_forward(self, images: np.ndarray) -> np.ndarray:
        """Inference-only forward that leaves every mode flag as found.

        Deliberately bypasses ``runner.forward`` (which adapts) *and*
        ``runner.bind`` (which would rebuild optimizer state): only the
        per-module ``training`` flags are flipped to eval for the call
        and flipped back afterwards.
        """
        flags = [module.training for module in self.model.modules()]
        self.model.eval()
        try:
            with no_grad():
                logits = self.model(Tensor(np.asarray(images)))
        finally:
            for module, flag in zip(self.model.modules(), flags):
                object.__setattr__(module, "training", flag)
        return logits.data

    def drop_frames(self, count: int) -> None:
        """Record ``count`` frames refused by admission control."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.frames_dropped += count

    def scorecard(self) -> StreamScorecard:
        """The stream's outcome so far as a tenant-stamped scorecard."""
        frames = self.frames_processed
        error = 100.0 * (1.0 - self.frames_correct / frames) if frames else 0.0
        return StreamScorecard(
            frames_total=frames + self.frames_dropped,
            frames_processed=frames,
            frames_dropped=self.frames_dropped,
            batches_late=self.batches_late,
            batches_total=self.batches_total,
            mean_frame_latency_s=self.wall_time_s / frames if frames else 0.0,
            effective_error_pct=error,
            energy_j=0.0,
            wall_time_s=self.wall_time_s,
            faults_injected=self.faults_injected,
            rollbacks=self.rollbacks,
            degraded_batches=self.degraded_batches,
            fallback_frames=self.fallback_frames,
            tenant=self.tenant,
            scenario=self.scenario,
        )

    # -- checkpoint / resume -----------------------------------------------

    def checkpoint(self) -> dict:
        """Everything needed to resume this stream bit-identically.

        JSON-safe (rides inside journal entries): the source and current
        :class:`BNState`, the runner's runtime state (ladder position,
        optimizer moments, counters), the session's own score counters,
        and the :func:`~repro.adapt.state.frozen_digest` of the weights
        no method changes, which :meth:`load_checkpoint` checks instead
        of carrying them.  Wall-clock fields are included for reporting
        but are the one thing a resume cannot make bit-identical — the
        strip-timing comparison contract applies.
        """
        if not self._started:
            raise RuntimeError("checkpoint() before start()")
        return {
            "version": CHECKPOINT_VERSION,
            "tenant": self.tenant,
            "weights": frozen_digest(self.model),
            "source": encode_state(self._source.to_tree()),
            "current": encode_state(BNState.capture(self.model).to_tree()),
            "runner": encode_state(self.runner.runtime_state()),
            "score": {
                "frames_processed": self.frames_processed,
                "frames_correct": self.frames_correct,
                "frames_dropped": self.frames_dropped,
                "batches_total": self.batches_total,
                "batches_late": self.batches_late,
                "wall_time_s": self.wall_time_s,
                "faults_injected": self.faults_injected,
            },
        }

    def load_checkpoint(self, payload: dict) -> "AdaptationSession":
        """Resume a :meth:`checkpoint` onto this (un-started) session.

        Everything is checked before the model is touched: the version,
        the frozen-weights digest (a mismatch raises ``ValueError``
        naming both) and both BN states' layouts.  Then the *source*
        state is applied and the runner prepared over it, so every
        prepare-time capture (the method's pristine state, the guard's
        drift reference) is rebuilt exactly as in the original run;
        only then is the *current* state applied and the runner's
        runtime state restored on top.
        """
        if self._started:
            raise RuntimeError("load_checkpoint() on a started session")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {payload.get('version')!r}"
                f" (this build reads version {CHECKPOINT_VERSION})")
        weights = frozen_digest(self.model)
        if payload["weights"] != weights:
            raise ValueError(
                f"checkpoint was cut on frozen weights {payload['weights']}"
                f" but this model's are {weights}; refusing to resume")
        source = BNState.from_tree(decode_state(payload["source"]))
        current = BNState.from_tree(decode_state(payload["current"]))
        current.check(self.model)    # apply() checks source's layout first
        source.apply(self.model)
        self.start()
        current.apply(self.model)
        self.runner.load_runtime_state(decode_state(payload["runner"]))
        score = payload["score"]
        self.frames_processed = int(score["frames_processed"])
        self.frames_correct = int(score["frames_correct"])
        self.frames_dropped = int(score["frames_dropped"])
        self.batches_total = int(score["batches_total"])
        self.batches_late = int(score["batches_late"])
        self.wall_time_s = float(score["wall_time_s"])
        self.faults_injected = int(score["faults_injected"])
        self._sync_counters()
        return self

    def __repr__(self) -> str:
        return (f"AdaptationSession(tenant={self.tenant!r}, "
                f"runner={self.runner!r}, active={self.active})")


def run_stream(session: AdaptationSession,
               batches: Iterable[Tuple[np.ndarray, np.ndarray]], *,
               faults: Union[None, str, Sequence[FaultSpec]] = None,
               seed: int = 0,
               schedule: Optional[ScenarioSchedule] = None
               ) -> List[BatchStats]:
    """Play ``batches`` through ``session``, start to close.

    The one stream driver: the ``stream`` CLI, the native study
    runner's cells and the scenario path all call it.

    Parameters
    ----------
    session:
        An un-started :class:`AdaptationSession`; it is entered here
        and closed under its own ``restore`` policy.  Read the
        whole-stream :meth:`~AdaptationSession.scorecard` from it
        afterwards.
    batches:
        Iterator of ``(images, labels)``; labels are used for scoring
        only — the adaptation never sees them.
    faults:
        Fault specs — a CLI-style string (``"nan:0.2,constant@3"``), a
        sequence of :class:`~repro.robustness.faults.FaultSpec`, or
        ``None`` for a clean stream.  Injected on a schedule seeded by
        ``seed``; the count lands in the session's ``faults_injected``.
    schedule:
        Optional :class:`~repro.scenarios.schedule.ScenarioSchedule`
        (typically the one that generated ``batches``): batch ``i``
        adapts only if ``schedule.plan_for(i).adapt`` (``budgeted``
        freezing), and the scorecard is stamped with its label.

    Returns one :class:`~repro.scenarios.metrics.BatchStats` per batch;
    :meth:`~repro.scenarios.metrics.ScenarioOutcome.from_run` segments
    them along the schedule.
    """
    injector = None
    if faults is not None:
        specs = parse_fault_specs(faults) if isinstance(faults, str) \
            else tuple(faults)
        injector = FaultInjector(specs, seed=seed)
        batches = injector.inject(batches)
    if schedule is not None:
        session.scenario = schedule.label
    stats: List[BatchStats] = []
    with session:
        for index, (images, labels) in enumerate(batches):
            adapt = (schedule.plan_for(index).adapt
                     if schedule is not None else True)
            stats.append(session.process_batch(images, labels, adapt=adapt))
        session.faults_injected = injector.faults_injected if injector else 0
    return stats
