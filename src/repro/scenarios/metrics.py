"""Stream scorecards: whole-stream, per-batch, per-phase, and forgetting.

:class:`StreamScorecard` is the outcome of one stream, whether played
for real (:meth:`~repro.serve.session.AdaptationSession.scorecard`, the
serve daemon's replies) or in simulated time
(:func:`~repro.core.streaming.simulate_realtime`).  It lives here, with
the per-batch :class:`BatchStats` it sums, so the serve layer can build
and ship one without importing the study harness.

A whole-stream scorecard hides the thing scenario streams exist to
expose: *where* in the shift sequence accuracy was lost and whether the
guard ladder fired during a switch or a dwell.  This module aggregates
per-batch observations into one :class:`SegmentCard` per contiguous
shift phase (the
:class:`~repro.scenarios.schedule.Segment` structure of the schedule),
and computes the recurrence *forgetting* metric over them: when a
``cyclic`` scenario revisits a phase it has adapted to before, how much
worse is the revisit than the first encounter?  Positive forgetting
means the interleaved phases erased what the method had gained —
exactly the continual-adaptation failure mode BoTTA's scenario axis is
designed to surface.

Segmenting is a post-pass: :func:`repro.serve.session.run_stream`
returns one :class:`BatchStats` per batch, and
:meth:`ScenarioOutcome.from_run` folds them into the schedule's
segments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.scenarios.schedule import ScenarioSchedule, Segment


@dataclass(frozen=True)
class StreamScorecard:
    """Outcome of one stream, played for real or in simulated time."""

    frames_total: int
    frames_processed: int
    frames_dropped: int
    batches_late: int          # batches finished after their deadline
    batches_total: int
    mean_frame_latency_s: float   # arrival -> result, averaged
    effective_error_pct: float    # processed at adapted error, drops at baseline
    energy_j: float
    wall_time_s: float
    # guard/fault accounting (repro.robustness); all zero for clean
    # unguarded runs so pre-robustness callers are unaffected
    faults_injected: int = 0
    rollbacks: int = 0            # BN-snapshot restores by the guard
    degraded_batches: int = 0     # batches served below the requested method
    fallback_frames: int = 0      # frames answered by the bottom-rung fallback
    #: serve-daemon tenant this card scores ("" = single-stream run)
    tenant: str = ""
    #: compact scenario spec the stream followed ("" = plain i.i.d.
    #: single-corruption stream); see :mod:`repro.scenarios`
    scenario: str = ""

    @property
    def drop_rate(self) -> float:
        return self.frames_dropped / self.frames_total if self.frames_total else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        return self.batches_late / self.batches_total if self.batches_total else 0.0

    def describe(self) -> str:
        text = (f"[{self.tenant}] " if self.tenant else "")
        if self.scenario:
            text += f"<{self.scenario}> "
        text += (f"{self.frames_processed}/{self.frames_total} frames "
                f"processed ({self.drop_rate:.0%} dropped), "
                f"{self.deadline_miss_rate:.0%} batches late, "
                f"latency {self.mean_frame_latency_s * 1e3:.0f} ms/frame, "
                f"effective error {self.effective_error_pct:.2f}%, "
                f"{self.energy_j:.1f} J")
        if self.faults_injected or self.rollbacks or self.degraded_batches:
            text += (f" | guard: {self.faults_injected} faults, "
                     f"{self.rollbacks} rollbacks, "
                     f"{self.degraded_batches} degraded batches, "
                     f"{self.fallback_frames} fallback frames")
        return text


@dataclass(frozen=True)
class BatchStats:
    """One processed batch's observations, before segmentation.

    :meth:`~repro.serve.session.AdaptationSession.process_batch` returns
    one per batch.  Guard counters are *deltas* over this batch (the
    session keeps the running totals), so segment cards sum exactly to
    the whole-stream scorecard.
    """

    index: int
    frames: int
    correct: int
    rollbacks: int = 0
    degraded_batches: int = 0
    fallback_frames: int = 0
    adapted: bool = True


@dataclass(frozen=True)
class SegmentCard:
    """One shift phase's scorecard slice.

    The identity fields mirror :class:`~repro.scenarios.schedule.
    Segment`; the counters are sums of this phase's
    :class:`BatchStats`.  ``batches_adapted`` counts batches where
    adaptation actually ran (under ``budgeted`` a phase can be entirely
    frozen).
    """

    ordinal: int
    corruption: str
    severity: int
    start: int
    end: int
    visit: int
    frames: int
    correct: int
    rollbacks: int
    degraded_batches: int
    fallback_frames: int
    batches_adapted: int

    @property
    def num_batches(self) -> int:
        return self.end - self.start

    @property
    def error_pct(self) -> float:
        if self.frames == 0:
            return 0.0
        return 100.0 * (1.0 - self.correct / self.frames)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["error_pct"] = self.error_pct
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentCard":
        payload = dict(payload)
        payload.pop("error_pct", None)  # derived, recomputed on demand
        return cls(**payload)


def segment_cards(segments: Sequence[Segment],
                  stats: Sequence[BatchStats]) -> List[SegmentCard]:
    """Fold per-batch stats into one card per schedule segment.

    ``stats`` may cover fewer batches than the segments describe (a
    stream cut short still segments cleanly); a batch outside every
    segment is an error — it means the segmentation and the run
    disagree about the schedule.
    """
    by_index: Dict[int, BatchStats] = {s.index: s for s in stats}
    if len(by_index) != len(stats):
        raise ValueError("duplicate batch index in stats")
    cards: List[SegmentCard] = []
    covered = set()
    for segment in segments:
        frames = correct = rollbacks = degraded = fallback = adapted = 0
        for index in range(segment.start, segment.end):
            stat = by_index.get(index)
            if stat is None:
                continue
            covered.add(index)
            frames += stat.frames
            correct += stat.correct
            rollbacks += stat.rollbacks
            degraded += stat.degraded_batches
            fallback += stat.fallback_frames
            adapted += int(stat.adapted)
        cards.append(SegmentCard(
            ordinal=segment.ordinal, corruption=segment.corruption,
            severity=segment.severity, start=segment.start, end=segment.end,
            visit=segment.visit, frames=frames, correct=correct,
            rollbacks=rollbacks, degraded_batches=degraded,
            fallback_frames=fallback, batches_adapted=adapted))
    stray = set(by_index) - covered
    if stray:
        raise ValueError(f"batches outside every segment: {sorted(stray)}")
    return cards


def recurrence_forgetting(cards: Sequence[SegmentCard]) -> float:
    """Mean error increase on phase revisits vs. their first encounter.

    For every ``(corruption, severity)`` phase visited at least twice:
    ``mean(error over revisits) - error(first visit)``, averaged over
    such phases.  Positive = the method forgot; ~zero = it retained;
    negative = revisits still helped (continued adaptation).  ``nan``
    when the stream has no recurrence (nothing to forget).
    """
    first: Dict[Tuple[str, int], float] = {}
    revisits: Dict[Tuple[str, int], List[float]] = {}
    for card in sorted(cards, key=lambda c: c.ordinal):
        if card.frames == 0:
            continue
        phase = (card.corruption, card.severity)
        if card.visit == 0:
            first[phase] = card.error_pct
        else:
            revisits.setdefault(phase, []).append(card.error_pct)
    deltas = [sum(errors) / len(errors) - first[phase]
              for phase, errors in sorted(revisits.items())
              if phase in first]
    if not deltas:
        return math.nan
    return sum(deltas) / len(deltas)


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one scenario run produced: whole-stream card + per-phase slices."""

    scenario: str
    seed: int
    scorecard: StreamScorecard
    segments: Tuple[SegmentCard, ...] = field(default=())

    @classmethod
    def from_run(cls, schedule: ScenarioSchedule, scorecard: StreamScorecard,
                 stats: Sequence[BatchStats]) -> "ScenarioOutcome":
        """Segment a finished run's per-batch stats along ``schedule``."""
        return cls(scenario=schedule.label, seed=schedule.seed,
                   scorecard=scorecard,
                   segments=tuple(segment_cards(
                       schedule.segments(len(stats)), stats)))

    @property
    def forgetting(self) -> float:
        """Recurrence forgetting over this run's segments (nan if none)."""
        return recurrence_forgetting(self.segments)

    def to_dict(self) -> dict:
        forgetting = self.forgetting
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "scorecard": asdict(self.scorecard),
            "segments": [card.to_dict() for card in self.segments],
            "forgetting": None if math.isnan(forgetting) else forgetting,
        }
