"""Real-time streaming simulation: accuracy meets latency on one clock.

The paper measures accuracy and latency separately and warns that "the
extra adaptation time ... can be a bottleneck for tight deadlines"
(213 ms at the A3 point).  This module closes the loop: it plays a
corrupted stream against a device in simulated real time —

- frames arrive at a fixed rate and are grouped into adaptation batches;
- the device processes one batch at a time, taking the cost model's
  forward time (inference + adaptation) per batch;
- a batch whose processing finishes after the *next* batch has fully
  arrived causes backlog; backlog beyond ``queue_capacity`` batches
  forces drops (frames answered by the stale model without processing);

and reports an online scorecard: effective accuracy (dropped frames are
scored with the pre-adaptation model's expected error), deadline-miss
rate, mean latency per frame, and total energy.

Accuracy inputs can come from either path: the reference grid (simulated
studies) or measured per-batch accuracies (native runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.reference import reference_error_pct
from repro.devices.calibrate import METHOD_FLAGS
from repro.devices.cost_model import forward_latency
from repro.devices.energy import energy_per_batch
from repro.devices.memory import estimate_memory
from repro.devices.spec import DeviceSpec
from repro.models.summary import ModelSummary
from repro.robustness.faults import POISONING_FAULTS
from repro.robustness.guard import LADDER
from repro.scenarios.schedule import ScenarioSchedule, as_schedule

#: rollbacks a guarded poisoning batch costs = ladder rungs tried before
#: the uniform fallback answers it (bn_opt -> bn_norm -> no_adapt)
_LADDER_DEPTH = {name: len(LADDER) - LADDER.index(name) for name in LADDER}


@dataclass(frozen=True)
class StreamScorecard:
    """Outcome of one real-time streaming simulation."""

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


@dataclass
class RealTimeStream:
    """Configuration of a real-time run.

    Parameters
    ----------
    fps:
        Frame arrival rate of the sensor.
    num_frames:
        Total frames in the stream (0 = an empty stream, which yields an
        all-zero scorecard rather than an error — streams that end before
        the first batch are a legitimate edge deployment outcome).
    batch_size:
        Adaptation batch size (frames per processing step).
    queue_capacity:
        Maximum *batches* of backlog the device buffers before dropping.
        ``0`` means no buffering at all: any batch arriving while the
        device is still busy is dropped.
    """

    fps: float
    num_frames: int
    batch_size: int
    queue_capacity: int = 2

    def __post_init__(self):
        if self.fps <= 0 or self.batch_size <= 0:
            raise ValueError("fps and batch_size must be positive")
        if self.num_frames < 0:
            raise ValueError("num_frames must be >= 0")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")


def simulate_realtime(summary: ModelSummary, device: DeviceSpec,
                      method: str, stream: RealTimeStream,
                      adapted_error_pct: Optional[float] = None,
                      baseline_error_pct: Optional[float] = None,
                      fault_batches: Optional[Mapping[int, str]] = None,
                      guard: bool = False,
                      poisoned_error_pct: float = 90.0,
                      scenario=None,
                      scenario_seed: int = 0
                      ) -> StreamScorecard:
    """Play ``stream`` through (model, device, method) in simulated time.

    ``adapted_error_pct`` / ``baseline_error_pct`` default to the
    reference grid values for the model (by summary name) and method.
    Raises :class:`MemoryError` via the memory model if the
    configuration cannot run at all.

    ``fault_batches`` maps batch indices to fault names (as produced by
    :meth:`repro.robustness.faults.FaultSchedule.plan`), modeling the
    native robustness layer analytically:

    - *unguarded*: a poisoning fault (NaN/Inf/constant/wrong-range
      pixels) corrupts the BN running statistics, so the faulted batch
      **and every subsequent processed batch** are scored at
      ``poisoned_error_pct`` (chance level for 10 classes by default) —
      the silent-failure baseline the robustness layer exists to fix;
    - ``guard=True``: the faulted batch triggers rollbacks down the
      degradation ladder (doubled service time and energy for the
      retries), its frames are answered by the uniform-logits fallback
      at ``poisoned_error_pct`` — a garbage batch stays unanswerable —
      but the stream *recovers*: subsequent clean batches score at the
      adapted error again, and the scorecard's guard counters record
      the cost.

    ``scenario`` attaches a scenario schedule (a compact spec string, a
    :class:`~repro.scenarios.spec.ScenarioSpec`, or a
    :class:`~repro.scenarios.schedule.ScenarioSchedule`; ``scenario_seed``
    seeds string/spec forms).  Analytically only the *budgeted* axis has
    a cost/accuracy consequence: batches whose plan freezes adaptation
    are served at inference-only latency and energy and scored at the
    baseline (un-adapted) error — the reference grid carries no
    per-corruption or per-severity errors, so corruption switching and
    severity ramps change the scorecard's ``scenario`` stamp but not its
    analytic numbers (the *native* scenario harness measures those).
    """
    if method not in METHOD_FLAGS:
        raise KeyError(f"unknown method {method!r}")
    adapts, backward = METHOD_FLAGS[method]
    memory = estimate_memory(summary, stream.batch_size, device,
                             does_backward=backward)
    if not memory.fits:
        raise MemoryError(
            f"{summary.model_name}/{method} at batch {stream.batch_size} "
            f"needs {memory.total_gb:.2f} GB on {device.display_name}")

    if adapted_error_pct is None:
        adapted_error_pct = reference_error_pct(summary.model_name, method,
                                                _nearest_paper_batch(stream.batch_size))
    if baseline_error_pct is None:
        baseline_error_pct = reference_error_pct(summary.model_name,
                                                 "no_adapt", 50)

    latency = forward_latency(summary, stream.batch_size, device,
                              adapts_bn_stats=adapts, does_backward=backward)
    service_time = latency.forward_time_s
    batch_energy = energy_per_batch(latency, device)
    batch_period = stream.batch_size / stream.fps

    schedule = None
    frozen_service = service_time
    frozen_energy = batch_energy
    if scenario is not None:
        schedule = scenario if isinstance(scenario, ScenarioSchedule) \
            else as_schedule(scenario, seed=scenario_seed)
        frozen = forward_latency(summary, stream.batch_size, device,
                                 adapts_bn_stats=False, does_backward=False)
        frozen_service = frozen.forward_time_s
        frozen_energy = energy_per_batch(frozen, device)

    fault_batches = dict(fault_batches or {})
    poisoning = POISONING_FAULTS if fault_batches else frozenset()

    num_batches = stream.num_frames // stream.batch_size
    device_free_at = 0.0
    frames_processed = 0
    frames_dropped = 0
    batches_late = 0
    total_latency = 0.0
    energy = 0.0
    finish = 0.0
    error_sum = 0.0            # summed per-frame error over all frames
    faults_injected = 0
    rollbacks = 0
    degraded_batches = 0
    fallback_frames = 0
    poisoned = False           # unguarded BN stats corrupted permanently

    for index in range(num_batches):
        fault = fault_batches.get(index, "")
        if fault:
            faults_injected += 1
        frozen = (schedule is not None
                  and not schedule.plan_for(index).adapt)
        arrival_complete = (index + 1) * batch_period
        start = max(arrival_complete, device_free_at)
        backlog_batches = (start - arrival_complete) / batch_period
        if backlog_batches > stream.queue_capacity:
            # queue overflow: answer this batch with the stale model
            frames_dropped += stream.batch_size
            error_sum += (poisoned_error_pct if poisoned
                          else baseline_error_pct) * stream.batch_size
            # dropped frames are "served" instantly at arrival
            finish = max(finish, arrival_complete)
            continue
        batch_service = frozen_service if frozen else service_time
        batch_cost = frozen_energy if frozen else batch_energy
        if fault in poisoning:
            if guard:
                # rollback/retry down the ladder; frames answered by the
                # uniform fallback, stream state protected
                rollbacks += _LADDER_DEPTH[method]
                degraded_batches += 1
                fallback_frames += stream.batch_size
                batch_service = 2 * batch_service
                batch_cost = 2 * batch_cost
                error_sum += poisoned_error_pct * stream.batch_size
            else:
                # silent poisoning: only an *adapting* batch folds the
                # garbage into BN stats; a frozen batch is garbage-in
                # garbage-out for its own frames only
                poisoned = poisoned or (adapts and not frozen)
                error_sum += poisoned_error_pct * stream.batch_size
        else:
            if poisoned:
                batch_error = poisoned_error_pct
            elif frozen:
                # frozen window: served by inference only; analytically
                # scored at the un-adapted baseline error
                batch_error = baseline_error_pct
            else:
                batch_error = adapted_error_pct
            error_sum += batch_error * stream.batch_size
        finish = start + batch_service
        device_free_at = finish
        frames_processed += stream.batch_size
        energy += batch_cost
        # deadline: results should be ready before the *next* batch has
        # fully arrived (one-period deadline)
        if finish > arrival_complete + batch_period:
            batches_late += 1
        # frame latency: mean over the batch from each frame's arrival;
        # frames arrive uniformly across the period
        mean_arrival = arrival_complete - batch_period / 2
        total_latency += (finish - mean_arrival) * stream.batch_size

    frames_total = num_batches * stream.batch_size
    effective_error = error_sum / frames_total if frames_total else 0.0
    mean_latency = (total_latency / frames_processed
                    if frames_processed else 0.0)
    return StreamScorecard(
        frames_total=frames_total,
        frames_processed=frames_processed,
        frames_dropped=frames_dropped,
        batches_late=batches_late,
        batches_total=num_batches,
        mean_frame_latency_s=mean_latency,
        effective_error_pct=effective_error,
        energy_j=energy,
        wall_time_s=finish,
        faults_injected=faults_injected,
        rollbacks=rollbacks,
        degraded_batches=degraded_batches,
        fallback_frames=fallback_frames,
        scenario=schedule.label if schedule is not None else "",
    )


def _nearest_paper_batch(batch_size: int) -> int:
    """Snap an arbitrary batch size to the paper's 50/100/200 grid."""
    return min((50, 100, 200), key=lambda b: abs(b - batch_size))


def max_sustainable_fps(summary: ModelSummary, device: DeviceSpec,
                        method: str, batch_size: int) -> float:
    """Highest frame rate the device sustains without growing backlog.

    The device keeps up iff the per-batch service time does not exceed
    the batch arrival period: ``fps <= batch_size / service_time``.
    """
    adapts, backward = METHOD_FLAGS[method]
    latency = forward_latency(summary, batch_size, device,
                              adapts_bn_stats=adapts, does_backward=backward)
    return batch_size / latency.forward_time_s
