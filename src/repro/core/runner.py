"""Study runners: simulated (device cost models) and native (real execution).

``run_simulated_study`` sweeps the full paper grid: for every (model,
method, batch, device) it combines the reference accuracy grid with the
device latency/energy/memory models, marking OOM configurations exactly
where the paper found them.  This powers every latency/energy figure
(Figs. 3, 5, 6, 8, 9, 11, 12 and Table I).

``run_native_study`` actually executes the adaptation algorithms on our
numpy engine with tiny-profile robust models over corrupted SynthCIFAR
streams, producing measured (not reference) prediction errors — the
reproduction of Fig. 2's *phenomenon* rather than its absolute numbers.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.adapt import build_method
from repro.core.config import StudyConfig
from repro.core.executor import CellSpec, ResilientExecutor
from repro.core.records import MeasurementRecord, StudyResult
from repro.core.reference import reference_error_pct
from repro.data.stream import CorruptionStream
from repro.data.synthetic import make_synth_cifar
from repro.devices.calibrate import METHOD_FLAGS
from repro.devices.catalog import device_info
from repro.devices.cost_model import forward_latency
from repro.devices.energy import energy_per_batch
from repro.devices.memory import estimate_memory
from repro.engine import create_backend, use_backend
from repro.models.registry import build_model
from repro.models.summary import ModelSummary, summarize
from repro.resilience.journal import RunJournal
from repro.robustness.faults import parse_fault_specs
from repro.robustness.guard import GuardedAdaptation
from repro.scenarios.metrics import ScenarioOutcome, StreamScorecard
from repro.scenarios.spec import parse_scenario_spec
from repro.scenarios.stream import ScenarioStream
from repro.serve.session import AdaptationSession, run_stream
from repro.train.trainer import pretrain_robust


class _SummaryCache:
    """Thread-safe memo of full-model summaries keyed by model name.

    Building a full model to summarize it is the expensive part of a
    simulated sweep, so results are kept for the process lifetime; the
    lock makes concurrent sweeps (e.g. the threaded benchmark harness)
    build each summary exactly once.  ``clear()`` is the invalidation
    hook tests use to exercise cold-cache behaviour.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, ModelSummary] = {}
        self._lock = threading.Lock()

    def get_or_build(self, name: str,
                     builder: Callable[[str], ModelSummary]) -> ModelSummary:
        with self._lock:
            cached = self._entries.get(name)
        if cached is not None:
            return cached
        built = builder(name)
        with self._lock:
            # A concurrent builder may have won the race; keep its entry
            # so every caller sees one canonical summary per name.
            return self._entries.setdefault(name, built)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_GRID_SUMMARY_CACHE = _SummaryCache()


def _grid_summaries(models: Sequence[str]) -> Dict[str, ModelSummary]:
    """Full-size summaries, built once per model name and reused — the
    grid sweep itself is cheap; instantiating full models is not."""
    return {name: _GRID_SUMMARY_CACHE.get_or_build(
                name, lambda n: summarize(build_model(n, "full"), name=n))
            for name in models}


def run_simulated_study(config: Optional[StudyConfig] = None) -> StudyResult:
    """Sweep the full grid through the device models (fast, deterministic)."""
    config = config or StudyConfig()
    summaries = _grid_summaries(config.models)
    result = StudyResult()
    for case in config.cases():
        summary = summaries[case.model]
        device = device_info(case.device)
        adapts, backward = METHOD_FLAGS[case.method]
        memory = estimate_memory(summary, case.batch_size, device,
                                 does_backward=backward)
        error = reference_error_pct(case.model, case.method, case.batch_size)
        if not memory.fits:
            result.add(MeasurementRecord(
                model=case.model, method=case.method,
                batch_size=case.batch_size, device=case.device,
                error_pct=error, forward_time_s=float("nan"),
                energy_j=float("nan"), memory_gb=memory.total_gb, oom=True))
            continue
        latency = forward_latency(summary, case.batch_size, device,
                                  adapts_bn_stats=adapts, does_backward=backward)
        baseline = forward_latency(summary, case.batch_size, device,
                                   adapts_bn_stats=False, does_backward=False)
        result.add(MeasurementRecord(
            model=case.model, method=case.method, batch_size=case.batch_size,
            device=case.device, error_pct=error,
            forward_time_s=latency.forward_time_s,
            energy_j=energy_per_batch(latency, device),
            memory_gb=memory.total_gb, oom=False,
            adapt_overhead_s=latency.forward_time_s - baseline.forward_time_s))
    return result


def run_native_study(config: Optional[StudyConfig] = None,
                     models: Optional[Dict[str, object]] = None,
                     per_corruption: bool = False,
                     backend=None) -> StudyResult:
    """Execute the adaptation grid for real on tiny-profile models.

    ``models`` may supply already-trained models keyed by name (else they
    are pre-trained via :func:`repro.train.pretrain_robust`, which caches
    to disk).  The returned records carry *measured* prediction errors
    over the corrupted streams and host wall-clock forward times; device
    and energy fields are not populated (device costs are the simulated
    runner's job).

    With ``per_corruption=True`` one extra record per corruption type is
    emitted alongside each aggregate record (its ``corruption`` field set),
    enabling mCE-style analysis via :mod:`repro.core.metrics`.

    Execution runs on the backend named by ``config.backend``; every record's
    ``backend`` field says which engine produced it.  For serial runs a
    pre-built ``backend`` instance may be passed instead: it is used
    as-is and left open, so the caller can inspect it afterwards — how
    the CLI surfaces :class:`~repro.analysis.sanitize.SanitizerBackend`
    findings after a ``--backend sanitize`` study.

    ``config.faults`` injects faults into every stream on a seeded
    schedule, and ``config.guard`` wraps each method in
    :class:`~repro.robustness.guard.GuardedAdaptation`; the records'
    guard counters (``faults_injected``/``rollbacks``/
    ``degraded_batches``/``fallback_frames``) report what happened.

    The grid is driven cell by cell (one cell per (model, method,
    batch size) over the full corruption set) through a
    :class:`~repro.core.executor.ResilientExecutor`: a raising
    cell becomes a ``status="failed"`` record and the sweep continues,
    ``config.max_retries``/``config.cell_timeout`` bound retries and
    per-cell wall time, and ``config.journal``/``config.resume`` make
    the run durable and resumable — a resumed run replays completed
    cells from the journal bit-identically instead of re-executing
    them.

    With ``config.workers > 0`` the same cells are scheduled across
    that many worker *processes* by a
    :class:`~repro.parallel.ParallelExecutor` instead: each spawned
    worker re-enters the configured backend, rebuilds its streams, and
    shares pre-trained checkpoints through the file-locked disk cache,
    while the parent remains the single journal writer and merges
    records in canonical grid order — every field of the merged result
    except wall-clock timing is bit-identical to the serial run's.
    """
    config = config or StudyConfig()
    # parsed once, here: a malformed spec fails the call before any cell
    # runs, instead of failing every cell (in every worker)
    specs = {"faults": (parse_fault_specs(config.faults)
                        if config.faults else None),
             "scenario": (parse_scenario_spec(config.scenario)
                          if config.scenario else None)}
    if config.workers:
        if backend is not None:
            raise ValueError("an explicit backend instance cannot be "
                             "shipped to worker processes; leave "
                             "backend=None when config.workers > 0")
        return _run_native_study_parallel(config, models, per_corruption,
                                          specs)
    # A caller-supplied backend instance (e.g. a SanitizerBackend whose
    # findings the caller wants to inspect afterwards) is used as-is
    # and stays open; an engine-built one is owned and closed here.
    owns_backend = backend is None
    if backend is None:
        backend = create_backend(config.backend)
    try:
        with use_backend(backend):
            return _run_native_study(config, backend, models,
                                     per_corruption, specs)
    finally:
        if owns_backend:
            backend.close()


def _config_fingerprint(config: StudyConfig, backend_name: str,
                        per_corruption: bool) -> str:
    """Stable digest of everything that shapes a native run's records.

    Stamped into the run journal's ``run_start`` entry; a resume under a
    different fingerprint is refused rather than silently merging
    incomparable measurements.  Wall-clock-only knobs (workers, journal
    placement, retry policy) are deliberately excluded.
    """
    payload = {
        "models": list(config.models), "methods": list(config.methods),
        "batch_sizes": list(config.batch_sizes),
        "corruptions": list(config.corruptions),
        "severity": config.severity, "image_size": config.image_size,
        "stream_samples": config.stream_samples,
        "train_samples": config.train_samples,
        "train_epochs": config.train_epochs,
        "bn_opt_lr": config.bn_opt_lr,
        "method_kwargs": config.method_kwargs,
        "faults": config.faults, "guard": config.guard,
        "scenario": config.scenario,
        "seed": config.seed, "backend": backend_name,
        "per_corruption": per_corruption,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _build_streams(config: StudyConfig, scenario) -> List:
    """The evaluation streams, seeded from the config.

    Depends only on config fields inside the resume fingerprint, so a
    serial parent and every parallel worker rebuild identical streams.
    With a ``scenario`` (``config.scenario``, parsed), the corruption
    grid is replaced by a single scenario-scheduled stream
    (:class:`~repro.scenarios.stream.ScenarioStream`).
    """
    test = make_synth_cifar(config.stream_samples, size=config.image_size,
                            seed=config.seed + 12345)
    if scenario is not None:
        return [ScenarioStream.from_dataset(test, scenario,
                                            seed=config.seed)]
    return [CorruptionStream.from_dataset(test, corruption,
                                          severity=config.severity,
                                          seed=config.seed)
            for corruption in config.corruptions]


def _grid_specs(config: StudyConfig, backend_name: str) -> List[CellSpec]:
    """Cell specs for the native grid, in canonical grid order."""
    return [CellSpec(key=f"{model_name}/{method_name}/{batch_size}",
                     model=model_name, method=method_name,
                     batch_size=batch_size, device="host",
                     backend=backend_name, guarded=config.guard)
            for model_name in config.models
            for method_name in config.methods
            for batch_size in config.batch_sizes]


def _run_native_study(config: StudyConfig, backend,
                      models: Optional[Dict[str, object]],
                      per_corruption: bool, specs: dict) -> StudyResult:
    streams = _build_streams(config, specs["scenario"])

    # Models are resolved lazily (a fully-resumed run never trains) and
    # cached so every cell of a model shares one instance, exactly as
    # the pre-cell monolithic loop did.
    model_cache: Dict[str, object] = dict(models) if models else {}

    def get_model(name: str):
        if name not in model_cache:
            model_cache[name] = pretrain_robust(
                name, image_size=config.image_size,
                train_samples=config.train_samples,
                epochs=config.train_epochs, seed=config.seed)
        return model_cache[name]

    def make_cell(spec: CellSpec):
        def run_cell() -> List[MeasurementRecord]:
            # re-enter the backend: the watchdog may run this closure on
            # a fresh thread, and use_backend() is thread-local
            with use_backend(backend):
                return _run_native_cell(config, get_model(spec.model), spec,
                                        streams, specs["faults"],
                                        per_corruption)
        return run_cell

    cells = [(spec, make_cell(spec))
             for spec in _grid_specs(config, backend.name)]

    journal = (RunJournal(config.journal, resume=config.resume)
               if config.journal else None)
    executor = ResilientExecutor(
        journal, resume=config.resume, max_retries=config.max_retries,
        cell_timeout=config.cell_timeout, seed=config.seed,
        fingerprint=_config_fingerprint(config, backend.name,
                                        per_corruption))
    try:
        return executor.run(cells)
    finally:
        if journal is not None:
            journal.close()


# ----------------------------------------------------------------------
# Process-parallel native execution (:mod:`repro.parallel`)
# ----------------------------------------------------------------------

#: per-worker-process context, keyed by config fingerprint: the spawned
#: interpreter builds its backend/streams/models once and reuses them
#: for every cell it pulls (one config per worker in practice; a new
#: fingerprint evicts the old context).  Workers are single-threaded
#: today, but mutation stays behind the lock so a future threaded
#: worker loop cannot corrupt the context mid-build (REP005).
_WORKER_CONTEXT: Dict[str, dict] = {}
_WORKER_CONTEXT_LOCK = threading.Lock()


def _native_cell_worker(payload: dict, spec: CellSpec
                        ) -> List[MeasurementRecord]:
    """Module-level cell runner for parallel workers (spawn-picklable).

    ``payload`` ships once per worker: the :class:`StudyConfig`, its
    parsed specs, the run fingerprint, ``per_corruption``, and
    optionally pre-built models (pickled whole).  Models not shipped
    are resolved through :func:`repro.train.pretrain_robust`, whose disk
    cache is file-locked so concurrent workers train each checkpoint
    exactly once.
    """
    config: StudyConfig = payload["config"]
    context = _WORKER_CONTEXT.get(payload["fingerprint"])
    if context is None:
        context = {
            "backend": create_backend(config.backend),
            "streams": _build_streams(config, payload["specs"]["scenario"]),
            "models": dict(payload.get("models") or {}),
        }
        with _WORKER_CONTEXT_LOCK:
            _WORKER_CONTEXT.clear()
            _WORKER_CONTEXT[payload["fingerprint"]] = context
    model = context["models"].get(spec.model)
    if model is None:
        model = pretrain_robust(
            spec.model, image_size=config.image_size,
            train_samples=config.train_samples,
            epochs=config.train_epochs, seed=config.seed)
        context["models"][spec.model] = model
    # re-enter the backend: use_backend() is thread-local and this is a
    # fresh spawned interpreter
    with use_backend(context["backend"]):
        return _run_native_cell(config, model, spec, context["streams"],
                                payload["specs"]["faults"],
                                payload["per_corruption"])


def _run_native_study_parallel(config: StudyConfig,
                               models: Optional[Dict[str, object]],
                               per_corruption: bool,
                               specs: dict) -> StudyResult:
    """Drive the native grid across ``config.workers`` processes."""
    from repro.parallel import ParallelExecutor

    probe = create_backend(config.backend)
    backend_name = probe.name
    probe.close()
    fingerprint = _config_fingerprint(config, backend_name, per_corruption)
    cells = [(spec, _native_cell_worker)
             for spec in _grid_specs(config, backend_name)]
    payload = {"config": config, "specs": specs, "fingerprint": fingerprint,
               "per_corruption": per_corruption, "models": models}
    journal = (RunJournal(config.journal, resume=config.resume)
               if config.journal else None)
    executor = ParallelExecutor(
        journal, workers=config.workers, resume=config.resume,
        max_retries=config.max_retries, cell_timeout=config.cell_timeout,
        seed=config.seed, fingerprint=fingerprint)
    try:
        return executor.run(cells, payload=payload)
    finally:
        if journal is not None:
            journal.close()


def _run_native_cell(config: StudyConfig, model, spec: CellSpec,
                     streams: Sequence[CorruptionStream],
                     fault_specs, per_corruption: bool
                     ) -> List[MeasurementRecord]:
    """Execute one isolated grid cell over the full corruption set.

    Each corruption stream is played by
    :func:`~repro.serve.session.run_stream` through an
    :class:`~repro.serve.session.AdaptationSession` with the
    ``"always"``-restore policy: the session harvests the guard
    counters and then resets the method whether the stream finished or
    raised, so a failed cell cannot leak adapted BN state into the
    cells that share this model instance — and every stream of the
    cell starts from the same pristine state (episodic evaluation).
    """
    kwargs = dict(config.method_kwargs.get(spec.method, {}))
    if spec.method == "bn_opt":
        kwargs.setdefault("lr", config.bn_opt_lr)
    method = build_method(spec.method, **kwargs)
    if config.guard:
        method = GuardedAdaptation(method)
    if config.scenario:
        return _run_scenario_cell(config, model, spec, streams[0],
                                  fault_specs, per_corruption, method)
    cards: List[StreamScorecard] = []
    for stream_index, stream in enumerate(streams):
        session = AdaptationSession(model, method, restore="always")
        run_stream(session, stream.batches(spec.batch_size),
                   faults=fault_specs,
                   seed=config.seed + 7919 * stream_index)
        cards.append(session.scorecard())
    records = ([stream_record(spec, card, corruption=stream.corruption,
                              timed=False)
                for stream, card in zip(streams, cards)]
               if per_corruption else [])
    scored = [card.effective_error_pct for card in cards
              if card.frames_processed]
    records.append(_record(
        spec, float(np.mean(scored)) if scored else float("nan"),
        forward_time_s=(sum(card.wall_time_s for card in cards)
                        / max(sum(card.batches_total for card in cards), 1)),
        faults_injected=sum(card.faults_injected for card in cards),
        rollbacks=sum(card.rollbacks for card in cards),
        degraded_batches=sum(card.degraded_batches for card in cards),
        fallback_frames=sum(card.fallback_frames for card in cards)))
    return records


def _run_scenario_cell(config: StudyConfig, model, spec: CellSpec,
                       stream: ScenarioStream, fault_specs,
                       per_corruption: bool, method
                       ) -> List[MeasurementRecord]:
    """One grid cell over a scenario stream instead of the corruption set.

    The single stream is played with its schedule under the same
    episodic ``"always"``-restore contract as the corruption-grid path;
    ``per_corruption=True`` emits one record per *shift segment* (its
    ``corruption`` field carrying the segment's corruption and
    ``segment`` its ordinal) instead of one per corruption type.
    """
    session = AdaptationSession(model, method, restore="always")
    stats = run_stream(session, stream.batches(spec.batch_size),
                       faults=fault_specs, seed=config.seed,
                       schedule=stream.schedule)
    outcome = ScenarioOutcome.from_run(stream.schedule, session.scorecard(),
                                       stats)
    records = segment_records(spec, outcome) if per_corruption else []
    records.append(stream_record(spec, outcome.scorecard))
    return records


# ----------------------------------------------------------------------
# Measured records (shared with the ``stream`` CLI)
# ----------------------------------------------------------------------

def _record(spec: CellSpec, error_pct: float, *,
            forward_time_s: float = float("nan"),
            **fields) -> MeasurementRecord:
    """A host-measured record at ``spec``'s grid point (no energy)."""
    return MeasurementRecord(
        model=spec.model, method=spec.method, batch_size=spec.batch_size,
        device=spec.device, error_pct=error_pct,
        forward_time_s=forward_time_s, energy_j=float("nan"),
        backend=spec.backend, guarded=spec.guarded, **fields)


def stream_record(spec: CellSpec, card: StreamScorecard, *,
                  corruption: str = "", timed: bool = True
                  ) -> MeasurementRecord:
    """One stream's scorecard as a study record.

    A stream shorter than the batch size scores no frames; its error is
    NaN rather than a division by zero.  ``timed=False`` leaves
    ``forward_time_s`` NaN, as on per-corruption records, whose cell
    record carries the time.
    """
    return _record(
        spec, (card.effective_error_pct if card.frames_processed
               else float("nan")),
        forward_time_s=(card.wall_time_s / max(card.batches_total, 1)
                        if timed else float("nan")),
        corruption=corruption, faults_injected=card.faults_injected,
        rollbacks=card.rollbacks, degraded_batches=card.degraded_batches,
        fallback_frames=card.fallback_frames, scenario=card.scenario)


def segment_records(spec: CellSpec, outcome: ScenarioOutcome
                    ) -> List[MeasurementRecord]:
    """One record per shift segment of a scenario run (untimed)."""
    return [_record(
        spec, segment.error_pct if segment.frames else float("nan"),
        corruption=segment.corruption, rollbacks=segment.rollbacks,
        degraded_batches=segment.degraded_batches,
        fallback_frames=segment.fallback_frames,
        scenario=outcome.scenario, segment=segment.ordinal)
        for segment in outcome.segments]
