"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    Print the model zoo with the analytical footprints of Section III-B.
``devices``
    Print the device catalog.
``study``
    Run the simulated measurement study; render forward times and the
    weighted-objective selections (optionally for one device), and/or
    write the grid to JSON/CSV.
``figures``
    Regenerate every figure/table as text (Fig. 2 grid, Figs. 3-12
    reports, Table I).
``anchors``
    Print the calibration-anchor residual table (paper vs device model).
``insights``
    Re-derive the Section IV-G architecture-algorithm insights.
``scorecard``
    Audit every machine-checkable paper claim (57 checks) in one run.
``scatter``
    ASCII trade-off scatter (Figs. 5/8/11/12 projection).
``bench``
    Time the execution-engine leaf kernels (conv forward/backward, one
    BN-Opt step) per backend plus native sweep throughput (serial vs
    ``--workers`` processes; skip with ``--no-sweep``) and write
    ``BENCH_engine.json``; ``--compare BASELINE --tolerance PCT`` turns
    the run into a perf-regression gate that exits non-zero when any
    metric slowed past the tolerance (CI runs this on every PR).
``stream``
    Play a corrupted SynthCIFAR stream through an adaptation method for
    real, optionally injecting faults (``--faults "nan:0.2,constant@3"``)
    and guarding with rollback + degradation ladder (``--guard``); print
    the resulting scorecard (see :mod:`repro.robustness`).
    ``--scenario "markov:p=0.1@3"`` replaces the single-corruption
    stream with a scenario-scheduled one (:mod:`repro.scenarios`) and
    additionally prints per-segment metrics and the recurrence
    forgetting metric.
``native``
    Run the native (really-executed) adaptation grid cell by cell with
    crash-safe execution: ``--journal`` appends every cell outcome to a
    JSONL run journal, ``--resume`` skips cells already journaled ok,
    and ``--max-retries`` / ``--cell-timeout`` bound retries and
    per-cell wall time (see :mod:`repro.resilience`).  ``--workers N``
    schedules the same cells across N worker processes with identical
    journal/resume semantics and canonically-ordered, byte-identical
    merged output (see :mod:`repro.parallel`).
``serve``
    Run the multi-tenant adaptation daemon (:mod:`repro.serve`): TCP
    wire protocol, per-tenant :class:`~repro.serve.session.AdaptationSession`
    streams with guarded adaptation and admission control, and
    journal-backed crash recovery — ``--journal`` checkpoints every
    tenant after every batch, ``--resume`` restores every open tenant
    bit-identically after a kill.
``serve-client``
    Drive a corrupted (optionally faulted) SynthCIFAR stream into a
    running daemon as one tenant; print the scorecard.
    ``--expect-rollbacks`` turns the run into a smoke assertion (exit 1
    unless the daemon reported guard rollbacks), ``--start-batch`` skips
    already-processed batches when replaying after a daemon resume, and
    ``--shutdown`` stops the daemon afterwards.
    ``--load "poisson:rate=64"`` paces the sends on a seeded open-loop
    arrival schedule (:mod:`repro.serve.loadgen`) and prints per-request
    latency percentiles; ``--duration S`` cycles the stream until S
    seconds elapsed (soak runs).
``serve-bench``
    Run the seeded multi-tenant serving benchmark in-process
    (:func:`repro.serve.loadgen.run_serving_bench`): N tenants' open-loop
    streams through an event-loop daemon, reduced to p50/p95/p99 latency
    + frames/sec.  ``--json`` writes a BENCH-style document,
    ``--compare BASELINE --tolerance PCT`` gates the serving metrics
    against a baseline's ``serving`` section (CI's serve-bench leg).
``check``
    Run the project-aware invariant linter (:mod:`repro.analysis`) over
    source trees: AST rules ``REP001``-``REP007`` guarding seeded
    determinism, atomic IO, lock-guarded globals and friends, with
    ``--select``/``--ignore`` code filters, ``--format json`` for CI,
    and a committed ``--baseline`` that absorbs legacy findings.  Exit
    codes follow the CLI convention: 0 clean, 1 findings, 2 usage
    error.

Global flags ``--backend {numpy,threaded,sanitize}`` and ``--threads N``
select the execution backend (see :mod:`repro.engine`) for any command
that executes the numpy engine natively; ``sanitize`` wraps the
reference backend in the numeric sanitizer
(:class:`~repro.analysis.sanitize.SanitizerBackend`), which validates
every leaf op's arrays and attributes any NaN/Inf/dtype/shape violation
to the op where it entered.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import StudyConfig
from repro.core.objectives import format_selection_table
from repro.core.records import StudyResult
from repro.core.report import (
    render_error_grid,
    render_forward_times,
    render_mobilenet_table,
    render_overall,
    render_tradeoffs,
)
from repro.core.runner import (run_simulated_study, segment_records,
                               stream_record)
from repro.devices.catalog import DEVICE_NAMES, list_devices
from repro.engine import BACKEND_NAMES, create_backend, set_default_backend


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.models import build_model, model_info, summarize
    from repro.models.registry import MODEL_NAMES

    for name in MODEL_NAMES:
        summary = summarize(build_model(name, "full"), name=name)
        info = model_info(name)
        print(f"{info.paper_label:<10s} {summary.describe()}")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    for device in list_devices():
        print(f"{device.name:<15s} {device.describe()}")
        print(f"{'':15s} {device.description}")
    return 0


def _run_study(device: Optional[str]) -> StudyResult:
    devices = (device,) if device else DEVICE_NAMES
    return run_simulated_study(StudyConfig(devices=devices))


def _cmd_study(args: argparse.Namespace) -> int:
    result = _run_study(args.device)
    if args.json:
        from repro.core.io import save_json
        save_json(result, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        from repro.core.io import save_csv
        save_csv(result, args.csv)
        print(f"wrote {args.csv}")
    if not (args.json or args.csv) or args.verbose:
        for device in ((args.device,) if args.device else DEVICE_NAMES):
            print(render_forward_times(result, device))
            print()
            print(format_selection_table(
                result.filter(device=device),
                title=f"Optimal configurations on {device}:"))
            print()
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    study = run_simulated_study(StudyConfig())
    print(render_error_grid())
    print()
    for device in DEVICE_NAMES:
        print(render_forward_times(study, device))
        print()
        print(render_tradeoffs(study, device))
        print()
    print(render_overall(study))
    print()
    mobilenet = run_simulated_study(StudyConfig(models=("mobilenet_v2",),
                                                devices=("xavier_nx_gpu",)))
    print(render_mobilenet_table(mobilenet))
    return 0


def _cmd_anchors(args: argparse.Namespace) -> int:
    from repro.devices.calibrate import anchor_report, format_anchor_report
    results = anchor_report()
    print(format_anchor_report(results))
    failures = [r for r in results if not r.within_tolerance]
    if failures:
        print(f"\n{len(failures)} anchor(s) OUT OF TOLERANCE", file=sys.stderr)
        return 1
    print(f"\nall {len(results)} anchors within tolerance")
    return 0


def _cmd_insights(args: argparse.Namespace) -> int:
    from repro.core.insights import derive_insights, format_insights
    from repro.models.registry import MODEL_NAMES, build_model
    from repro.models.summary import summarize

    study = run_simulated_study(StudyConfig())
    summaries = {name: summarize(build_model(name, "full"), name=name)
                 for name in MODEL_NAMES}
    insights = derive_insights(study, summaries)
    print(format_insights(insights))
    return 0 if all(i.holds for i in insights) else 1


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.core.scorecard import format_scorecard, run_scorecard
    checks = run_scorecard()
    print(format_scorecard(checks))
    return 0 if all(c.passed for c in checks) else 1


def _cmd_scatter(args: argparse.Namespace) -> int:
    from repro.core.plots import scatter_records
    result = _run_study(args.device)
    records = result.filter(device=args.device).records if args.device \
        else result.records
    print(scatter_records(
        records,
        group_by=lambda r: r.method,
        title=f"Trade-offs ({args.device or 'all devices'}): "
              "forward time vs error"))
    return 0


def _parse_scenario_arg(text):
    """Parse ``--scenario`` upfront; (spec, None) or (None, exit code 2).

    Malformed specs are a *usage* error by the CLI convention: the
    message goes to stderr and the command exits 2 before any work runs.
    """
    from repro.scenarios import parse_scenario_spec
    try:
        return parse_scenario_spec(text), None
    except ValueError as error:
        print(f"error: bad --scenario: {error}", file=sys.stderr)
        return None, 2


def _print_scenario_outcome(outcome) -> None:
    """Render the per-segment table + forgetting under a scorecard line."""
    import math

    print(f"segments ({outcome.scenario}, seed {outcome.seed}):")
    header = (f"  {'#':>3s} {'corruption':<18s} {'sev':>3s} {'visit':>5s} "
              f"{'batches':>7s} {'frames':>6s} {'err %':>7s} "
              f"{'rolls':>5s} {'degr':>5s} {'fall':>5s} {'adapt':>5s}")
    print(header)
    for card in outcome.segments:
        print(f"  {card.ordinal:>3d} {card.corruption:<18s} "
              f"{card.severity:>3d} {card.visit:>5d} "
              f"{card.num_batches:>7d} {card.frames:>6d} "
              f"{card.error_pct:>7.2f} {card.rollbacks:>5d} "
              f"{card.degraded_batches:>5d} {card.fallback_frames:>5d} "
              f"{card.batches_adapted:>5d}")
    forgetting = outcome.forgetting
    if math.isnan(forgetting):
        print("  forgetting: n/a (no phase recurred)")
    else:
        print(f"  forgetting: {forgetting:+.2f} % "
              "(revisit error - first-visit error, mean over "
              "recurring phases)")


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.executor import CellSpec
    from repro.data.stream import CorruptionStream
    from repro.data.synthetic import make_synth_cifar
    from repro.models import build_model
    from repro.scenarios import ScenarioOutcome, ScenarioStream
    from repro.serve.session import AdaptationSession, run_stream
    from repro.train.trainer import pretrain_robust

    scenario_spec = None
    if args.scenario:
        scenario_spec, code = _parse_scenario_arg(args.scenario)
        if code is not None:
            return code
    if args.train:
        model = pretrain_robust(args.model, image_size=16, seed=args.seed)
    else:
        model = build_model(args.model, "tiny")
        print("note: model is untrained (pass --train for meaningful "
              "accuracy); guard/fault mechanics are exercised either way")
    data = make_synth_cifar(args.frames, size=16, seed=args.seed + 12345)
    if scenario_spec is not None:
        stream = ScenarioStream.from_dataset(data, scenario_spec,
                                             seed=args.seed)
        schedule = stream.schedule
    else:
        stream = CorruptionStream.from_dataset(data, args.corruption,
                                               severity=args.severity,
                                               seed=args.seed)
        schedule = None
    session = AdaptationSession(model, args.method, guard=args.guard,
                                fps=args.fps)
    stats = run_stream(session, stream.batches(args.batch_size),
                       faults=args.faults, seed=args.seed, schedule=schedule)
    card = session.scorecard()
    print(card.describe())
    spec = CellSpec(key=f"{args.model}/{args.method}/{args.batch_size}",
                    model=args.model, method=args.method,
                    batch_size=args.batch_size, guarded=bool(args.guard))
    if schedule is None:
        records = [stream_record(spec, card, corruption=args.corruption)]
    else:
        outcome = ScenarioOutcome.from_run(schedule, card, stats)
        _print_scenario_outcome(outcome)
        records = [stream_record(spec, card), *segment_records(spec, outcome)]
    if args.json:
        from repro.core.io import save_json
        save_json(StudyResult(records), args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_native(args: argparse.Namespace) -> int:
    from repro.core.runner import run_native_study

    if args.scenario:
        _, code = _parse_scenario_arg(args.scenario)
        if code is not None:
            return code
    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if args.backend == "sanitize" and args.workers:
        print("error: --backend sanitize requires serial execution "
              "(worker-local sanitizer findings cannot be surfaced); "
              "drop --workers", file=sys.stderr)
        return 2
    config = StudyConfig(
        models=tuple(args.models), methods=tuple(args.methods),
        batch_sizes=tuple(args.batch_sizes),
        corruptions=tuple(args.corruptions), severity=args.severity,
        stream_samples=args.samples, train_epochs=args.train_epochs,
        faults=args.faults or "", guard=args.guard,
        scenario=args.scenario or "",
        backend=args.backend or "numpy", threads=args.threads or 0,
        journal=args.journal or "", resume=args.resume,
        max_retries=args.max_retries, cell_timeout=args.cell_timeout,
        workers=args.workers, seed=args.seed)
    sanitizer = None
    if config.backend == "sanitize":
        # build the backend here so its findings survive the run and
        # can be printed (run_native_study leaves a passed backend open)
        from repro.analysis import SanitizerBackend
        sanitizer = SanitizerBackend()
    try:
        result = run_native_study(config, per_corruption=args.per_corruption,
                                  backend=sanitizer)
    finally:
        # surface findings and release the shared arena even when the
        # study dies mid-run — otherwise the fault that killed it is lost
        if sanitizer is not None:
            print()
            print(sanitizer.describe())
            sanitizer.close()
    print(result.to_table(title="Native study grid (measured):"))
    if args.json:
        from repro.core.io import save_json
        save_json(result, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        from repro.core.io import save_csv
        save_csv(result, args.csv)
        print(f"wrote {args.csv}")
    exit_code = 1 if sanitizer is not None and sanitizer.findings else 0
    broken = [r for r in result if r.status != "ok"]
    if broken:
        where = f"; journal: {args.journal}" if args.journal else ""
        print(f"\n{len(broken)} cell(s) did not complete "
              f"({', '.join(sorted({r.status for r in broken}))}){where}",
              file=sys.stderr)
        return 1
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis.lockwatch import (LockInversionError, finish_watch,
                                          maybe_instrument)

    # REPRO_LOCKWATCH=1 runs the whole daemon under the runtime
    # lock-order watchdog; locks are instrumented at construction so the
    # manager/daemon must be built inside the context
    with maybe_instrument() as watch:
        from repro.serve import ServeDaemon, SessionManager

        if args.resume and not args.journal:
            print("error: --resume requires --journal", file=sys.stderr)
            return 2
        manager = SessionManager(
            journal=args.journal or None, resume=args.resume,
            backend=args.backend or "numpy", max_tenants=args.max_tenants,
            checkpoint_every=args.checkpoint_every,
            compact_above=args.compact_above, workers=args.workers)
        daemon = ServeDaemon(manager, args.host, args.port,
                             io_timeout=args.io_timeout,
                             idle_evict_s=args.idle_evict)
        host, port = daemon.address
        # flushed before blocking: test/CI wrappers parse this line to
        # learn the bound port (especially with --port 0)
        print(f"repro serve listening on {host}:{port}", flush=True)
        drained = False
        try:
            daemon.serve_forever()
            if daemon.drain_requested:
                summary = daemon.drain(args.drain_timeout)
                drained = True
                print(f"drained: {len(summary['checkpointed'])} tenant(s) "
                      f"checkpointed, {summary['compacted_entries']} journal "
                      "entries compacted away", flush=True)
        finally:
            # a drained shutdown leaves tenants open in the journal so a
            # later --resume re-admits them; anything else closes them out
            daemon.close(close_tenants=not drained)
    try:
        finish_watch(watch)
    except LockInversionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_client(args: argparse.Namespace) -> int:
    from repro.data.stream import CorruptionStream
    from repro.data.synthetic import make_synth_cifar
    from repro.robustness.faults import FaultInjector, parse_fault_specs
    from repro.serve import ServeClient, TenantSpec

    scenario_spec = None
    if args.scenario:
        scenario_spec, code = _parse_scenario_arg(args.scenario)
        if code is not None:
            return code
    arrival = None
    if args.load:
        from repro.serve.loadgen import parse_arrival_spec
        try:
            arrival = parse_arrival_spec(args.load)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.duration > 0 and arrival is None:
        print("error: --duration requires --load", file=sys.stderr)
        return 2
    spec = TenantSpec(
        tenant=args.tenant, model=args.model, method=args.method,
        batch_size=args.batch_size, guard=args.guard,
        queue_capacity=args.queue_capacity, train=args.train,
        seed=args.seed)
    data = make_synth_cifar(args.frames, size=spec.image_size,
                            seed=args.seed + 12345)
    if scenario_spec is not None:
        # scenario-shaped *traffic*: corruption switching happens at the
        # edge, client-side; the daemon adapts on whatever arrives.
        # Budgeted adapt-freezing is a session-side feature the wire
        # protocol does not carry — frames always adapt server-side.
        from repro.scenarios import ScenarioStream
        scenario_stream = ScenarioStream.from_dataset(
            data, scenario_spec, seed=args.seed)
        batch_iter = scenario_stream.batches(args.batch_size)
    else:
        stream = CorruptionStream.from_dataset(data, args.corruption,
                                               severity=args.severity,
                                               seed=args.seed)
        batch_iter = stream.batches(args.batch_size)
    if args.duration > 0:
        # soak mode: cycle the (bounded) synthesized stream until the
        # wall-clock budget runs out; copies keep each cycle pristine
        # when the fault injector mutates a batch downstream
        base_batches = [(images.copy(), labels.copy())
                        for images, labels in batch_iter]

        def _cycle(batches):
            while True:
                for images, labels in batches:
                    yield images.copy(), labels.copy()

        batch_iter = _cycle(base_batches)
    injector = None
    if args.faults:
        injector = FaultInjector(parse_fault_specs(args.faults),
                                 seed=args.seed)
        batch_iter = injector.inject(batch_iter)
    proxy = None
    host, port = args.host, args.port
    if args.chaos:
        from repro.serve import ChaosProxy, parse_network_fault_specs
        proxy = ChaosProxy(args.host, args.port,
                           parse_network_fault_specs(args.chaos),
                           seed=args.seed).start()
        host, port = proxy.address
        if args.retries == 0:
            print("warning: --chaos without --retries will likely fail "
                  "on the first injected fault", file=sys.stderr)
    try:
        with ServeClient.connect(host, port,
                                 timeout=args.connect_timeout,
                                 call_timeout=args.call_timeout,
                                 retries=args.retries,
                                 seed=args.seed) as client:
            welcome = client.hello(spec)
            print(f"tenant {args.tenant}: resumed={welcome['resumed']} "
                  f"batches_done={welcome['batches_done']}")
            # the injector must see every batch so a replay reproduces the
            # same fault schedule; --start-batch only skips the *sending*
            # (faults in skipped batches were reported by the previous run
            # and live in the resumed checkpoint)
            import time as time_module
            gaps = (arrival.gaps(args.batch_size, args.seed)
                    if arrival is not None else None)
            latencies_ms: List[float] = []
            frames_accepted = 0
            scheduled = 0.0
            paced_sends = 0
            reported = 0
            epoch = time_module.monotonic()
            for index, (images, labels) in enumerate(batch_iter):
                injected = injector.faults_injected if injector else 0
                delta, reported = injected - reported, injected
                if index < args.start_batch:
                    continue
                if gaps is None:
                    client.send_frames(images, labels, faults=delta)
                    continue
                if args.duration > 0 \
                        and time_module.monotonic() - epoch >= args.duration:
                    break
                if paced_sends > 0:
                    scheduled += next(gaps)
                delay = epoch + scheduled - time_module.monotonic()
                if delay > 0:
                    time_module.sleep(delay)
                started = time_module.monotonic()
                ack = client.send_frames(images, labels, faults=delta)
                latencies_ms.append(
                    (time_module.monotonic() - started) * 1e3)
                frames_accepted += int(ack["accepted"])
                paced_sends += 1
            if gaps is not None:
                from repro.serve.loadgen import latency_percentiles
                wall = max(time_module.monotonic() - epoch, 1e-9)
                pct = latency_percentiles(latencies_ms)
                print(f"load: {len(latencies_ms)} request(s) in "
                      f"{wall:.1f}s ({arrival.compact()}): "
                      f"p50 {pct['p50']:.1f}ms p95 {pct['p95']:.1f}ms "
                      f"p99 {pct['p99']:.1f}ms, "
                      f"{frames_accepted / wall:.1f} frames/s")
            if args.no_close:
                card = client.scorecard()
            else:
                card = client.close_tenant(restore=args.restore)
            print(card.describe())
            if args.shutdown:
                client.shutdown()
    finally:
        if proxy is not None:
            proxy.stop()
            injected = ", ".join(f"{e.fault}@{e.batch_index}"
                                 for e in proxy.events) or "none"
            print(f"chaos: {len(proxy.events)} network fault(s) injected "
                  f"({injected})")
    if args.expect_rollbacks and card.rollbacks < 1:
        print("error: expected guard rollbacks, saw none", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import (BaselineError, UsageError, apply_baseline,
                                check_paths, format_github, format_json,
                                format_rule_catalog, format_text,
                                load_baseline, write_baseline)

    if args.list_rules:
        print(format_rule_catalog())
        return 0
    try:
        findings = check_paths(args.paths or ["src"],
                               select=args.select, ignore=args.ignore)
        if args.update_baseline:
            if not args.baseline:
                print("error: --update-baseline requires --baseline PATH",
                      file=sys.stderr)
                return 2
            try:
                write_baseline(args.baseline, findings)
            except OSError as error:
                print(f"error: cannot write baseline {args.baseline}: "
                      f"{error}", file=sys.stderr)
                return 2
            print(f"wrote {args.baseline} ({len(findings)} finding(s) "
                  "absorbed)")
            return 0
        if args.baseline:
            findings = apply_baseline(findings,
                                      load_baseline(args.baseline))
    except (UsageError, BaselineError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    reporter = {"json": format_json,
                "github": format_github}.get(args.format, format_text)
    print(reporter(findings))
    return 1 if findings else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.engine.bench import (DEFAULT_BENCH_PATH, compare_engine_bench,
                                    format_bench_comparison,
                                    format_engine_bench, write_engine_bench)
    backends = tuple(args.backends) if args.backends else BACKEND_NAMES
    doc = write_engine_bench(
        args.json or DEFAULT_BENCH_PATH, backends=backends,
        threads=args.threads or 0, batch=args.batch, repeats=args.repeats,
        sweep=not args.no_sweep, sweep_workers=args.workers,
        serving=args.serving, serving_tenants=args.serving_tenants,
        serving_frames=args.serving_frames)
    print(format_engine_bench(doc))
    print(f"wrote {args.json or DEFAULT_BENCH_PATH}")
    if args.compare:
        baseline = json_module.loads(Path(args.compare).read_text())
        comparison = compare_engine_bench(doc, baseline,
                                          tolerance_pct=args.tolerance)
        print(format_bench_comparison(comparison))
        if comparison["regressions"]:
            print(f"perf regression vs {args.compare}", file=sys.stderr)
            return 1
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.engine.bench import (BENCH_FORMAT_VERSION,
                                    compare_engine_bench,
                                    format_bench_comparison,
                                    format_serving_section)
    from repro.serve.loadgen import run_serving_bench

    try:
        section = run_serving_bench(
            tenants=args.tenants, frames_per_tenant=args.frames,
            batch_size=args.batch_size, arrival=args.arrival,
            seed=args.seed, workers=args.workers, method=args.method,
            guard=args.guard)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_serving_section(section))
    if section["errors"]:
        for message in section["report"]["error_messages"]:
            print(f"error: {message}", file=sys.stderr)
        return 1
    # a serve-bench document is BENCH-shaped (format/version/serving) so
    # `bench --compare` and this gate read the same baselines
    doc = {"format": "repro.engine_bench", "version": BENCH_FORMAT_VERSION,
           "serving": section}
    if args.json:
        from repro.resilience.atomic import atomic_write_text
        atomic_write_text(args.json,
                          json_module.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.compare:
        baseline = json_module.loads(Path(args.compare).read_text())
        comparison = compare_engine_bench(doc, baseline,
                                          tolerance_pct=args.tolerance)
        print(format_bench_comparison(comparison))
        if comparison["regressions"]:
            print(f"perf regression vs {args.compare}", file=sys.stderr)
            return 1
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Benchmarking Test-Time Unsupervised "
                    "DNN Adaptation on Edge Devices' (ISPASS 2022)")
    parser.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                        help="execution backend for native engine work")
    parser.add_argument("--threads", type=_non_negative_int, default=None,
                        metavar="N",
                        help="worker threads for the threaded backend "
                             "(0 = one per CPU core)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="model zoo footprints").set_defaults(
        func=_cmd_models)
    sub.add_parser("devices", help="device catalog").set_defaults(
        func=_cmd_devices)

    study = sub.add_parser("study", help="run the simulated study grid")
    study.add_argument("--device", choices=DEVICE_NAMES, default=None,
                       help="restrict to one device")
    study.add_argument("--json", metavar="PATH", help="write grid as JSON")
    study.add_argument("--csv", metavar="PATH", help="write grid as CSV")
    study.add_argument("--verbose", action="store_true",
                       help="print reports even when writing files")
    study.set_defaults(func=_cmd_study)

    sub.add_parser("figures", help="regenerate all figures/tables as text"
                   ).set_defaults(func=_cmd_figures)
    sub.add_parser("anchors", help="calibration residuals vs the paper"
                   ).set_defaults(func=_cmd_anchors)
    sub.add_parser("insights", help="re-derive the Section IV-G insights"
                   ).set_defaults(func=_cmd_insights)
    sub.add_parser("scorecard", help="audit every machine-checkable claim"
                   ).set_defaults(func=_cmd_scorecard)

    scatter = sub.add_parser("scatter", help="ASCII trade-off scatter")
    scatter.add_argument("--device", choices=DEVICE_NAMES, default=None)
    scatter.set_defaults(func=_cmd_scatter)

    stream = sub.add_parser(
        "stream", help="native corrupted stream with faults and guard")
    from repro.adapt import EXTENSION_METHOD_NAMES, METHOD_NAMES
    from repro.data.corruptions import CORRUPTION_NAMES
    from repro.models.registry import MODEL_NAMES
    stream.add_argument("--model", choices=MODEL_NAMES, default="wrn40_2")
    stream.add_argument("--method",
                        choices=METHOD_NAMES + EXTENSION_METHOD_NAMES,
                        default="bn_opt")
    stream.add_argument("--corruption",
                        choices=tuple(CORRUPTION_NAMES) + ("clean",),
                        default="gaussian_noise")
    stream.add_argument("--severity", type=int, choices=range(1, 6),
                        default=5)
    stream.add_argument("--frames", type=_positive_int, default=128,
                        help="total frames in the stream")
    stream.add_argument("--batch-size", type=_positive_int, default=16)
    stream.add_argument("--faults", metavar="SPEC", default=None,
                        help='fault injection, e.g. "nan:0.2,constant@3" '
                             "(fault[:rate|@idx[+idx...]], comma-separated)")
    stream.add_argument("--scenario", metavar="SPEC", default=None,
                        help="scenario-scheduled stream, e.g. "
                             '"markov:p=0.1@3" or "cyclic:dwell=4" '
                             "(kind[:k=v[+k=v...]][@severity]; overrides "
                             "--corruption/--severity; prints per-segment "
                             "metrics + forgetting)")
    stream.add_argument("--guard", action="store_true",
                        help="wrap the method in GuardedAdaptation "
                             "(BN rollback + degradation ladder)")
    stream.add_argument("--fps", type=float, default=None,
                        help="arrival rate for deadline accounting")
    stream.add_argument("--train", action="store_true",
                        help="robustly pre-train the tiny model first "
                             "(cached; slower on the first run)")
    stream.add_argument("--seed", type=_non_negative_int, default=0)
    stream.add_argument("--json", metavar="PATH", default=None,
                        help="write the run as a study-result JSON record")
    stream.set_defaults(func=_cmd_stream)

    native = sub.add_parser(
        "native",
        help="crash-safe native adaptation grid (journal/resume/retries)")
    from repro.core.config import (PAPER_BATCH_SIZES, STUDY_METHODS,
                                   STUDY_MODELS)
    native.add_argument("--models", nargs="*", choices=MODEL_NAMES,
                        default=["wrn40_2"],
                        help=f"grid models (paper grid: {STUDY_MODELS})")
    native.add_argument("--methods", nargs="*",
                        choices=METHOD_NAMES + EXTENSION_METHOD_NAMES,
                        default=list(STUDY_METHODS))
    native.add_argument("--batch-sizes", nargs="*", type=_positive_int,
                        default=[50],
                        help=f"paper grid: {PAPER_BATCH_SIZES}")
    native.add_argument("--corruptions", nargs="*",
                        choices=tuple(CORRUPTION_NAMES) + ("clean",),
                        default=["gaussian_noise", "fog"],
                        help="corruption streams per cell "
                             "(default: a fast two-stream subset)")
    native.add_argument("--severity", type=int, choices=range(1, 6),
                        default=5)
    native.add_argument("--samples", type=_positive_int, default=200,
                        help="stream samples per corruption")
    native.add_argument("--train-epochs", type=_positive_int, default=10,
                        help="pre-training epochs (models are cached)")
    native.add_argument("--per-corruption", action="store_true",
                        help="emit one extra record per corruption type")
    native.add_argument("--faults", metavar="SPEC", default=None,
                        help="fault-injection spec (see 'stream')")
    native.add_argument("--scenario", metavar="SPEC", default=None,
                        help="run each cell over one scenario stream "
                             "instead of the corruption grid (see "
                             "'stream'; with --per-corruption, records "
                             "are emitted per shift segment)")
    native.add_argument("--guard", action="store_true",
                        help="wrap methods in GuardedAdaptation")
    native.add_argument("--journal", metavar="PATH", default=None,
                        help="append every cell outcome to this JSONL "
                             "run journal (crash-safe, fsync'd)")
    native.add_argument("--resume", action="store_true",
                        help="skip cells the journal already records as "
                             "ok (requires --journal)")
    native.add_argument("--workers", type=_non_negative_int, default=0,
                        metavar="N",
                        help="worker processes for the grid (0 = serial; "
                             "see repro.parallel)")
    native.add_argument("--max-retries", type=_non_negative_int, default=0,
                        help="extra attempts per failing cell")
    native.add_argument("--cell-timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="soft per-cell watchdog deadline (0 = none)")
    native.add_argument("--seed", type=_non_negative_int, default=0)
    native.add_argument("--json", metavar="PATH", default=None,
                        help="write the grid as study-result JSON")
    native.add_argument("--csv", metavar="PATH", default=None,
                        help="write the grid as CSV")
    native.set_defaults(func=_cmd_native)

    serve = sub.add_parser(
        "serve",
        help="multi-tenant adaptation daemon (journal/resume)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_non_negative_int, default=0,
                       help="TCP port (0 = OS-assigned; the bound port "
                            "is printed on startup)")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="checkpoint every tenant batch to this JSONL "
                            "run journal (crash-safe, fsync'd)")
    serve.add_argument("--resume", action="store_true",
                       help="restore open tenants from the journal "
                            "(requires --journal)")
    serve.add_argument("--max-tenants", type=_positive_int, default=8,
                       help="admission limit on concurrent tenants")
    serve.add_argument("--checkpoint-every", type=_positive_int, default=1,
                       metavar="N",
                       help="journal a tenant checkpoint every N batches")
    serve.add_argument("--io-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-connection read/write deadline; a "
                            "stalled (slow-loris) client is evicted "
                            "after this long (0 disables)")
    serve.add_argument("--idle-evict", type=float, default=0.0,
                       metavar="SECONDS",
                       help="checkpoint-and-evict tenants idle longer "
                            "than this (0 disables)")
    serve.add_argument("--compact-above", type=_non_negative_int, default=0,
                       metavar="BYTES",
                       help="compact the journal online whenever it "
                            "grows past this size (0 disables)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="budget for finishing in-flight batches and "
                            "checkpointing every tenant on a drained "
                            "shutdown")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       metavar="N",
                       help="cross-tenant batch-scheduler worker threads "
                            "(batches from different tenants adapt "
                            "concurrently; per-tenant order is preserved)")
    serve.set_defaults(func=_cmd_serve)

    serve_client = sub.add_parser(
        "serve-client",
        help="stream one tenant's frames into a running daemon")
    serve_client.add_argument("--host", default="127.0.0.1")
    serve_client.add_argument("--port", type=_positive_int, required=True)
    serve_client.add_argument("--tenant", required=True,
                              help="tenant name (one stream per tenant)")
    serve_client.add_argument("--model", choices=MODEL_NAMES,
                              default="wrn40_2")
    serve_client.add_argument("--method",
                              choices=METHOD_NAMES + EXTENSION_METHOD_NAMES,
                              default="bn_opt")
    serve_client.add_argument("--batch-size", type=_positive_int, default=16)
    serve_client.add_argument("--no-guard", dest="guard",
                              action="store_false",
                              help="run the tenant unguarded (guarded "
                                   "adaptation is the default)")
    serve_client.add_argument("--queue-capacity", type=_non_negative_int,
                              default=2,
                              help="batches of backlog before drops")
    serve_client.add_argument("--train", action="store_true",
                              help="tenant model is robustly pre-trained "
                                   "(cached) instead of seed-initialized")
    serve_client.add_argument("--frames", type=_positive_int, default=128,
                              help="total frames to stream")
    serve_client.add_argument("--corruption",
                              choices=tuple(CORRUPTION_NAMES) + ("clean",),
                              default="gaussian_noise")
    serve_client.add_argument("--severity", type=int, choices=range(1, 6),
                              default=5)
    serve_client.add_argument("--faults", metavar="SPEC", default=None,
                              help="client-side fault injection "
                                   "(see 'stream')")
    serve_client.add_argument("--scenario", metavar="SPEC", default=None,
                              help="stream scenario-shaped traffic (see "
                                   "'stream'); corruption switching "
                                   "happens client-side, the daemon "
                                   "adapts on what arrives")
    serve_client.add_argument("--start-batch", type=_non_negative_int,
                              default=0, metavar="N",
                              help="skip sending the first N batches "
                                   "(replay after a daemon resume)")
    serve_client.add_argument("--no-close", action="store_true",
                              help="leave the tenant open (print a live "
                                   "scorecard instead of closing)")
    serve_client.add_argument("--restore", action="store_true",
                              help="restore the tenant model to its "
                                   "source state on close")
    serve_client.add_argument("--expect-rollbacks", action="store_true",
                              help="exit 1 unless the daemon reported "
                                   "guard rollbacks (CI smoke assertion)")
    serve_client.add_argument("--shutdown", action="store_true",
                              help="stop the daemon after this stream")
    serve_client.add_argument("--connect-timeout", type=float, default=30.0,
                              metavar="SECONDS",
                              help="retry window for the initial connect")
    serve_client.add_argument("--call-timeout", type=float, default=30.0,
                              metavar="SECONDS",
                              help="per-call reply deadline (typed "
                                   "timeout error instead of a hang)")
    serve_client.add_argument("--retries", type=_non_negative_int,
                              default=0,
                              help="bounded seeded-backoff retries for "
                                   "transient failures (timeouts, "
                                   "severed connections); re-sends are "
                                   "deduplicated daemon-side")
    serve_client.add_argument("--chaos", metavar="SPEC", default=None,
                              help="route the stream through an "
                                   "in-process seeded chaos proxy, e.g. "
                                   "'disconnect:0.1,truncate@5' (faults: "
                                   "disconnect, delay, truncate, split, "
                                   "garbage); pair with --retries")
    serve_client.add_argument("--load", metavar="SPEC", default=None,
                              help="pace sends open-loop on an arrival "
                                   "spec, e.g. 'poisson:rate=64' or "
                                   "'burst:rate=128+size=4' (kinds: "
                                   "uniform, poisson, burst; rate is "
                                   "frames/s), and print p50/p95/p99 "
                                   "latency + throughput at the end")
    serve_client.add_argument("--duration", type=float, default=0.0,
                              metavar="SECONDS",
                              help="with --load: keep streaming (cycling "
                                   "the frame set) for this long instead "
                                   "of stopping after --frames")
    serve_client.add_argument("--seed", type=_non_negative_int, default=0)
    serve_client.set_defaults(func=_cmd_serve_client)

    check = sub.add_parser(
        "check", help="project-aware invariant linter (REP001-REP012)")
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="files or directory trees to check "
                            "(default: src)")
    check.add_argument("--select", metavar="CODES", default=None,
                       help="run only these comma-separated rule codes "
                            "(e.g. REP001,REP003)")
    check.add_argument("--ignore", metavar="CODES", default=None,
                       help="skip these comma-separated rule codes")
    check.add_argument("--format", choices=("text", "json", "github"),
                       default="text",
                       help="report format (github = Actions workflow-"
                            "command annotations)")
    check.add_argument("--baseline", metavar="PATH", default=None,
                       help="baseline JSON absorbing legacy findings "
                            "(the repo commits .repro-check-baseline.json)")
    check.add_argument("--update-baseline", action="store_true",
                       help="rewrite --baseline to absorb every current "
                            "finding, then exit 0")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalog and exit")
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench",
                           help="time engine leaf kernels per backend")
    bench.add_argument("--backends", nargs="*", choices=BACKEND_NAMES,
                       default=None,
                       help="backends to measure (default: all)")
    bench.add_argument("--batch", type=_positive_int, default=64,
                       help="batch size for the conv workload")
    bench.add_argument("--repeats", type=_positive_int, default=5,
                       help="timing repetitions (best is reported)")
    bench.add_argument("--json", metavar="PATH", default=None,
                       help="output path (default BENCH_engine.json)")
    bench.add_argument("--workers", type=_non_negative_int, default=0,
                       metavar="N",
                       help="worker processes for the sweep-throughput "
                            "section (0 = one per CPU core)")
    bench.add_argument("--no-sweep", action="store_true",
                       help="skip the native sweep-throughput section "
                            "(kernel timings only)")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="compare against a baseline BENCH_engine.json "
                            "and exit non-zero on perf regression")
    bench.add_argument("--tolerance", type=float, default=25.0,
                       metavar="PCT",
                       help="allowed slowdown before --compare fails "
                            "(percent, default 25)")
    bench.add_argument("--serving", action="store_true",
                       help="also measure serve-path latency/throughput "
                            "(in-process daemon + seeded multi-tenant "
                            "load) into a 'serving' section")
    bench.add_argument("--serving-tenants", type=_positive_int, default=2,
                       metavar="N",
                       help="tenants for the --serving measurement")
    bench.add_argument("--serving-frames", type=_positive_int, default=96,
                       metavar="N",
                       help="frames per tenant for --serving")
    bench.set_defaults(func=_cmd_bench)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="serve-path latency/throughput bench (in-process daemon + "
             "seeded open-loop multi-tenant load)")
    serve_bench.add_argument("--tenants", type=_positive_int, default=2,
                             help="concurrent tenant streams")
    serve_bench.add_argument("--frames", type=_positive_int, default=96,
                             help="frames per tenant")
    serve_bench.add_argument("--batch-size", type=_positive_int,
                             default=16)
    serve_bench.add_argument("--arrival", metavar="SPEC",
                             default="poisson:rate=256",
                             help="arrival spec (see serve-client --load)")
    serve_bench.add_argument("--workers", type=_positive_int, default=2,
                             help="batch-scheduler worker threads")
    serve_bench.add_argument("--method",
                             choices=METHOD_NAMES + EXTENSION_METHOD_NAMES,
                             default="bn_opt")
    serve_bench.add_argument("--no-guard", dest="guard",
                             action="store_false",
                             help="run tenants unguarded")
    serve_bench.add_argument("--seed", type=_non_negative_int, default=0)
    serve_bench.add_argument("--json", metavar="PATH", default=None,
                             help="write a BENCH-shaped document with the "
                                  "'serving' section to this path")
    serve_bench.add_argument("--compare", metavar="BASELINE", default=None,
                             help="gate serving latency/throughput "
                                  "against a baseline BENCH_engine.json")
    serve_bench.add_argument("--tolerance", type=float, default=25.0,
                             metavar="PCT",
                             help="allowed regression before --compare "
                                  "fails (percent, default 25)")
    serve_bench.set_defaults(func=_cmd_serve_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.backend is not None:
        set_default_backend(create_backend(args.backend,
                                           threads=args.threads or 0))
    try:
        return args.func(args)
    finally:
        if args.backend is not None:
            set_default_backend(None)


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
