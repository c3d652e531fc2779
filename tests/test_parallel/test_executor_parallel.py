"""ParallelExecutor: byte-identity with serial, retries, crashes, resume."""

import math

import pytest

from repro.core import io as study_io
from repro.parallel import ParallelExecutor
from repro.core.executor import ResilientExecutor
from repro.resilience.journal import RunJournal

from tests.test_parallel.runners import (crash_runner, echo_runner,
                                         flaky_runner, make_spec,
                                         sleepy_runner)


def grid(n=6):
    """n deterministic cells with distinct keys and values."""
    specs = [make_spec(f"m/{name}/{batch}", method=name, batch_size=batch)
             for name in ("no_adapt", "bn_norm", "bn_opt")
             for batch in (50, 100)][:n]
    payload = {"values": {s.key: 10.0 + i for i, s in enumerate(specs)}}
    return specs, payload


def run_serial(specs, payload, runner=echo_runner, **kwargs):
    """The serial twin: same runner driven by a ResilientExecutor."""
    cells = [(s, (lambda s=s: runner(payload, s))) for s in specs]
    executor = ResilientExecutor(sleep=lambda _: None, **kwargs)
    return executor.run(cells)


class TestByteIdentity:
    def test_parallel_output_is_byte_equal_to_serial(self, workers):
        specs, payload = grid()
        serial = run_serial(specs, payload)
        executor = ParallelExecutor(workers=workers)
        parallel = executor.run([(s, echo_runner) for s in specs], payload)
        assert study_io.dumps(parallel) == study_io.dumps(serial)
        assert executor.stats.executed == len(specs)
        assert executor.stats.failed == 0

    def test_merge_is_canonical_order_not_arrival_order(self, workers):
        specs, payload = grid()
        result = ParallelExecutor(workers=workers).run(
            [(s, echo_runner) for s in specs], payload)
        merged = [(r.method, r.batch_size) for r in result]
        assert merged == [(s.method, s.batch_size) for s in specs]

    def test_single_worker_pool_behaves_like_serial(self):
        specs, payload = grid(3)
        serial = run_serial(specs, payload)
        parallel = ParallelExecutor(workers=1).run(
            [(s, echo_runner) for s in specs], payload)
        assert study_io.dumps(parallel) == study_io.dumps(serial)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(workers=0)


class TestFailureSemantics:
    def test_failed_cell_isolated_and_sweep_continues(self, workers):
        specs, payload = grid(4)
        payload["fail_always"] = (specs[1].key,)
        executor = ParallelExecutor(workers=workers)
        result = executor.run([(s, flaky_runner) for s in specs], payload)
        statuses = [r.status for r in result]
        assert statuses == ["ok", "failed", "ok", "ok"]
        assert math.isnan(result.records[1].error_pct)
        assert executor.stats.failed == 1

    def test_retry_recovers_transient_fault_across_processes(
            self, tmp_path, workers):
        specs, payload = grid(4)
        payload.update(dir=str(tmp_path), fail_once=(specs[2].key,))
        executor = ParallelExecutor(workers=workers, max_retries=1,
                                    backoff_base=0.01)
        result = executor.run([(s, flaky_runner) for s in specs], payload)
        assert [r.status for r in result] == ["ok"] * 4
        assert result.records[2].attempts == 2
        assert executor.stats.retries == 1

    def test_worker_crash_fails_only_its_cell(self, workers):
        if workers < 2:
            pytest.skip("needs a surviving worker")
        specs, payload = grid(6)
        payload["crash"] = (specs[0].key,)
        executor = ParallelExecutor(workers=workers)
        result = executor.run([(s, crash_runner) for s in specs], payload)
        by_key = {s.key: r for s, r in zip(specs, result.records)}
        assert by_key[specs[0].key].status == "failed"
        others = [r.status for k, r in by_key.items() if k != specs[0].key]
        assert others == ["ok"] * 5

    def test_whole_pool_death_fails_remaining_cells_without_hanging(self):
        specs, payload = grid(3)
        payload["crash"] = tuple(s.key for s in specs)
        executor = ParallelExecutor(workers=1)
        result = executor.run([(s, crash_runner) for s in specs], payload)
        assert [r.status for r in result] == ["failed"] * 3

    def test_hung_cell_times_out_in_worker(self, workers):
        specs, payload = grid(3)
        payload["hang"] = (specs[1].key,)
        executor = ParallelExecutor(workers=workers, cell_timeout=0.5)
        result = executor.run([(s, sleepy_runner) for s in specs], payload)
        assert [r.status for r in result] == ["ok", "timeout", "ok"]


class TestResume:
    def test_parallel_journal_resumes_in_parallel(self, journal_dir,
                                                  workers):
        path = journal_dir / "par-par.jsonl"
        specs, payload = grid()
        with RunJournal(path) as journal:
            first = ParallelExecutor(journal, workers=workers,
                                     fingerprint="fp").run(
                [(s, echo_runner) for s in specs], payload)
        with RunJournal(path, resume=True) as journal:
            executor = ParallelExecutor(journal, workers=workers,
                                        resume=True, fingerprint="fp")
            second = executor.run([(s, echo_runner) for s in specs],
                                  payload)
        assert executor.stats.skipped == len(specs)
        assert executor.stats.executed == 0
        assert study_io.dumps(second) == study_io.dumps(first)

    def test_parallel_journal_resumes_serially_and_vice_versa(
            self, journal_dir, workers):
        specs, payload = grid()
        par_path = journal_dir / "par.jsonl"
        with RunJournal(par_path) as journal:
            parallel = ParallelExecutor(journal, workers=workers,
                                        fingerprint="fp").run(
                [(s, echo_runner) for s in specs], payload)
        # serial executor replays the parallel journal bit-identically
        with RunJournal(par_path, resume=True) as journal:
            executor = ResilientExecutor(journal, resume=True,
                                         fingerprint="fp")
            replayed = executor.run(
                [(s, (lambda: pytest.fail("re-executed"))) for s in specs])
        assert executor.stats.skipped == len(specs)
        assert study_io.dumps(replayed) == study_io.dumps(parallel)

        # and a serial journal resumes under workers
        ser_path = journal_dir / "ser.jsonl"
        with RunJournal(ser_path) as journal:
            serial = ResilientExecutor(journal, fingerprint="fp").run(
                [(s, (lambda s=s: echo_runner(payload, s)))
                 for s in specs])
        with RunJournal(ser_path, resume=True) as journal:
            executor = ParallelExecutor(journal, workers=workers,
                                        resume=True, fingerprint="fp")
            resumed = executor.run([(s, echo_runner) for s in specs],
                                   payload)
        assert executor.stats.skipped == len(specs)
        assert study_io.dumps(resumed) == study_io.dumps(serial)

    def test_crashed_cell_reruns_on_resume_to_serial_twin(
            self, journal_dir, workers):
        specs, payload = grid(4)
        path = journal_dir / "crash-resume.jsonl"
        crashing = dict(payload, crash=(specs[1].key,))
        with RunJournal(path) as journal:
            interrupted = ParallelExecutor(
                journal, workers=workers, fingerprint="fp").run(
                [(s, crash_runner) for s in specs], crashing)
        assert interrupted.records[1].status == "failed"

        # healed resume re-runs only the crashed cell...
        with RunJournal(path, resume=True) as journal:
            executor = ParallelExecutor(journal, workers=workers,
                                        resume=True, fingerprint="fp")
            resumed = executor.run([(s, crash_runner) for s in specs],
                                   payload)
        assert executor.stats.skipped == len(specs) - 1
        assert executor.stats.executed == 1
        # ...and the merged result is byte-equal to the serial twin
        assert study_io.dumps(resumed) == study_io.dumps(
            run_serial(specs, payload))

    def test_fingerprint_mismatch_refused(self, journal_dir, workers):
        specs, payload = grid(2)
        path = journal_dir / "fp.jsonl"
        with RunJournal(path) as journal:
            ParallelExecutor(journal, workers=workers,
                             fingerprint="fp-a").run(
                [(s, echo_runner) for s in specs], payload)
        with RunJournal(path, resume=True) as journal:
            with pytest.raises(ValueError, match="different study"):
                ParallelExecutor(journal, workers=workers, resume=True,
                                 fingerprint="fp-b")
