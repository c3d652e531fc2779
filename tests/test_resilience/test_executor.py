"""ResilientExecutor: isolation, watchdog, retries, resume replay."""

import math
import time

import pytest

from repro.core import io as study_io
from repro.core.records import MeasurementRecord
from repro.core.executor import (CellSpec, CellTimeoutError,
                                       ResilientExecutor)
from repro.resilience.journal import RunJournal, scan_journal


def spec(key):
    return CellSpec(key=key, model="wrn40_2", method="bn_norm",
                    batch_size=50, backend="numpy")


def ok_record(s, value=10.0):
    return MeasurementRecord(
        model=s.model, method=s.method, batch_size=s.batch_size,
        device=s.device, error_pct=value, forward_time_s=0.25,
        energy_j=float("nan"), backend=s.backend)


def make_cells(n=3, failing=None, fail_times=None):
    """n cells; ``failing`` raises forever (or ``fail_times`` times)."""
    calls = {}
    remaining = dict(fail_times or {})

    def make(key):
        s = spec(key)

        def fn():
            calls[key] = calls.get(key, 0) + 1
            if key == failing:
                if remaining.get(key, math.inf) > 0:
                    remaining[key] = remaining.get(key, math.inf) - 1
                    raise ValueError(f"cell {key} exploded")
            return [ok_record(s)]
        return s, fn

    return [make(f"c{i}") for i in range(n)], calls


class TestIsolation:
    def test_failing_cell_does_not_stop_the_sweep(self):
        cells, calls = make_cells(3, failing="c1")
        result = ResilientExecutor().run(cells)
        assert len(result) == 3
        statuses = [r.status for r in result]
        assert statuses == ["ok", "failed", "ok"]
        assert calls == {"c0": 1, "c1": 1, "c2": 1}

    def test_failed_record_carries_grid_point_and_nan_costs(self):
        cells, _ = make_cells(2, failing="c0")
        failed = ResilientExecutor().run(cells).records[0]
        assert (failed.model, failed.method, failed.batch_size) == \
            ("wrn40_2", "bn_norm", 50)
        assert math.isnan(failed.error_pct)
        assert math.isnan(failed.forward_time_s)
        assert failed.status == "failed" and failed.attempts == 1

    def test_traceback_journaled(self, journal_dir):
        path = journal_dir / "isolation.jsonl"
        cells, _ = make_cells(2, failing="c1")
        with RunJournal(path) as journal:
            ResilientExecutor(journal).run(cells)
        failures = scan_journal(path).failed_cells()
        assert set(failures) == {"c1"}
        assert "ValueError: cell c1 exploded" in failures["c1"]["error"]
        assert "Traceback" in failures["c1"]["traceback"]

    def test_keyboard_interrupt_propagates(self):
        s = spec("c0")

        def fn():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ResilientExecutor().run([(s, fn)])


class TestRetry:
    def test_transient_failure_retried_to_success(self):
        sleeps = []
        cells, calls = make_cells(2, failing="c0", fail_times={"c0": 2})
        executor = ResilientExecutor(max_retries=3, sleep=sleeps.append)
        result = executor.run(cells)
        assert [r.status for r in result] == ["ok", "ok"]
        assert calls["c0"] == 3
        assert result.records[0].attempts == 3
        assert result.records[1].attempts == 1
        assert executor.stats.retries == 2 and executor.stats.failed == 0
        assert len(sleeps) == 2

    def test_retries_exhausted_means_failed(self):
        cells, calls = make_cells(1, failing="c0")
        executor = ResilientExecutor(max_retries=2, sleep=lambda _: None)
        result = executor.run(cells)
        assert result.records[0].status == "failed"
        assert result.records[0].attempts == 3
        assert calls["c0"] == 3

    def test_no_backoff_slept_after_the_final_failed_attempt(self):
        # exhaustion must exit immediately: backoff buys time before a
        # retry, and after the last attempt there is nothing to wait for
        sleeps = []
        cells, _ = make_cells(1, failing="c0")
        executor = ResilientExecutor(max_retries=2, sleep=sleeps.append)
        executor.run(cells)
        assert len(sleeps) == 2      # one per *retry*, none trailing
        # same contract when every attempt is spent successfully
        sleeps.clear()
        ok_cells, _ = make_cells(1, failing="c0", fail_times={"c0": 2})
        ResilientExecutor(max_retries=2, sleep=sleeps.append).run(ok_cells)
        assert len(sleeps) == 2

    def test_backoff_is_seeded_deterministic_and_exponential(self):
        def delays(seed):
            executor = ResilientExecutor(seed=seed, backoff_base=0.1)
            return [executor._backoff_delay("cell/a", attempt)
                    for attempt in (1, 2, 3)]

        first, second = delays(7), delays(7)
        assert first == second                     # deterministic
        assert delays(7) != delays(8)              # seed-sensitive
        for attempt, delay in enumerate(first, start=1):
            nominal = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            ResilientExecutor(max_retries=-1)


class TestWatchdog:
    def test_hung_cell_times_out_and_sweep_continues(self):
        s0, s1 = spec("c0"), spec("c1")

        def hangs():
            time.sleep(5.0)
            return [ok_record(s0)]

        result = ResilientExecutor(cell_timeout=0.1).run(
            [(s0, hangs), (s1, lambda: [ok_record(s1)])])
        assert [r.status for r in result] == ["timeout", "ok"]

    def test_fast_cell_passes_under_watchdog(self):
        s = spec("c0")
        result = ResilientExecutor(cell_timeout=30.0).run(
            [(s, lambda: [ok_record(s)])])
        assert [r.status for r in result] == ["ok"]

    def test_exception_inside_watchdog_thread_is_isolated(self):
        cells, _ = make_cells(2, failing="c0")
        result = ResilientExecutor(cell_timeout=30.0).run(cells)
        assert [r.status for r in result] == ["failed", "ok"]

    def test_timeout_error_is_runtime_error(self):
        assert issubclass(CellTimeoutError, RuntimeError)


class TestResume:
    def test_resume_replays_without_executing(self, journal_dir):
        path = journal_dir / "resume.jsonl"
        cells, calls = make_cells(3)
        with RunJournal(path) as journal:
            first = ResilientExecutor(journal, fingerprint="fp").run(cells)
        assert calls == {"c0": 1, "c1": 1, "c2": 1}

        cells2, calls2 = make_cells(3)
        with RunJournal(path, resume=True) as journal:
            executor = ResilientExecutor(journal, resume=True,
                                         fingerprint="fp")
            second = executor.run(cells2)
        assert calls2 == {}                        # nothing re-executed
        assert executor.stats.skipped == 3
        # bit-identical merged result, straight from the journal
        assert study_io.dumps(second) == study_io.dumps(first)

    def test_resume_runs_only_missing_and_failed_cells(self, journal_dir):
        path = journal_dir / "partial.jsonl"
        cells, _ = make_cells(3, failing="c1")
        with RunJournal(path) as journal:
            first = ResilientExecutor(journal, fingerprint="fp").run(cells)
        assert [r.status for r in first] == ["ok", "failed", "ok"]

        cells2, calls2 = make_cells(3)             # c1 healthy now
        with RunJournal(path, resume=True) as journal:
            second = ResilientExecutor(journal, resume=True,
                                       fingerprint="fp").run(cells2)
        assert calls2 == {"c1": 1}                 # only the failed cell
        assert [r.status for r in second] == ["ok", "ok", "ok"]

    def test_fingerprint_mismatch_refused(self, journal_dir):
        path = journal_dir / "mismatch.jsonl"
        cells, _ = make_cells(1)
        with RunJournal(path) as journal:
            ResilientExecutor(journal, fingerprint="fp-a").run(cells)
        with RunJournal(path, resume=True) as journal:
            with pytest.raises(ValueError, match="different study "
                                                 "configuration"):
                ResilientExecutor(journal, resume=True, fingerprint="fp-b")

    def test_resume_without_journal_is_noop(self):
        cells, calls = make_cells(2)
        result = ResilientExecutor(resume=True).run(cells)
        assert len(result) == 2 and len(calls) == 2
