"""Acceptance: a guarded NaN stream survives; the unguarded one poisons.

This is the robustness layer's headline demonstration on *real*
execution (the tiny trained model, real BN-Opt updates), plus the
persistence contract: guard counters survive the io round-trip.
"""

import itertools
import json

import numpy as np
import pytest

from repro.adapt import build_method
from repro.core import io as study_io
from repro.core.config import StudyConfig
from repro.core.records import MeasurementRecord, StudyResult
from repro.core.runner import run_native_study
from repro.data.stream import CorruptionStream
from repro.robustness import GuardedAdaptation
from repro.serve.session import AdaptationSession, run_stream

from tests.test_scenarios.conftest import make_tiny_model

BATCHES = 12
BATCH_SIZE = 32
FAULTS = "nan@2"        # one poisoned batch, early in the stream


def stream_batches(data):
    stream = CorruptionStream.from_dataset(data, "gaussian_noise",
                                           severity=3, seed=0)
    return itertools.islice(stream.batches(BATCH_SIZE), BATCHES)


def play(model, method, batches, *, guard=True, fps=None, **stream_kw):
    """One guarded (by default) stream through run_stream; its scorecard."""
    session = AdaptationSession(model, method, guard=guard, fps=fps)
    run_stream(session, batches, **stream_kw)
    return session.scorecard()


@pytest.fixture(scope="module")
def cards(micro_trained_model):
    """Scorecards of the same NaN-faulted stream, unguarded vs guarded."""
    model, data = micro_trained_model
    results = {}
    for guarded in (False, True):
        method = build_method("bn_opt", lr=5e-3)
        try:
            results[guarded] = play(
                model, method, stream_batches(data),
                guard=guarded, faults=FAULTS, seed=0)
        finally:
            method.reset()   # leave the shared model pristine
    return results


class TestAcceptance:
    def test_guarded_run_finishes_finite_with_rollbacks(self, cards):
        card = cards[True]
        assert card.frames_total == BATCHES * BATCH_SIZE
        assert card.frames_processed == card.frames_total
        assert np.isfinite(card.effective_error_pct)
        assert card.faults_injected == 1
        assert card.rollbacks >= 1

    def test_unguarded_run_degrades(self, cards):
        """Silent poisoning: every batch after the fault is scored by a
        NaN-ridden model, so the stream error collapses toward chance."""
        unguarded = cards[False]
        assert unguarded.rollbacks == 0
        assert unguarded.faults_injected == 1
        assert unguarded.effective_error_pct > 60.0

    def test_guard_beats_unguarded_by_a_wide_margin(self, cards):
        assert cards[True].effective_error_pct \
            < cards[False].effective_error_pct - 20.0

    def test_guard_counters_reported_in_describe(self, cards):
        assert "guard:" in cards[True].describe()


class TestRunGuardedStream:
    def test_clean_run_has_zero_counters(self, micro_trained_model):
        model, data = micro_trained_model
        method = build_method("bn_norm")
        try:
            card = play(model, method, stream_batches(data))
        finally:
            method.reset()
        assert card.faults_injected == 0
        assert card.rollbacks == 0
        assert card.fallback_frames == 0
        assert 0.0 <= card.effective_error_pct <= 100.0

    def test_method_by_name_and_late_batches(self, micro_trained_model):
        """An absurd fps makes every measured batch miss its deadline."""
        model, data = micro_trained_model
        card = play(model, "no_adapt", stream_batches(data),
                    guard=False, fps=1e9)
        assert card.batches_late == card.batches_total == BATCHES

    def test_prebuilt_guard_is_used_as_is(self, micro_trained_model):
        model, data = micro_trained_model
        guard = GuardedAdaptation(build_method("bn_norm"))
        try:
            card = play(model, guard, stream_batches(data),
                        faults=FAULTS, seed=0)
            assert card.rollbacks == guard.rollbacks >= 1
        finally:
            guard.method.reset()


class TestRunnerIntegration:
    def test_native_study_carries_guard_counters(self, micro_trained_model):
        model, _ = micro_trained_model
        config = StudyConfig(models=("wrn40_2",), methods=("bn_norm",),
                             batch_sizes=(32,), stream_samples=256,
                             corruptions=("gaussian_noise",),
                             faults="nan@1", guard=True)
        result = run_native_study(config, models={"wrn40_2": model})
        record = result.records[0]
        assert record.guarded
        assert record.faults_injected == 1
        assert record.rollbacks >= 1
        assert np.isfinite(record.error_pct)


    def test_guarded_faulted_grid_serial_equals_workers(self):
        """Each stream starts from the BN state the study found — momentum
        and flags included — so a serial grid, whose cells share one
        model, scores exactly like cells spread over worker processes."""
        config = dict(models=("wrn40_2",), methods=("bn_norm", "bn_opt"),
                      batch_sizes=(16,), image_size=16, stream_samples=128,
                      corruptions=("gaussian_noise", "fog"),
                      faults="nan@2", guard=True)
        dumps = [study_io.canonical_dumps(run_native_study(
            StudyConfig(workers=workers, **config),
            models={"wrn40_2": make_tiny_model()}, per_corruption=True),
            strip_timing=True) for workers in (1, 2)]
        assert dumps[0] == dumps[1]
        assert json.loads(dumps[0])["records"][0]["rollbacks"] >= 1


def assert_records_equal(left, right):
    """Field-wise record equality that treats NaN == NaN (OOM costs)."""
    left, right = vars(left), vars(right)
    assert left.keys() == right.keys()
    for name, a in left.items():
        b = right[name]
        if isinstance(a, float) and np.isnan(a):
            assert isinstance(b, float) and np.isnan(b), name
        else:
            assert a == b, name


class TestGuardCounterRoundTrip:
    def result(self):
        return StudyResult([MeasurementRecord(
            model="wrn40_2", method="bn_opt", batch_size=32, device="host",
            error_pct=12.5, forward_time_s=0.01, energy_j=float("nan"),
            faults_injected=3, rollbacks=5, degraded_batches=4,
            fallback_frames=32, guarded=True)])

    COUNTERS = ("faults_injected", "rollbacks", "degraded_batches",
                "fallback_frames", "guarded")

    def test_json_round_trip(self):
        original = self.result().records[0]
        back = study_io.loads(study_io.dumps(self.result())).records[0]
        for name in self.COUNTERS:
            assert getattr(back, name) == getattr(original, name)

    def test_csv_round_trip(self):
        original = self.result().records[0]
        back = study_io.from_csv(study_io.to_csv(self.result())).records[0]
        assert_records_equal(back, original)

    def test_pre_robustness_documents_still_load(self):
        """Version-1 files written before the guard fields existed must
        load with clean defaults."""
        payload = json.loads(study_io.dumps(self.result()))
        for row in payload["records"]:
            for name in self.COUNTERS:
                row.pop(name)
        back = study_io.loads(json.dumps(payload)).records[0]
        assert back.faults_injected == 0
        assert back.rollbacks == 0
        assert back.guarded is False

    def test_file_round_trip(self, tmp_path):
        study_io.save_json(self.result(), tmp_path / "r.json")
        study_io.save_csv(self.result(), tmp_path / "r.csv")
        original = self.result().records[0]
        assert_records_equal(
            study_io.load_json(tmp_path / "r.json").records[0], original)
        assert_records_equal(
            study_io.load_csv(tmp_path / "r.csv").records[0], original)
