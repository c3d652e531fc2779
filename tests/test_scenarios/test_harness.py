"""Scenario streams end to end through run_stream: freezing, forgetting,
bit-identity.

Three acceptance proofs live here:

- the **forgetting pin**: a deterministic cyclic run's per-segment
  errors and recurrence forgetting are pinned to exact values;
- **budgeted freezing**: frozen batches really skip adaptation — the
  method's counter and the BN state both say so;
- **cross-backend bit-identity**: a markov stream with NaN faults,
  guarded, produces byte-equal scorecards and segment cards on the
  numpy engine and under the numeric sanitizer, which observes the
  NaN without moving a result.
"""

import dataclasses
import json
import math

import pytest

from repro.adapt import build_method
from repro.engine import create_backend, use_backend
from repro.scenarios import ScenarioOutcome, ScenarioStream
from repro.serve.session import AdaptationSession, run_stream

from tests.test_scenarios.conftest import make_tiny_model

CYCLIC = "cyclic:dwell=2+over=gaussian_noise|fog@3"


def strip_timing(card):
    return dataclasses.replace(card, mean_frame_latency_s=0.0,
                               wall_time_s=0.0)


def play(model, method, stream, *, num_batches=None, guard=True,
         faults=None, seed=0):
    """One scenario stream through run_stream, segmented afterwards."""
    session = AdaptationSession(model, method, guard=guard)
    stats = run_stream(session, stream.batches(16, num_batches),
                       faults=faults, seed=seed, schedule=stream.schedule)
    return ScenarioOutcome.from_run(stream.schedule, session.scorecard(),
                                    stats)


def run(dataset, text, *, model=None, method="bn_norm", seed=0, **kw):
    stream = ScenarioStream.from_dataset(dataset, text, seed=seed)
    return play(model if model is not None else make_tiny_model(),
                build_method(method), stream, **kw)


class TestForgettingPin:
    @pytest.fixture(scope="class")
    def outcome(self, tiny_dataset):
        return run(tiny_dataset, CYCLIC, num_batches=16, guard=False)

    def test_forgetting_pin(self, outcome):
        assert outcome.forgetting == pytest.approx(6.25)

    def test_segment_structure(self, outcome):
        assert [(c.corruption, c.visit) for c in outcome.segments] == \
            [("gaussian_noise", 0), ("fog", 0), ("gaussian_noise", 1),
             ("fog", 1), ("gaussian_noise", 2), ("fog", 2),
             ("gaussian_noise", 3), ("fog", 3)]

    def test_segment_error_pins(self, outcome):
        assert [c.error_pct for c in outcome.segments] == pytest.approx(
            [90.625, 78.125, 100.0, 90.625, 87.5, 84.375, 96.875, 84.375])

    def test_segments_sum_to_the_scorecard(self, outcome):
        card = outcome.scorecard
        assert sum(c.frames for c in outcome.segments) \
            == card.frames_processed == 256
        correct = sum(c.correct for c in outcome.segments)
        assert card.effective_error_pct == \
            pytest.approx(100.0 * (1 - correct / card.frames_processed))

    def test_rerun_is_bit_identical(self, tiny_dataset, outcome):
        again = run(tiny_dataset, CYCLIC, num_batches=16, guard=False)
        assert again.segments == outcome.segments
        assert strip_timing(again.scorecard) == strip_timing(outcome.scorecard)

    def test_scenario_label_stamped(self, outcome):
        assert outcome.scenario == CYCLIC
        assert outcome.scorecard.scenario == CYCLIC
        assert f"<{CYCLIC}>" in outcome.scorecard.describe()


class TestBudgetedFreezing:
    TEXT = "budgeted:budget=1+period=4+over=gaussian_noise@3"

    def test_frozen_batches_skip_adaptation(self, tiny_dataset):
        method = build_method("bn_norm")
        stream = ScenarioStream.from_dataset(tiny_dataset, self.TEXT)
        play(make_tiny_model(), method, stream, num_batches=8, guard=False)
        assert method.batches_adapted == 2     # batches 0 and 4 only

    def test_frozen_batches_leave_bn_state_untouched(self, tiny_dataset):
        outcome = run(tiny_dataset, self.TEXT, num_batches=8, guard=False)
        assert sum(c.batches_adapted for c in outcome.segments) == 2

    def test_budgeted_gating_in_run_guarded_stream(self, tiny_dataset):
        """A plain stream run honors the same schedule."""
        method = build_method("bn_norm")
        stream = ScenarioStream.from_dataset(tiny_dataset, self.TEXT)
        session = AdaptationSession(make_tiny_model(), method)
        run_stream(session, stream.batches(16, 8), schedule=stream.schedule)
        card = session.scorecard()
        assert method.batches_adapted == 2
        # gaussian_noise is the kind's default palette, so the canonical
        # label omits it
        assert card.scenario == "budgeted:budget=1+period=4@3"


class TestCrossBackendBitIdentity:
    MARKOV = "markov:p=0.4+over=fog|gaussian_noise|contrast"

    def outcome_on(self, backend_name, dataset):
        backend = create_backend(backend_name)
        try:
            with use_backend(backend):
                return run(dataset, self.MARKOV, method="bn_opt",
                           num_batches=12, guard=True, faults="nan@3",
                           seed=1)
        finally:
            backend.close()

    def test_guarded_markov_nan_stream_bit_identical(self, tiny_dataset):
        numpy_run = self.outcome_on("numpy", tiny_dataset)
        sanitized_run = self.outcome_on("sanitize", tiny_dataset)
        assert numpy_run.scorecard.rollbacks >= 1     # the fault bit
        assert numpy_run.segments == sanitized_run.segments
        assert strip_timing(numpy_run.scorecard) == \
            strip_timing(sanitized_run.scorecard)

    def test_fault_seed_rerolls_without_moving_the_schedule(self,
                                                           tiny_dataset):
        def faulted(fault_seed):
            stream = ScenarioStream.from_dataset(tiny_dataset, self.MARKOV,
                                                 seed=1)
            return play(make_tiny_model(), build_method("bn_norm"), stream,
                        num_batches=12, faults="nan:0.3", seed=fault_seed)
        a, b = faulted(1), faulted(2)
        # same shift sequence ...
        assert [(c.corruption, c.start, c.end) for c in a.segments] == \
            [(c.corruption, c.start, c.end) for c in b.segments]
        # ... different fault draw
        assert a.scorecard.faults_injected != b.scorecard.faults_injected


class TestOutcomeSerialization:
    def test_to_dict_is_json_ready(self, tiny_dataset):
        outcome = run(tiny_dataset, CYCLIC, num_batches=4, guard=False)
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert payload["scenario"] == CYCLIC
        assert len(payload["segments"]) == 2
        assert payload["segments"][0]["corruption"] == "gaussian_noise"
        assert payload["forgetting"] is None      # no recurrence in 4 batches
        assert math.isnan(outcome.forgetting)

    def test_forgetting_serialized_when_present(self, tiny_dataset):
        outcome = run(tiny_dataset, CYCLIC, num_batches=16, guard=False)
        assert outcome.to_dict()["forgetting"] == pytest.approx(6.25)

    def test_bad_num_batches_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="num_batches"):
            run(tiny_dataset, CYCLIC, num_batches=0)
