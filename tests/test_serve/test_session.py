"""AdaptationSession: driver equivalence, teardown, checkpoint/resume.

The refactor contract: the session must reproduce the drivers' old
inline loops bit-for-bit, restore the source state on mid-stream
exceptions (new, the context-manager guarantee), and checkpoint/resume
a stream bit-identically — including a guarded BN-Opt ladder that has
degraded mid-stream.
"""

import json
import time
from contextlib import nullcontext

import numpy as np
import pytest

from repro.adapt import BNState, build_method
from repro.adapt.base import bn_layers
from repro.adapt.state import frozen_digest
from repro.robustness.guard import GuardedAdaptation
from repro.serve.session import AdaptationSession

from tests.test_serve.conftest import (
    assert_states_identical,
    make_batches,
    make_model,
    poison,
    strip_timing,
)


class TestDriverEquivalence:
    """The session's loop == the pre-refactor inline loop, bit for bit."""

    def test_matches_manual_loop(self, batches):
        # manual loop, exactly as the pre-session drivers wrote it
        model_a = make_model()
        method_a = GuardedAdaptation(build_method("bn_opt", lr=5e-3))
        method_a.prepare(model_a)
        correct = total = 0
        for images, labels in poison(batches, {2}):
            start = time.perf_counter()
            logits = method_a.forward(images)
            time.perf_counter() - start
            predictions = np.nan_to_num(logits).argmax(axis=-1)
            correct += int((predictions == labels).sum())
            total += len(labels)

        model_b = make_model()
        session = AdaptationSession(
            model_b, GuardedAdaptation(build_method("bn_opt", lr=5e-3)))
        with session:
            for images, labels in poison(batches, {2}):
                session.process_batch(images, labels)

        assert session.frames_correct == correct
        assert session.frames_processed == total
        assert session.rollbacks == method_a.rollbacks
        assert session.degraded_batches == method_a.degraded_batches
        assert session.fallback_frames == method_a.fallback_frames
        assert_states_identical(model_a.state_dict(), model_b.state_dict())

    def test_unguarded_counters_zero(self, batches):
        session = AdaptationSession(make_model(), "bn_norm")
        with session:
            for images, labels in batches[:3]:
                session.process_batch(images, labels)
        card = session.scorecard()
        assert card.rollbacks == card.degraded_batches == 0
        assert card.frames_processed == 24


class TestTeardown:
    def test_on_error_policy_keeps_adapted_state_on_clean_exit(self, batches):
        model = make_model()
        source = model.state_dict()
        with AdaptationSession(model, "bn_norm") as session:
            session.process_batch(*batches[0])
        # bn_norm folded the batch into the running stats: state moved
        changed = any(not np.array_equal(source[k], model.state_dict()[k])
                      for k in source)
        assert changed

    @pytest.mark.parametrize("method", ["bn_norm", "bn_opt"])
    @pytest.mark.parametrize("guard", [False, True])
    def test_exception_restores_source_state(self, batches, method, guard):
        model = make_model()
        source = model.state_dict()
        with pytest.raises(RuntimeError, match="stream died"):
            with AdaptationSession(model, method, guard=guard) as session:
                session.process_batch(*batches[0])
                raise RuntimeError("stream died")
        assert_states_identical(source, model.state_dict())

    def test_always_policy_restores_on_clean_exit(self, batches):
        model = make_model()
        source = model.state_dict()
        with AdaptationSession(model, "bn_norm",
                               restore="always") as session:
            session.process_batch(*batches[0])
        assert_states_identical(source, model.state_dict())

    @pytest.mark.parametrize("crash", [False, True])
    def test_restore_leaves_model_as_found(self, batches, crash):
        """Momentum, counters and flags come back too, not only arrays:
        a guarded bn_opt stream that degraded to bn_norm (momentum 1.0)
        and re-escalated must not hand that momentum to the next
        stream, whether it finished ("always") or died ("on_error")."""
        model = make_model()
        found = BNState.capture(model)
        session = AdaptationSession(
            model, "bn_opt", guard=True,
            restore="on_error" if crash else "always")
        with pytest.raises(RuntimeError) if crash else nullcontext():
            with session:
                for images, labels in poison(batches, {1}):
                    session.process_batch(images, labels)
                assert session.runner.level_name == "bn_opt"
                assert {layer.momentum
                        for layer in bn_layers(model)} == {1.0}
                if crash:
                    raise RuntimeError("stream died")
        assert BNState.capture(model) == found

    def test_process_outside_lifecycle_raises(self, batches):
        session = AdaptationSession(make_model(), "no_adapt")
        with pytest.raises(RuntimeError):
            session.process_batch(*batches[0])
        with session:
            pass
        with pytest.raises(RuntimeError):
            session.process_batch(*batches[0])

    def test_double_start_raises(self):
        session = AdaptationSession(make_model(), "no_adapt")
        session.start()
        with pytest.raises(RuntimeError):
            session.start()

    def test_bad_restore_policy_rejected(self):
        with pytest.raises(ValueError):
            AdaptationSession(make_model(), "no_adapt", restore="never")


class TestScorecard:
    def test_fields_and_tenant_stamp(self, batches):
        session = AdaptationSession(make_model(), "bn_norm", fps=1e9,
                                    tenant="cam0")
        with session:
            for images, labels in batches[:4]:
                session.process_batch(images, labels)
            session.drop_frames(5)
        card = session.scorecard()
        assert card.tenant == "cam0"
        assert card.frames_processed == 32
        assert card.frames_dropped == 5
        assert card.frames_total == 37
        assert card.batches_total == 4
        assert card.batches_late == 4          # fps ~ 0: everything late
        assert 0.0 <= card.effective_error_pct <= 100.0

    def test_empty_stream_scores_zero(self):
        with AdaptationSession(make_model(), "no_adapt") as session:
            pass
        card = session.scorecard()
        assert card.effective_error_pct == 0.0
        assert card.mean_frame_latency_s == 0.0


class TestCheckpointResume:
    """Kill at batch K, resume on a fresh model: bit-identical stream."""

    def _run(self, session, stream):
        for images, labels in stream:
            session.process_batch(images, labels)

    @pytest.mark.parametrize("method,guard", [
        ("bn_norm", False),
        ("bn_opt", True),       # Adam moments + guard ladder state
    ])
    def test_resume_is_bit_identical(self, method, guard):
        # faults at 2 (pre-checkpoint, degrades the ladder) and 7
        # (post-resume, the restored ladder must handle it identically)
        stream = poison(make_batches(10), {2, 7} if guard else set())

        twin = AdaptationSession(make_model(), method, guard=guard,
                                 tenant="t")
        with twin:
            self._run(twin, stream)

        first = AdaptationSession(make_model(), method, guard=guard,
                                  tenant="t").start()
        self._run(first, stream[:5])
        payload = first.checkpoint()
        # the checkpoint must survive its journal/wire JSON round trip
        payload = json.loads(json.dumps(payload))

        resumed = AdaptationSession(make_model(), method,
                                    guard=guard, tenant="t")
        resumed.load_checkpoint(payload)
        assert resumed.batches_total == 5
        self._run(resumed, stream[5:])

        assert strip_timing(resumed.scorecard()) != strip_timing(
            AdaptationSession(make_model(), method, guard=guard,
                              tenant="x").start().scorecard())
        assert strip_timing(resumed.scorecard()) == \
            strip_timing(twin.scorecard())
        assert_states_identical(twin.model.state_dict(),
                                resumed.model.state_dict())

    def test_guard_ladder_position_survives(self):
        stream = poison(make_batches(8), {1})
        first = AdaptationSession(make_model(), "bn_opt", guard=True).start()
        self._run(first, stream[:3])
        guard = first.runner
        assert guard.rollbacks >= 1          # the fault degraded the ladder
        payload = first.checkpoint()

        resumed = AdaptationSession(make_model(), "bn_opt", guard=True)
        resumed.load_checkpoint(payload)
        restored = resumed.runner
        assert restored.rollbacks == guard.rollbacks
        assert restored._level == guard._level
        assert restored._healthy_streak == guard._healthy_streak
        assert restored.batches_seen == guard.batches_seen

    def test_resume_after_source_restore_matches_source(self):
        """The checkpointed *source* state is the original model's."""
        original = make_model()
        source = original.state_dict()
        session = AdaptationSession(original, "bn_norm").start()
        self._run(session, make_batches(3))
        payload = session.checkpoint()

        resumed = AdaptationSession(make_model(), "bn_norm")
        resumed.load_checkpoint(payload)
        resumed.close(restore_model=True)
        assert_states_identical(source, resumed.model.state_dict())

    def test_checkpoint_before_start_raises(self):
        with pytest.raises(RuntimeError):
            AdaptationSession(make_model(), "no_adapt").checkpoint()

    def test_load_on_started_session_raises(self):
        session = AdaptationSession(make_model(), "no_adapt").start()
        with pytest.raises(RuntimeError):
            session.load_checkpoint({"version": 1})

    def test_version_mismatch_refused(self):
        session = AdaptationSession(make_model(), "no_adapt")
        with pytest.raises(ValueError, match="version"):
            session.load_checkpoint({"version": 999})

    def test_other_weights_refused_untouched(self, batches):
        first = AdaptationSession(make_model(), "bn_norm").start()
        self._run(first, batches[:2])
        payload = first.checkpoint()

        other = make_model(seed=99)
        state, bn = other.state_dict(), BNState.capture(other)
        with pytest.raises(ValueError) as refused:
            AdaptationSession(other, "bn_norm").load_checkpoint(payload)
        # the message names both digests
        assert payload["weights"] in str(refused.value)
        assert frozen_digest(other) in str(refused.value)
        assert_states_identical(state, other.state_dict())
        assert BNState.capture(other) == bn


class TestResumeAtEveryBoundary:
    """bn_opt + guard, poisoned at batch 1: a cut after any batch K
    resumes onto the same weights and finishes like the uninterrupted
    twin — including the momentum the guard's bn_norm rung left on the
    BN layers, which the re-escalated bn_opt rung keeps using."""

    BATCHES = 12

    @pytest.fixture(scope="class")
    def stream(self):
        return poison(make_batches(self.BATCHES), {1})

    @pytest.fixture(scope="class")
    def twin(self, stream):
        session = AdaptationSession(make_model(), "bn_opt", guard=True)
        with session:
            for images, labels in stream:
                session.process_batch(images, labels)
        return session

    @pytest.mark.parametrize("cut", range(1, BATCHES))
    def test_resume_matches_twin(self, stream, twin, cut):
        first = AdaptationSession(make_model(), "bn_opt", guard=True).start()
        for images, labels in stream[:cut]:
            first.process_batch(images, labels)
        payload = json.loads(json.dumps(first.checkpoint()))

        resumed = AdaptationSession(make_model(), "bn_opt", guard=True)
        resumed.load_checkpoint(payload)
        for images, labels in stream[cut:]:
            resumed.process_batch(images, labels)

        assert strip_timing(resumed.scorecard()) == \
            strip_timing(twin.scorecard())
        assert_states_identical(twin.model.state_dict(),
                                resumed.model.state_dict())
        assert BNState.capture(resumed.model) == BNState.capture(twin.model)
