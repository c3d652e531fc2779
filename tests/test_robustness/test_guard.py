"""GuardedAdaptation: rollback, degradation ladder, cooldown, restore."""

import numpy as np
import pytest

from repro import nn
from repro.adapt import BNNorm, BNOpt, NoAdapt, bn_layers, build_method
from repro.adapt.base import AdaptationMethod
from repro.engine import BACKEND_NAMES, create_backend, use_backend
from repro.models import build_model
from repro.robustness.guard import (
    LADDER,
    GuardConfig,
    GuardedAdaptation,
)


@pytest.fixture
def model():
    return build_model("wrn40_2", "tiny")


@pytest.fixture
def clean_batch(rng):
    return rng.standard_normal((16, 3, 16, 16)).astype(np.float32)


@pytest.fixture
def nan_batch(clean_batch):
    bad = clean_batch.copy()
    bad[:, :, 0, 0] = np.nan
    return bad


def bn_state(model):
    """Full BN state as a flat list of arrays (copies)."""
    state = []
    for layer in bn_layers(model):
        state.extend([layer.running_mean.copy(), layer.running_var.copy(),
                      layer.weight.data.copy(), layer.bias.data.copy()])
    return state


class Collapsing(AdaptationMethod):
    """Stub rung that adapts stats and emits entropy-collapsed logits."""

    name = "collapsing"
    adapts_bn_stats = True

    def _configure(self, model):
        model.eval()

    def forward(self, x):
        self._require_model()
        logits = np.zeros((len(x), 10), dtype=np.float32)
        logits[:, 0] = 1e4   # one-hot confidence: zero entropy
        return logits


class TestGuardConfig:
    def test_defaults_valid(self):
        GuardConfig()

    @pytest.mark.parametrize("kwargs", [
        {"entropy_floor": -0.1},
        {"entropy_floor": 1.0},
        {"drift_limit": 0.0},
        {"drift_limit": -1.0},
        {"cooldown": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


class TestProtocol:
    def test_name_and_flags_passthrough(self):
        guard = GuardedAdaptation(BNOpt(lr=1e-3))
        assert guard.name == "guarded(bn_opt)"
        assert guard.does_backward and guard.adapts_bn_stats
        assert not GuardedAdaptation(NoAdapt()).does_backward

    def test_forward_before_prepare_raises(self, clean_batch):
        with pytest.raises(RuntimeError):
            GuardedAdaptation(BNNorm()).forward(clean_batch)

    def test_reset_before_prepare_raises(self):
        with pytest.raises(RuntimeError):
            GuardedAdaptation(BNNorm()).reset()

    @pytest.mark.parametrize("method,expected", [
        ("bn_opt", ["bn_opt", "bn_norm", "no_adapt"]),
        ("bn_norm", ["bn_norm", "no_adapt"]),
        ("no_adapt", ["no_adapt"]),
    ])
    def test_ladder_construction(self, model, method, expected):
        guard = GuardedAdaptation(build_method(method)).prepare(model)
        assert [m.name for m in guard._ladder] == expected

    def test_extension_methods_slot_by_flags(self, model):
        """Non-LADDER methods fall in by their cost flags: a backward
        method gets the full ladder below it."""
        method = build_method("bn_opt_selective")
        guard = GuardedAdaptation(method).prepare(model)
        assert [m.name for m in guard._ladder[1:]] == ["bn_norm", "no_adapt"]


class TestCleanStream:
    def test_no_guard_activity(self, model, clean_batch):
        guard = GuardedAdaptation(BNNorm()).prepare(model)
        for _ in range(4):
            logits = guard.forward(clean_batch)
            assert np.isfinite(logits).all()
        assert guard.rollbacks == 0
        assert guard.degraded_batches == 0
        assert guard.fallback_frames == 0
        assert guard.events == []
        assert guard.level_name == "bn_norm"

    def test_matches_unguarded_method(self, model, clean_batch):
        guard = GuardedAdaptation(BNNorm()).prepare(model)
        guarded_logits = guard.forward(clean_batch)
        guard.method.reset()   # back to the pristine pre-stream state
        bare = BNNorm().prepare(model)
        np.testing.assert_array_equal(guarded_logits,
                                      bare.forward(clean_batch))


class TestRollback:
    def test_nan_batch_rolls_back_and_degrades(self, model, clean_batch,
                                               nan_batch):
        guard = GuardedAdaptation(BNOpt(lr=1e-3)).prepare(model)
        guard.forward(clean_batch)
        logits = guard.forward(nan_batch)
        assert np.isfinite(logits).all()
        assert guard.rollbacks >= 1
        assert guard.level_name != "bn_opt"
        actions = [e.action for e in guard.events]
        assert "rollback" in actions and "degrade" in actions
        reasons = {e.reason for e in guard.events if e.action == "rollback"}
        assert reasons <= {"nonfinite_logits", "nonfinite_bn_state"}

    def test_rollback_restores_bn_state_exactly(self, model, clean_batch,
                                                nan_batch):
        guard = GuardedAdaptation(BNNorm()).prepare(model)
        guard.forward(clean_batch)
        before = bn_state(model)
        guard.forward(nan_batch)
        assert guard.rollbacks >= 1
        # the poisoned update was rolled back and no_adapt left stats alone
        for a, b in zip(before, bn_state(model)):
            np.testing.assert_array_equal(a, b)
        # and the state is genuinely healthy: next clean batch adapts again
        assert np.isfinite(guard.forward(clean_batch)).all()

    def test_bottom_rung_fallback_returns_uniform_logits(self, model,
                                                         clean_batch):
        """When even no_adapt yields garbage (a broken classifier head,
        which BN rollback cannot repair), the guard answers with uniform
        logits rather than propagating NaN downstream."""
        guard = GuardedAdaptation(BNOpt(lr=1e-3)).prepare(model)
        head = [m for m in model.modules() if isinstance(m, nn.Linear)][-1]
        head.bias.data[:] = np.nan
        logits = guard.forward(clean_batch)
        np.testing.assert_array_equal(logits, np.zeros_like(logits))
        assert guard.rollbacks == len(LADDER)
        assert guard.fallback_frames == len(clean_batch)
        assert guard.events[-1].action == "fallback"
        assert guard.events[-1].reason == "nonfinite_logits"

    def test_entropy_collapse_detected(self, model, clean_batch):
        guard = GuardedAdaptation(Collapsing()).prepare(model)
        logits = guard.forward(clean_batch)
        assert np.isfinite(logits).all()
        assert guard.level_name == "no_adapt"
        assert guard.events[0].action == "rollback"
        assert guard.events[0].reason == "entropy_collapse"


class TestCooldownLadder:
    def test_reescalates_after_cooldown(self, model, clean_batch, nan_batch):
        guard = GuardedAdaptation(BNOpt(lr=1e-3),
                                  GuardConfig(cooldown=2)).prepare(model)
        guard.forward(nan_batch)
        assert guard.level_name == "no_adapt"
        # two rungs to climb, cooldown=2 healthy batches per rung
        for expected in ("no_adapt", "bn_norm", "bn_norm", "bn_opt"):
            assert guard.level_name == expected
            guard.forward(clean_batch)
        assert guard.level_name == "bn_opt"
        escalations = [e for e in guard.events if e.action == "escalate"]
        assert [e.level for e in escalations] == ["bn_norm", "bn_opt"]

    def test_degraded_batches_counted_while_below_top(self, model,
                                                      clean_batch, nan_batch):
        guard = GuardedAdaptation(BNOpt(lr=1e-3),
                                  GuardConfig(cooldown=2)).prepare(model)
        guard.forward(nan_batch)
        for _ in range(4):
            guard.forward(clean_batch)
        assert guard.degraded_batches == 4

    def test_cooldown_counts_healthy_batches_at_degraded_rung(
            self, model, clean_batch, nan_batch):
        guard = GuardedAdaptation(BNNorm(),
                                  GuardConfig(cooldown=3)).prepare(model)
        # the faulted batch's successful no_adapt retry opens the streak
        guard.forward(nan_batch)
        assert guard.level_name == "no_adapt"
        guard.forward(clean_batch)              # streak 2 < cooldown
        assert guard.level_name == "no_adapt"
        guard.forward(clean_batch)              # streak 3 -> escalate
        assert guard.level_name == "bn_norm"


class TestReset:
    def test_reset_rearms_counters_and_restores_model(self, model,
                                                      clean_batch, nan_batch):
        pristine = {k: v.copy() for k, v in model.state_dict().items()}
        guard = GuardedAdaptation(BNOpt(lr=1e-3)).prepare(model)
        guard.forward(clean_batch)
        guard.forward(nan_batch)
        assert guard.rollbacks > 0
        guard.reset()
        assert guard.rollbacks == 0
        assert guard.degraded_batches == 0
        assert guard.fallback_frames == 0
        assert guard.events == [] and guard.batches_seen == 0
        assert guard.level_name == "bn_opt"
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, pristine[key])


class TestBackends:
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_rollback_bit_identical_on_backend(self, backend_name,
                                               clean_batch, nan_batch):
        """The acceptance bar: after a rollback the BN state equals the
        pre-batch snapshot *bit for bit*, whichever execution backend ran
        the poisoned forward pass."""
        backend = create_backend(backend_name)
        try:
            with use_backend(backend):
                model = build_model("wrn40_2", "tiny")
                guard = GuardedAdaptation(BNOpt(lr=1e-3)).prepare(model)
                guard.forward(clean_batch)   # genuinely adapted stats
                before = bn_state(model)
                guard.forward(nan_batch)
                assert guard.rollbacks >= 1
                after = bn_state(model)
                for a, b in zip(before, after):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
        finally:
            backend.close()
