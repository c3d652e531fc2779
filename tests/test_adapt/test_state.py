"""BNState: capture/apply copies, layout checks, bit equality, digest."""

import numpy as np
import pytest

from repro import nn
from repro.adapt import BNNorm, BNOpt, BNState
from repro.adapt.base import bn_layers
from repro.adapt.state import frozen_digest
from repro.models.wide_resnet import wide_resnet40_2
from repro.nn import init as nn_init


def make_model(seed=7, base=4):
    nn_init.seed(seed)
    model = wide_resnet40_2(depth=10, widen_factor=1, base=base)
    model.eval()
    return model


def scramble(model):
    """Move every field BNState covers away from its current value."""
    for layer in bn_layers(model):
        layer.running_mean += 1.0
        layer.running_var *= 2.0
        layer.weight.data += 0.5
        layer.bias.data -= 0.5
        layer.batches_tracked += 3
        layer.momentum = 0.7
    model.train()
    model.requires_grad_(False)


class TestCaptureApply:
    def test_apply_restores_every_field(self):
        model = make_model()
        state = BNState.capture(model)
        scramble(model)
        assert BNState.capture(model) != state
        state.apply(model)
        assert BNState.capture(model) == state
        layer = bn_layers(model)[0]
        assert layer.momentum == 0.1 and layer.batches_tracked == 0
        assert not model.training
        assert all(param.requires_grad for param in model.parameters())

    def test_capture_is_a_copy_and_apply_repeats(self):
        model = make_model()
        state = BNState.capture(model)
        for _ in range(2):
            scramble(model)
            state.apply(model)
            assert BNState.capture(model) == state
        # the applied arrays are the model's own, not the snapshot's
        bn_layers(model)[0].running_mean += 1.0
        assert BNState.capture(model) != state

    def test_layout_mismatch_raises_before_any_change(self):
        state = BNState.capture(make_model(base=4))
        other = make_model(base=8)
        scramble(other)
        before = BNState.capture(other)
        with pytest.raises(ValueError, match="channels"):
            state.apply(other)
        assert BNState.capture(other) == before

    def test_flag_count_mismatch_raises(self):
        state = BNState.capture(nn.Sequential(nn.BatchNorm2d(2)))
        longer = nn.Sequential(nn.BatchNorm2d(2), nn.ReLU())
        with pytest.raises(ValueError, match="modules"):
            state.apply(longer)

    def test_tree_round_trip(self):
        model = make_model()
        scramble(model)
        state = BNState.capture(model)
        assert BNState.from_tree(state.to_tree()) == state


class TestEquality:
    def test_equality_is_bitwise(self):
        model = nn.Sequential(nn.BatchNorm2d(1))
        layer = bn_layers(model)[0]
        layer.set_buffer("running_mean", np.array([np.nan], np.float32))
        nan = BNState.capture(model)
        assert nan == BNState.capture(model)      # NaN equals its own bits
        layer.set_buffer("running_mean", np.array([0.0], np.float32))
        zero = BNState.capture(model)
        layer.set_buffer("running_mean", np.array([-0.0], np.float32))
        assert BNState.capture(model) != zero     # -0.0 is other bits

    def test_momentum_and_flags_count(self):
        model = make_model()
        state = BNState.capture(model)
        bn_layers(model)[-1].momentum = 1.0
        assert BNState.capture(model) != state
        state.apply(model)
        model.fc.weight.requires_grad = False
        assert BNState.capture(model) != state


class TestMethodReset:
    def test_reset_restores_momentum_left_by_another_rung(self):
        """BN-Opt does not set momentum; reset must put it back."""
        model = make_model()
        method = BNOpt().prepare(model)
        BNNorm().bind(model)                      # momentum -> 1.0
        method.reset()
        assert {layer.momentum for layer in bn_layers(model)} == {0.1}
        assert model.training                     # re-configured

    def test_reset_restores_prepare_time_state(self):
        model = make_model()
        method = BNNorm().prepare(model)
        before = BNState.capture(model)
        method.forward(np.random.default_rng(0).standard_normal(
            (4, 3, 16, 16)).astype(np.float32))
        assert BNState.capture(model) != before
        method.reset()
        assert BNState.capture(model) == before


class TestFrozenDigest:
    def test_stable_and_short(self):
        digest = frozen_digest(make_model())
        assert digest == frozen_digest(make_model())
        assert len(digest) == 16 and int(digest, 16) >= 0

    def test_ignores_bn_state(self):
        model = make_model()
        digest = frozen_digest(model)
        scramble(model)
        assert frozen_digest(model) == digest

    def test_sees_frozen_weights(self):
        assert frozen_digest(make_model(seed=7)) != \
            frozen_digest(make_model(seed=8))
        model = make_model()
        digest = frozen_digest(model)
        model.fc.weight.data[0, 0] = np.nextafter(
            model.fc.weight.data[0, 0], np.float32(np.inf))
        assert frozen_digest(model) != digest
