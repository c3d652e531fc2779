"""The checkpoint codec must round-trip numpy state bit-exactly.

The properties at the end cover the checkpoint's trust boundary: any
BN layout and any float32 bit pattern survive capture, the codec, JSON
and apply; and a payload cut on another BN layout or other frozen
weights is refused before the model is touched.
"""

import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import nn
from repro.adapt import BNState
from repro.adapt.base import bn_layers
from repro.nn import init as nn_init
from repro.serve.checkpoint import (
    decode_array,
    decode_state,
    encode_array,
    encode_state,
)
from repro.serve.session import AdaptationSession

from tests.test_serve.conftest import assert_states_identical


class TestArrayRoundTrip:
    @pytest.mark.parametrize("array", [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.array([np.nan, np.inf, -np.inf, 0.1], dtype=np.float64),
        np.array([], dtype=np.float32),
        np.arange(5, dtype=np.int64),
        np.array(3.5, dtype=np.float32),            # 0-d
    ])
    def test_bit_exact(self, array):
        decoded = decode_array(encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)

    def test_survives_json(self):
        array = np.random.default_rng(0).standard_normal((4, 4)) * 1e-7
        payload = json.loads(json.dumps(encode_array(array)))
        assert decode_array(payload).tobytes() == \
            np.ascontiguousarray(array).tobytes()

    def test_noncontiguous_input(self):
        array = np.arange(16, dtype=np.float32).reshape(4, 4).T
        np.testing.assert_array_equal(decode_array(encode_array(array)),
                                      array)


class TestStateTree:
    def test_nested_round_trip(self):
        state = {"t": 3, "m": [np.ones(2), None], "name": "adam",
                 "nested": {"v": np.zeros((2, 2)), "flag": True}}
        decoded = decode_state(json.loads(json.dumps(encode_state(state))))
        assert decoded["t"] == 3 and decoded["name"] == "adam"
        assert decoded["m"][1] is None
        np.testing.assert_array_equal(decoded["m"][0], np.ones(2))
        np.testing.assert_array_equal(decoded["nested"]["v"],
                                      np.zeros((2, 2)))
        assert decoded["nested"]["flag"] is True

    def test_numpy_scalar(self):
        decoded = decode_state(encode_state(np.float32(1.25)))
        assert decoded == np.float32(1.25)

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError):
            encode_state(object())


#: float32 bit patterns worth forcing: quiet/negative/signalling NaN,
#: +Inf, -Inf, -0.0
SPECIAL_BITS = (0x7FC00000, 0xFFC00000, 0x7F800001, 0x7F800000,
                0xFF800000, 0x80000000)

float32_bits = st.one_of(st.sampled_from(SPECIAL_BITS),
                         st.integers(0, 2 ** 32 - 1))
channel_lists = st.lists(st.integers(1, 6), min_size=1, max_size=5)


def layout_model(channels):
    """A frozen Linear (seeded weights) followed by one BN per entry."""
    nn_init.seed(0)
    return nn.Sequential(nn.Linear(3, 2),
                         *[nn.BatchNorm2d(c) for c in channels])


def fill(model, draw):
    """Random BN bytes, counters, momentum and flags drawn into ``model``."""
    for layer in bn_layers(model):
        arrays = [np.array(draw(st.lists(float32_bits,
                                         min_size=layer.num_features,
                                         max_size=layer.num_features)),
                           dtype=np.uint32).view(np.float32)
                  for _ in range(4)]
        layer.set_buffer("running_mean", arrays[0])
        layer.set_buffer("running_var", arrays[1])
        layer.weight.data = arrays[2]
        layer.bias.data = arrays[3]
        layer.batches_tracked = draw(st.integers(0, 2 ** 40))
        layer.momentum = draw(st.floats(allow_nan=False,
                                        allow_infinity=False))
    for module in model.modules():
        object.__setattr__(module, "training", draw(st.booleans()))
    for param in model.parameters():
        param.requires_grad = draw(st.booleans())
    return model


class TestBNStateRoundTrip:
    @seed(1301)
    @settings(max_examples=50, deadline=None)
    @given(channels=channel_lists, data=st.data())
    def test_capture_codec_json_apply_is_bit_exact(self, channels, data):
        state = BNState.capture(fill(layout_model(channels), data.draw))
        text = json.dumps(encode_state(state.to_tree()))
        target = layout_model(channels)
        BNState.from_tree(decode_state(json.loads(text))).apply(target)
        again = BNState.capture(target)

        assert again == state
        for before, after in zip(state.layers, again.layers):
            for name in ("running_mean", "running_var", "weight", "bias"):
                assert getattr(after, name).tobytes() == \
                    getattr(before, name).tobytes(), name
            assert after.batches_tracked == before.batches_tracked
            assert np.float64(after.momentum).tobytes() == \
                np.float64(before.momentum).tobytes()
        assert again.training == state.training
        assert again.requires_grad == state.requires_grad

    @pytest.mark.parametrize("mutate", [
        lambda tree: tree["layers"][0].pop("momentum"),
        lambda tree: tree["layers"][0].update(bias=np.zeros(3)),
        lambda tree: tree["layers"][0].update(weight=np.zeros(
            2, dtype=np.float32)),
        lambda tree: tree.update(training=[1] * len(tree["training"])),
        lambda tree: tree.pop("requires_grad"),
    ], ids=["missing-field", "float64", "ragged", "int-flags",
            "missing-flags"])
    def test_malformed_tree_raises_value_error(self, mutate):
        tree = BNState.capture(layout_model([3])).to_tree()
        mutate(tree)
        with pytest.raises(ValueError):
            BNState.from_tree(tree)


class TestCheckpointRefusal:
    @seed(1302)
    @settings(max_examples=50, deadline=None)
    @given(channels=channel_lists,
           mutation=st.sampled_from(["layers", "channels", "weights"]),
           data=st.data())
    def test_mismatch_refused_before_touching_model(self, channels,
                                                    mutation, data):
        source = fill(layout_model(channels), data.draw)
        payload = json.loads(json.dumps(
            AdaptationSession(source, "bn_norm").start().checkpoint()))

        other = list(channels)
        if mutation == "layers":
            other = other[:-1] if data.draw(st.booleans()) \
                else other + [data.draw(st.integers(1, 6))]
        elif mutation == "channels":
            index = data.draw(st.integers(0, len(other) - 1))
            other[index] += data.draw(st.integers(1, 3))
        target = fill(layout_model(other), data.draw)
        if mutation == "weights":
            weight = target[0].weight.data.reshape(-1).view(np.uint32)
            weight[data.draw(st.integers(0, weight.size - 1))] ^= 1

        state, bn = target.state_dict(), BNState.capture(target)
        momentum = [layer.momentum for layer in bn_layers(target)]
        reason = "frozen weights" if mutation == "weights" else "channels"
        with pytest.raises(ValueError, match=reason):
            AdaptationSession(target, "bn_norm").load_checkpoint(payload)
        assert_states_identical(state, target.state_dict())
        assert BNState.capture(target) == bn
        assert [layer.momentum for layer in bn_layers(target)] == momentum
