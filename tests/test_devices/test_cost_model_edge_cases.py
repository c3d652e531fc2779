"""Cost-model edge cases and cross-checks against native execution."""

import numpy as np
import pytest

from repro.devices import device_info, forward_latency
from repro.models import build_model, summarize
from repro.profiling import profile_native
from repro.tensor import functional as F


class TestEdgeCases:
    def test_batch_size_one(self, full_summaries):
        b = forward_latency(full_summaries["wrn40_2"], 1,
                            device_info("rpi4"), adapts_bn_stats=True,
                            does_backward=True)
        assert b.forward_time_s > 0
        # fixed terms (per-layer stat tails, dispatch) dominate at B=1
        assert b.overhead_fw_s + b.bn_adapt_s > 0

    def test_huge_batch_does_not_overflow(self, full_summaries):
        b = forward_latency(full_summaries["resnext29"], 100000,
                            device_info("ultra96"), adapts_bn_stats=True,
                            does_backward=True)
        assert np.isfinite(b.forward_time_s)

    def test_breakdown_fields_all_nonnegative(self, full_summaries):
        for adapts, backward in ((False, False), (True, False), (True, True)):
            b = forward_latency(full_summaries["mobilenet_v2"], 50,
                                device_info("xavier_nx_gpu"),
                                adapts_bn_stats=adapts,
                                does_backward=backward)
            for name in ("conv_fw_s", "bn_fw_s", "bn_adapt_s",
                         "elementwise_fw_s", "overhead_fw_s", "conv_bw_s",
                         "bn_bw_s", "elementwise_bw_s", "optimizer_s",
                         "overhead_bw_s"):
                assert getattr(b, name) >= 0, name

    def test_breakdown_is_frozen(self, full_summaries):
        b = forward_latency(full_summaries["wrn40_2"], 50,
                            device_info("rpi4"), adapts_bn_stats=False,
                            does_backward=False)
        with pytest.raises(Exception):
            b.conv_fw_s = 0.0  # type: ignore[misc]


class TestNativeCrossCheck:
    """The simulated decomposition must have the same *shape* as a real
    numpy execution (different absolute scale, same structure)."""

    @pytest.fixture(scope="class")
    def native_and_simulated(self):
        model = build_model("wrn40_2", "tiny")
        model.train()
        summary = summarize(model, input_shape=(3, 16, 16), name="tiny-wrn")
        x = np.random.default_rng(0).standard_normal(
            (16, 3, 16, 16)).astype(np.float32)
        # steady state: the warm-up pays first-call costs, which land in
        # the forward pass alone, and the fastest of five profiles is the
        # one least disturbed by other load on the host
        profile_native(model, x, loss_fn=F.entropy_loss)
        native = min((profile_native(model, x, loss_fn=F.entropy_loss)
                      for _ in range(5)),
                     key=lambda run: run.total_forward_s + run.backward_s)
        simulated = forward_latency(summary, 16, device_info("rpi4"),
                                    adapts_bn_stats=True, does_backward=True)
        return native, simulated

    def test_conv_dominates_forward_in_both(self, native_and_simulated):
        native, simulated = native_and_simulated
        assert native.conv_fw_s > native.bn_fw_s
        assert simulated.conv_fw_s > simulated.bn_fw_s

    def test_backward_is_substantial_in_both(self, native_and_simulated):
        native, simulated = native_and_simulated
        assert native.backward_s > 0.5 * native.total_forward_s
        assert simulated.backward_phase_s > 0.5 * simulated.forward_phase_s
