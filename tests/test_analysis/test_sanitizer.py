"""SanitizerBackend: op-site fault attribution, clean-run transparency,
and the end-to-end ``--backend sanitize`` native-study acceptance."""

import numpy as np
import pytest

from repro.analysis.sanitize import NumericFaultError, SanitizerBackend
from repro.engine import NumpyBackend, create_backend

RNG = np.random.default_rng(7)


def conv_inputs():
    xp = RNG.standard_normal((2, 3, 10, 10)).astype(np.float32)
    weight = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
    return xp, weight


class StubInner:
    """Minimal inner backend returning scripted results, for driving
    contract checks the real NumpyBackend can never violate."""

    name = "stub"
    arena = None

    def __init__(self, **results):
        self.results = results

    def __getattr__(self, op):
        if op in self.results:
            return lambda *args, **kwargs: self.results[op]
        raise AttributeError(op)


class TestCleanRunTransparency:
    def test_kernels_bit_identical_to_numpy_backend(self):
        xp, weight = conv_inputs()
        reference = NumpyBackend()
        sanitizer = SanitizerBackend(NumpyBackend())
        try:
            assert np.array_equal(
                reference.conv2d_forward(xp, weight, (1, 1), 1),
                sanitizer.conv2d_forward(xp, weight, (1, 1), 1))
            a = xp.reshape(2, -1)
            assert np.array_equal(reference.matmul(a, a.T),
                                  sanitizer.matmul(a, a.T))
            ref_stats = reference.batchnorm_stats(xp)
            san_stats = sanitizer.batchnorm_stats(xp)
            assert len(san_stats) == 3      # mean, var, centered
            for ref, san in zip(ref_stats, san_stats):
                assert np.array_equal(ref, san)
            assert sanitizer.findings == []
        finally:
            reference.close()
            sanitizer.close()

    def test_shares_inner_arena(self):
        inner = NumpyBackend()
        sanitizer = SanitizerBackend(inner)
        try:
            assert sanitizer.arena is inner.arena
        finally:
            sanitizer.close()

    def test_create_backend_by_name(self):
        backend = create_backend("sanitize")
        try:
            assert isinstance(backend, SanitizerBackend)
            assert backend.name == "sanitize"
            assert isinstance(backend.inner, NumpyBackend)
        finally:
            backend.close()


class TestFaultAttribution:
    def test_nan_input_pinpoints_op_and_argument(self):
        xp, weight = conv_inputs()
        xp[1, 2, 3, 4] = np.nan
        sanitizer = SanitizerBackend(NumpyBackend())
        try:
            sanitizer.conv2d_forward(xp, weight, (1, 1), 1)
        finally:
            sanitizer.close()
        first = sanitizer.findings[0]
        assert (first.op, first.call_index, first.argument) == \
            ("conv2d_forward", 0, "xp")
        assert first.kind == "nan" and "1 NaN value(s)" in first.detail

    def test_inf_weight_detected(self):
        xp, weight = conv_inputs()
        weight[0, 0, 0, 0] = np.inf
        sanitizer = SanitizerBackend(NumpyBackend())
        try:
            sanitizer.conv2d_forward(xp, weight, (1, 1), 1)
        finally:
            sanitizer.close()
        kinds = {(f.argument, f.kind) for f in sanitizer.findings}
        assert ("weight", "inf") in kinds

    def test_dtype_drift_detected(self):
        a = RNG.standard_normal((3, 4))        # float64: drifted
        sanitizer = SanitizerBackend(NumpyBackend())
        try:
            sanitizer.matmul(a, a.T)
        finally:
            sanitizer.close()
        drifted = [f for f in sanitizer.findings if f.kind == "dtype"]
        assert {f.argument for f in drifted} >= {"a", "b"}
        assert "float64" in drifted[0].detail

    def test_integer_arrays_exempt_from_dtype_check(self):
        """argmax-style integer payloads are not dtype drift."""
        grad = RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
        inner = NumpyBackend()
        sanitizer = SanitizerBackend(inner)
        try:
            x = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
            out, arg = sanitizer.max_pool2d_forward(x, (2, 2), (2, 2))
            sanitizer.max_pool2d_backward(grad, arg, x.shape, (2, 2), (2, 2))
            assert sanitizer.findings == []
        finally:
            sanitizer.close()

    def test_output_shape_contract_violation(self):
        xp, weight = conv_inputs()
        wrong = np.zeros((2, 4, 5, 5), dtype=np.float32)
        sanitizer = SanitizerBackend(StubInner(conv2d_forward=wrong))
        sanitizer.conv2d_forward(xp, weight, (1, 1), 1)
        shape_findings = [f for f in sanitizer.findings
                          if f.kind == "shape" and f.argument == "out"]
        assert len(shape_findings) == 1
        assert "(2, 4, 8, 8)" in shape_findings[0].detail

    def test_matmul_contraction_mismatch(self):
        sanitizer = SanitizerBackend(
            StubInner(matmul=np.zeros((2, 5), dtype=np.float32)))
        sanitizer.matmul(np.zeros((2, 3), dtype=np.float32),
                         np.zeros((4, 5), dtype=np.float32))
        assert any(f.kind == "shape" and "do not contract" in f.detail
                   for f in sanitizer.findings)

    def test_negative_variance_is_a_range_finding(self):
        stats = (np.zeros(3, dtype=np.float32),
                 np.array([0.5, -1.0, 2.0], dtype=np.float32),
                 np.zeros((4, 3, 2, 2), dtype=np.float32))
        sanitizer = SanitizerBackend(StubInner(batchnorm_stats=stats))
        sanitizer.batchnorm_stats(
            np.zeros((4, 3, 2, 2), dtype=np.float32))
        assert len(sanitizer.findings) == 1
        ranged = [f for f in sanitizer.findings if f.kind == "range"]
        assert len(ranged) == 1
        assert ranged[0].op == "batchnorm_stats"
        assert ranged[0].argument == "out[var]"
        assert "negative variance" in ranged[0].detail


class TestModes:
    def test_fail_fast_raises_with_finding(self):
        xp, weight = conv_inputs()
        xp[0, 0, 0, 0] = np.nan
        sanitizer = SanitizerBackend(NumpyBackend(), fail_fast=True)
        try:
            with pytest.raises(NumericFaultError) as excinfo:
                sanitizer.conv2d_forward(xp, weight, (1, 1), 1)
        finally:
            sanitizer.close()
        assert excinfo.value.finding.op == "conv2d_forward"
        assert "nan" in str(excinfo.value)

    def test_max_findings_truncation(self):
        a = np.full((2, 2), np.nan, dtype=np.float32)
        sanitizer = SanitizerBackend(NumpyBackend(), max_findings=2)
        try:
            for _ in range(3):
                sanitizer.matmul(a, a)
        finally:
            sanitizer.close()
        assert len(sanitizer.findings) == 2 and sanitizer.truncated
        assert "truncated at 2" in sanitizer.describe()

    def test_clear_resets_counters_and_findings(self):
        a = np.full((2, 2), np.nan, dtype=np.float32)
        sanitizer = SanitizerBackend(NumpyBackend())
        try:
            sanitizer.matmul(a, a)
            assert sanitizer.findings
            sanitizer.clear()
            assert sanitizer.findings == [] and not sanitizer.truncated
            good = np.ones((2, 2), dtype=np.float32)
            sanitizer.matmul(good, good)
        finally:
            sanitizer.close()
        assert sanitizer.findings == []
        assert sanitizer.describe() == "sanitizer: clean (no findings)"


class TestNativeStudyAcceptance:
    """Acceptance: ``--backend sanitize`` completes a 2-cell study with
    zero findings; a robustness-layer nan fault is flagged at the exact
    op where it enters the engine."""

    CONFIG_KWARGS = dict(models=("wrn40_2",), batch_sizes=(50,),
                         image_size=16, stream_samples=200)

    def test_clean_two_cell_study_has_no_findings(self, micro_trained_model):
        from repro.core.config import StudyConfig
        from repro.core.runner import run_native_study

        model, _ = micro_trained_model
        config = StudyConfig(methods=("no_adapt", "bn_norm"),
                             corruptions=("fog", "gaussian_noise"),
                             backend="sanitize", **self.CONFIG_KWARGS)
        sanitizer = SanitizerBackend()
        try:
            result = run_native_study(config, models={"wrn40_2": model},
                                      backend=sanitizer)
            assert len(result) == 2
            assert all(r.status == "ok" for r in result)
            assert sanitizer.findings == []
        finally:
            sanitizer.close()

    def test_injected_nan_fault_flagged_at_entry_op(self,
                                                    micro_trained_model):
        from repro.core.config import StudyConfig
        from repro.core.runner import run_native_study

        model, _ = micro_trained_model
        config = StudyConfig(methods=("no_adapt",), corruptions=("fog",),
                             backend="sanitize", faults="nan@1",
                             **self.CONFIG_KWARGS)
        sanitizer = SanitizerBackend()
        try:
            run_native_study(config, models={"wrn40_2": model},
                             backend=sanitizer)
        finally:
            sanitizer.close()
        assert sanitizer.findings, "the injected nan fault went undetected"
        first = sanitizer.findings[0]
        # the poisoned batch enters the engine through the first conv's
        # input padding — the sanitizer names that exact op and argument
        assert (first.op, first.argument, first.kind) == \
            ("pad_input", "x", "nan")
