"""Study runners: simulated grid integrity and a micro native run."""

import math

import pytest

from repro.core.config import StudyConfig
from repro.core.runner import run_native_study, run_simulated_study


class TestSimulatedStudy:
    def test_full_grid_size(self, simulated_study):
        assert len(simulated_study) == 108   # 3 models x 3 methods x 3 batches x 4 devices

    def test_exactly_three_oom_records(self, simulated_study):
        oom = [r for r in simulated_study if r.oom]
        labels = {r.label for r in oom}
        assert labels == {
            "RXT-AM-100 + BN-Opt @ ultra96",
            "RXT-AM-200 + BN-Opt @ ultra96",
            "RXT-AM-200 + BN-Opt @ xavier_nx_gpu",
        }

    def test_oom_records_have_nan_costs(self, simulated_study):
        for r in simulated_study:
            if r.oom:
                assert math.isnan(r.forward_time_s)
                assert math.isnan(r.energy_j)
            else:
                assert r.forward_time_s > 0 and r.energy_j > 0

    def test_errors_come_from_reference_grid(self, simulated_study):
        from repro.core.reference import reference_error_pct
        for r in simulated_study:
            assert r.error_pct == reference_error_pct(r.model, r.method,
                                                      r.batch_size)

    def test_adapt_overhead_zero_for_no_adapt(self, simulated_study):
        for r in simulated_study.feasible():
            if r.method == "no_adapt":
                assert r.adapt_overhead_s == pytest.approx(0.0)
            else:
                assert r.adapt_overhead_s > 0

    def test_memory_recorded(self, simulated_study):
        assert all(r.memory_gb > 0 for r in simulated_study)

    def test_custom_grid(self):
        result = run_simulated_study(StudyConfig(
            models=("mobilenet_v2",), devices=("xavier_nx_gpu",),
            batch_sizes=(50,)))
        assert len(result) == 3


class TestNativeStudy:
    @pytest.fixture(scope="class")
    def native_result(self, micro_trained_model):
        model, _ = micro_trained_model
        config = StudyConfig(models=("wrn40_2",),
                             methods=("no_adapt", "bn_norm"),
                             batch_sizes=(50,),
                             corruptions=("fog", "gaussian_noise"),
                             image_size=16, stream_samples=200)
        return run_native_study(config, models={"wrn40_2": model})

    def test_grid_shape(self, native_result):
        assert len(native_result) == 2

    def test_errors_are_measured_percentages(self, native_result):
        for r in native_result:
            assert 0.0 <= r.error_pct <= 100.0
            assert r.device == "host"
            assert r.forward_time_s > 0

    def test_bn_norm_beats_no_adapt(self, native_result):
        no_adapt = native_result.one("wrn40_2", "no_adapt", 50)
        bn_norm = native_result.one("wrn40_2", "bn_norm", 50)
        assert bn_norm.error_pct < no_adapt.error_pct


class TestNativeStudySpecs:
    """Malformed specs fail the call before any cell runs, serially and
    with workers alike (a worker would otherwise fail every cell)."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("field,noun", [("faults", "fault"),
                                            ("scenario", "scenario")])
    def test_malformed_spec_raises_before_any_cell(self, tmp_path, workers,
                                                   field, noun):
        journal = tmp_path / "run.jsonl"
        config = StudyConfig(models=("wrn40_2",),
                             methods=("no_adapt", "bn_norm"),
                             batch_sizes=(50,), corruptions=("fog",),
                             image_size=16, stream_samples=32,
                             journal=str(journal), workers=workers,
                             **{field: "bogus"})
        with pytest.raises(ValueError, match=f"bad {noun} spec 'bogus'"):
            run_native_study(config)
        assert not journal.exists()


class TestNativeStudyExtensions:
    def test_extension_methods_run_in_grid(self, micro_trained_model):
        """The native runner accepts extension algorithms with kwargs."""
        model, _ = micro_trained_model
        config = StudyConfig(models=("wrn40_2",),
                             methods=("bn_norm_blend",),
                             batch_sizes=(50,),
                             corruptions=("fog",),
                             image_size=16, stream_samples=150,
                             method_kwargs={"bn_norm_blend":
                                            {"source_count": 8}})
        result = run_native_study(config, models={"wrn40_2": model})
        record = result.one("wrn40_2", "bn_norm_blend", 50)
        assert 0.0 <= record.error_pct <= 100.0

    def test_per_corruption_records(self, micro_trained_model):
        model, _ = micro_trained_model
        config = StudyConfig(models=("wrn40_2",), methods=("bn_norm",),
                             batch_sizes=(50,),
                             corruptions=("fog", "gaussian_noise"),
                             image_size=16, stream_samples=150)
        result = run_native_study(config, models={"wrn40_2": model},
                                  per_corruption=True)
        # 1 aggregate + 2 per-corruption records
        assert len(result) == 3
        fog = result.one("wrn40_2", "bn_norm", 50, corruption="fog")
        noise = result.one("wrn40_2", "bn_norm", 50,
                           corruption="gaussian_noise")
        aggregate = result.one("wrn40_2", "bn_norm", 50)
        assert aggregate.corruption == ""
        assert aggregate.error_pct == pytest.approx(
            (fog.error_pct + noise.error_pct) / 2)

    def test_mce_from_native_study(self, micro_trained_model):
        from repro.core.metrics import mce
        model, _ = micro_trained_model
        config = StudyConfig(models=("wrn40_2",),
                             methods=("no_adapt", "bn_norm"),
                             batch_sizes=(50,),
                             corruptions=("fog", "gaussian_noise"),
                             image_size=16, stream_samples=150)
        result = run_native_study(config, models={"wrn40_2": model},
                                  per_corruption=True)
        def per_corr(method):
            return {c: result.one("wrn40_2", method, 50,
                                  corruption=c).error_pct
                    for c in ("fog", "gaussian_noise")}
        score = mce(per_corr("bn_norm"), per_corr("no_adapt"))
        assert score < 100.0   # adaptation beats the frozen baseline
