"""Engine bench entry point, CLI flags, and study-harness integration."""

import json

import pytest

from repro.cli import main
from repro.core import runner
from repro.core.config import StudyConfig
from repro.core.runner import _GRID_SUMMARY_CACHE, run_native_study
from repro.engine.bench import (PROCESS_BATCH_METHODS, _bench_sweep,
                                format_engine_bench, run_engine_bench,
                                write_engine_bench)
from repro.engine.blas import blas_threads


QUICK = dict(batch=8, channels=4, size=8, repeats=1)


class TestEngineBench:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_engine_bench(backends=("numpy", "sanitize"), **QUICK)

    def test_document_shape(self, doc):
        assert doc["format"] == "repro.engine_bench"
        assert set(doc["backends"]) == {"numpy", "sanitize"}
        for entry in doc["backends"].values():
            for op in ("conv_forward", "conv_backward", "bn_opt_step"):
                assert entry[op]["best_s"] > 0
                assert entry[op]["median_s"] >= entry[op]["best_s"]
            assert entry["arena"]["requests"] > 0

    def test_process_batch_row_per_method(self, doc):
        assert doc["workload"]["process_batch"] == {
            "model": "wrn40_2", "profile": "tiny", "batch": 16, "size": 16,
            "guard": False}
        for entry in doc["backends"].values():
            for method in PROCESS_BATCH_METHODS:
                row = entry[f"process_batch_{method}"]
                assert row["best_s"] > 0
                assert row["median_s"] >= row["best_s"]
        text = format_engine_bench(doc)
        assert "process_batch" in text and "bn_opt" in text

    def test_format_is_renderable(self, doc):
        text = format_engine_bench(doc)
        assert "numpy" in text and "sanitize" in text

    def test_host_stamps_blas_threads(self, doc):
        stamped = doc["host"]["blas_threads"]
        if blas_threads() is None:
            assert stamped is None
        else:
            assert stamped >= 1

    def test_one_worker_sweep_has_no_speedup(self, monkeypatch):
        monkeypatch.setattr(runner, "run_native_study",
                            lambda config, models: None)
        sweep = _bench_sweep(workers=1, seed=0)
        assert "speedup_parallel_vs_serial" not in sweep
        assert _bench_sweep(workers=2, seed=0)["speedup_parallel_vs_serial"] > 0
        doc = run_engine_bench(backends=("numpy",), **QUICK)
        text = format_engine_bench(dict(doc, sweep=sweep))
        assert "parallel[1]" in text and "(x" not in text

    def test_write_engine_bench(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_engine_bench(path, backends=("numpy",), **QUICK)
        loaded = json.loads(path.read_text())
        assert loaded["workload"]["batch"] == QUICK["batch"]
        assert "numpy" in loaded["backends"]


class TestCliBackendFlags:
    def test_bench_command_writes_json(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        rc = main(["bench", "--backends", "numpy", "--batch", "8",
                   "--repeats", "1", "--json", str(path)])
        assert rc == 0
        assert json.loads(path.read_text())["format"] == "repro.engine_bench"
        assert "wrote" in capsys.readouterr().out

    def test_global_backend_flag_accepted(self, capsys):
        rc = main(["--backend", "numpy", "models"])
        assert rc == 0
        assert "resnet18" in capsys.readouterr().out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["--backend", "cuda", "models"])


class TestNativeStudyBackend:
    @pytest.fixture(scope="class")
    def tiny_config(self):
        return dict(models=("wrn40_2",), methods=("bn_norm",),
                    batch_sizes=(32,), corruptions=("fog",),
                    image_size=16, stream_samples=64, train_samples=64,
                    train_epochs=1)

    def test_records_carry_backend_name(self, micro_trained_model,
                                        tiny_config):
        model, _ = micro_trained_model
        config = StudyConfig(backend="numpy", **tiny_config)
        result = run_native_study(config, models={"wrn40_2": model})
        assert all(r.backend == "numpy" for r in result)

    def test_backend_survives_json_round_trip(self, micro_trained_model,
                                              tiny_config):
        from repro.core import io as study_io
        model, _ = micro_trained_model
        result = run_native_study(StudyConfig(backend="numpy", **tiny_config),
                                  models={"wrn40_2": model})
        restored = study_io.loads(study_io.dumps(result))
        assert restored.records[0].backend == "numpy"


class TestSummaryCache:
    def test_cache_builds_once_and_clears(self):
        _GRID_SUMMARY_CACHE.clear()
        assert len(_GRID_SUMMARY_CACHE) == 0
        calls = []

        def builder(name):
            calls.append(name)
            return f"summary-of-{name}"

        assert _GRID_SUMMARY_CACHE.get_or_build("m", builder) == "summary-of-m"
        assert _GRID_SUMMARY_CACHE.get_or_build("m", builder) == "summary-of-m"
        assert calls == ["m"]
        _GRID_SUMMARY_CACHE.clear()
        _GRID_SUMMARY_CACHE.get_or_build("m", builder)
        assert calls == ["m", "m"]
        _GRID_SUMMARY_CACHE.clear()

    def test_concurrent_builds_converge_to_one_entry(self):
        import threading
        _GRID_SUMMARY_CACHE.clear()
        results = []

        def build():
            results.append(_GRID_SUMMARY_CACHE.get_or_build(
                "race", lambda n: object()))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(r) for r in results}) == 1
        _GRID_SUMMARY_CACHE.clear()
