"""The perf-regression gate: compare_engine_bench + ``bench --compare``."""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.bench import (BENCH_FORMAT_VERSION, PROCESS_BATCH_METHODS,
                                compare_engine_bench,
                                format_bench_comparison, run_engine_bench)

COMMITTED_BASELINE = Path(__file__).resolve().parents[2] / "BENCH_engine.json"


@pytest.fixture(scope="module")
def bench_doc():
    """One cheap real bench run shared by the whole module."""
    return run_engine_bench(backends=("numpy",), batch=4, channels=4,
                            size=8, repeats=1, sweep=True, sweep_workers=1)


def scale_times(doc, factor):
    """A fabricated run of the same shape, ``factor``x slower."""
    scaled = copy.deepcopy(doc)
    for entry in scaled["backends"].values():
        for op in ("conv_forward", "conv_backward", "bn_opt_step"):
            entry[op]["best_s"] *= factor
            entry[op]["median_s"] *= factor
    for mode in ("serial", "parallel"):
        scaled["sweep"][mode]["wall_s"] *= factor
        scaled["sweep"][mode]["cells_per_s"] /= factor
    return scaled


class TestCompareEngineBench:
    def test_identical_documents_pass(self, bench_doc):
        comparison = compare_engine_bench(bench_doc, bench_doc,
                                          tolerance_pct=0.0)
        assert comparison["regressions"] == []
        # kernels and both sweep throughputs were all actually gated
        metrics = {c["metric"] for c in comparison["checked"]}
        assert "numpy/conv_forward/best_s" in metrics
        assert "sweep/serial/cells_per_s" in metrics
        assert "sweep/parallel/cells_per_s" in metrics

    def test_injected_2x_slowdown_fails(self, bench_doc):
        comparison = compare_engine_bench(scale_times(bench_doc, 2.0),
                                          bench_doc, tolerance_pct=40.0)
        flagged = {c["metric"] for c in comparison["regressions"]}
        assert "numpy/conv_forward/best_s" in flagged
        assert "sweep/serial/cells_per_s" in flagged
        assert all(c["ratio"] == pytest.approx(2.0)
                   for c in comparison["regressions"])
        assert "REGRESSED" in format_bench_comparison(comparison)

    def test_tolerance_is_respected(self, bench_doc):
        slower = scale_times(bench_doc, 1.2)      # 20% slower
        assert not compare_engine_bench(slower, bench_doc,
                                        tolerance_pct=40.0)["regressions"]
        assert compare_engine_bench(slower, bench_doc,
                                    tolerance_pct=10.0)["regressions"]
        with pytest.raises(ValueError, match="tolerance"):
            compare_engine_bench(bench_doc, bench_doc, tolerance_pct=-1)

    def test_speedups_never_flagged(self, bench_doc):
        faster = scale_times(bench_doc, 0.25)
        comparison = compare_engine_bench(faster, bench_doc,
                                          tolerance_pct=0.0)
        assert comparison["regressions"] == []

    def test_v1_baseline_without_sweep_is_tolerated(self, bench_doc):
        legacy = copy.deepcopy(bench_doc)
        del legacy["sweep"]
        legacy["version"] = 1
        comparison = compare_engine_bench(bench_doc, legacy,
                                          tolerance_pct=40.0)
        assert comparison["regressions"] == []
        assert "sweep/serial/cells_per_s" in comparison["skipped"]
        # kernels are still gated against a v1 baseline
        assert any(c["metric"].startswith("numpy/")
                   for c in comparison["checked"])

    def test_process_batch_rows_skipped_against_committed_baseline(
            self, bench_doc):
        rows = [f"numpy/process_batch_{method}/best_s"
                for method in PROCESS_BATCH_METHODS]
        committed = json.loads(COMMITTED_BASELINE.read_text())
        comparison = compare_engine_bench(bench_doc, committed,
                                          tolerance_pct=40.0)
        assert set(rows) <= set(comparison["skipped"])
        checked = {c["metric"] for c in comparison["checked"]}
        assert "numpy/conv_forward/best_s" in checked
        # a baseline that has the rows gates them
        gated = compare_engine_bench(bench_doc, bench_doc,
                                     tolerance_pct=0.0)
        assert set(rows) <= {c["metric"] for c in gated["checked"]}

    def test_document_version_is_3_with_sweep_section(self, bench_doc):
        assert BENCH_FORMAT_VERSION == 3
        assert bench_doc["version"] == 3
        sweep = bench_doc["sweep"]
        assert sweep["cells"] == 6
        assert sweep["serial"]["cells_per_s"] > 0
        assert sweep["parallel"]["cells_per_s"] > 0
        assert sweep["parallel"]["workers"] == 1


def serving_section(p50=40.0, p95=70.0, p99=90.0, fps=250.0):
    """A fabricated ``serving`` section of the shape loadgen emits."""
    return {
        "config": {"tenants": 2, "frames_per_tenant": 96,
                   "batch_size": 16, "arrival": "poisson:rate=256",
                   "seed": 0, "workers": 2, "method": "bn_opt",
                   "guard": True},
        "requests": 12, "frames_accepted": 192, "frames_dropped": 0,
        "frames_per_s": fps,
        "latency_ms": {"p50": p50, "p95": p95, "p99": p99,
                       "mean": p50, "max": p99},
        "open_loop_latency_ms": {"p50": p50, "p95": p95, "p99": p99,
                                 "mean": p50, "max": p99},
        "queue_depth": {"samples": 20, "mean": 4.0, "max": 16},
        "errors": 0,
    }


class TestServingComparison:
    """The v3 ``serving`` section: gated when both sides have it,
    informational when the baseline predates it."""

    def test_fabricated_2x_p99_regression_turns_the_gate_red(
            self, bench_doc):
        base = copy.deepcopy(bench_doc)
        base["serving"] = serving_section()
        current = copy.deepcopy(base)
        current["serving"]["latency_ms"]["p99"] *= 2.0
        comparison = compare_engine_bench(current, base,
                                          tolerance_pct=40.0)
        flagged = {c["metric"] for c in comparison["regressions"]}
        assert flagged == {"serving/latency_p99_ms"}
        assert "REGRESSED" in format_bench_comparison(comparison)

    def test_throughput_drop_is_a_regression(self, bench_doc):
        base = copy.deepcopy(bench_doc)
        base["serving"] = serving_section(fps=300.0)
        current = copy.deepcopy(base)
        current["serving"]["frames_per_s"] = 100.0
        comparison = compare_engine_bench(current, base,
                                          tolerance_pct=40.0)
        flagged = {c["metric"] for c in comparison["regressions"]}
        assert "serving/frames_per_s" in flagged

    def test_parity_serving_sections_pass_and_are_checked(
            self, bench_doc):
        doc = copy.deepcopy(bench_doc)
        doc["serving"] = serving_section()
        comparison = compare_engine_bench(doc, doc, tolerance_pct=0.0)
        assert comparison["regressions"] == []
        assert comparison["notes"] == []
        metrics = {c["metric"] for c in comparison["checked"]}
        assert {"serving/latency_p50_ms", "serving/latency_p95_ms",
                "serving/latency_p99_ms",
                "serving/frames_per_s"} <= metrics

    def test_pre_v3_baseline_is_informational_not_gated(self, bench_doc):
        current = copy.deepcopy(bench_doc)
        current["serving"] = serving_section(p99=10_000.0, fps=0.001)
        comparison = compare_engine_bench(current, bench_doc,
                                          tolerance_pct=40.0)
        assert comparison["regressions"] == []
        assert "serving/latency_p99_ms" in comparison["skipped"]
        assert "serving/frames_per_s" in comparison["skipped"]
        assert any("informational" in note
                   for note in comparison["notes"])
        assert "note:" in format_bench_comparison(comparison)

    def test_latency_improvement_never_flagged(self, bench_doc):
        base = copy.deepcopy(bench_doc)
        base["serving"] = serving_section()
        current = copy.deepcopy(base)
        for key in ("p50", "p95", "p99"):
            current["serving"]["latency_ms"][key] /= 4.0
        current["serving"]["frames_per_s"] *= 4.0
        comparison = compare_engine_bench(current, base,
                                          tolerance_pct=0.0)
        assert comparison["regressions"] == []


class TestBenchCompareCli:
    """`repro bench --compare` — green on parity, red on regression."""

    @pytest.fixture
    def stub_bench(self, bench_doc, monkeypatch):
        """Make the CLI's bench run instant and deterministic."""
        import repro.engine.bench as bench_mod

        def fake_run(**kwargs):
            return copy.deepcopy(bench_doc)

        monkeypatch.setattr(bench_mod, "run_engine_bench", fake_run)
        return bench_doc

    def test_parity_baseline_exits_zero(self, stub_bench, tmp_path,
                                        capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(stub_bench))
        out = tmp_path / "bench-ci.json"
        assert main(["bench", "--json", str(out), "--compare",
                     str(baseline), "--tolerance", "40"]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
        assert json.loads(out.read_text())["version"] == BENCH_FORMAT_VERSION

    def test_regression_exits_nonzero(self, stub_bench, tmp_path, capsys):
        # a baseline 2x *faster* than the stubbed current run == the
        # current run slowed 2x against its baseline
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(scale_times(stub_bench, 0.5)))
        assert main(["bench", "--json", str(tmp_path / "b.json"),
                     "--compare", str(baseline), "--tolerance", "40"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "perf regression" in captured.err
