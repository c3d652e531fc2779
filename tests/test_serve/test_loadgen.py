"""Load generation: the arrival grammar, seeded schedules, and the
end-to-end latency harness against a real in-process daemon."""

import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.serve.daemon import ServeDaemon
from repro.serve.loadgen import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    TenantLoad,
    latency_percentiles,
    parse_arrival_spec,
    run_loadgen,
    run_serving_bench,
)
from repro.serve.manager import SessionManager, TenantSpec


class TestArrivalGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("uniform", ArrivalSpec("uniform", 64.0, 4)),
        ("poisson:rate=120", ArrivalSpec("poisson", 120.0, 4)),
        ("burst:rate=64+size=8", ArrivalSpec("burst", 64.0, 8)),
        (" uniform : rate=32 ", ArrivalSpec("uniform", 32.0, 4)),
        # the specs CI, README, docs and the CLI defaults use
        ("poisson:rate=40", ArrivalSpec("poisson", 40.0, 4)),
        ("poisson:rate=64", ArrivalSpec("poisson", 64.0, 4)),
        ("poisson:rate=256", ArrivalSpec("poisson", 256.0, 4)),
        ("uniform:rate=64", ArrivalSpec("uniform", 64.0, 4)),
        ("burst:rate=128+size=4", ArrivalSpec("burst", 128.0, 4)),
    ])
    def test_parse(self, text, expected):
        assert parse_arrival_spec(text) == expected

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_compact_round_trips(self, kind):
        # size only shapes (and serializes for) burst arrivals
        size = 3 if kind == "burst" else 4
        spec = ArrivalSpec(kind=kind, rate=96.0, size=size)
        assert parse_arrival_spec(spec.compact()) == spec

    @pytest.mark.parametrize("spec,text", [
        (ArrivalSpec("poisson", 0.1234567), "poisson:rate=0.1234567"),
        (ArrivalSpec("uniform", 1234567.0), "uniform:rate=1234567"),
        (ArrivalSpec("uniform", 64.0, 8), "uniform:rate=64+size=8"),
    ])
    def test_compact_is_exact(self, spec, text):
        assert spec.compact() == text
        assert parse_arrival_spec(text) == spec

    @pytest.mark.parametrize("text,match", [
        ("", "empty"),
        ("warp:rate=9", "unknown arrival kind"),
        ("poisson:pace=9", "unknown parameter"),
        ("poisson:rate", "key=value"),
        ("poisson:rate=fast", "non-numeric"),
        ("uniform:rate=0", "rate must be"),
        ("burst:size=0", "size must be"),
        ("poisson:rate=inf", "rate must be finite"),
    ])
    def test_rejections(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_arrival_spec(text)


class TestSchedules:
    def test_uniform_gaps_are_the_interval(self):
        offsets = ArrivalSpec("uniform", rate=64.0).offsets(5, 16)
        np.testing.assert_allclose(offsets, np.arange(5) * 0.25)

    def test_poisson_is_seeded_and_seed_sensitive(self):
        spec = ArrivalSpec("poisson", rate=64.0)
        again = ArrivalSpec("poisson", rate=64.0)
        np.testing.assert_array_equal(spec.offsets(20, 16, seed=7),
                                      again.offsets(20, 16, seed=7))
        assert not np.array_equal(spec.offsets(20, 16, seed=7),
                                  spec.offsets(20, 16, seed=8))

    def test_poisson_mean_gap_tracks_the_rate(self):
        offsets = ArrivalSpec("poisson", rate=64.0).offsets(2000, 16)
        mean_gap = float(np.diff(offsets).mean())
        assert mean_gap == pytest.approx(16 / 64.0, rel=0.15)

    def test_burst_fires_then_pauses(self):
        offsets = ArrivalSpec("burst", rate=64.0, size=4).offsets(8, 16)
        # 4 back-to-back sends, then a pause that restores the rate
        np.testing.assert_allclose(offsets[:4], 0.0)
        np.testing.assert_allclose(offsets[4:], 1.0)

    def test_offsets_are_monotonic(self):
        for kind in ARRIVAL_KINDS:
            offsets = ArrivalSpec(kind, rate=50.0).offsets(50, 8, seed=3)
            assert np.all(np.diff(offsets) >= 0)


class TestPercentiles:
    def test_empty_is_all_zero(self):
        assert latency_percentiles([]) == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}

    def test_ordering_and_max(self):
        values = list(range(1, 101))
        result = latency_percentiles(values)
        assert result["p50"] <= result["p95"] <= result["p99"] \
            <= result["max"] == 100.0


def serve_in_process(**manager_kwargs):
    manager = SessionManager(**manager_kwargs)
    daemon = ServeDaemon(manager)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    return daemon, thread


def load_for(tenant, frames=32, batch_size=8, arrival="uniform:rate=512"):
    return TenantLoad(
        spec=TenantSpec(tenant=tenant, model="wrn40_2", method="bn_norm",
                        batch_size=batch_size, guard=False,
                        queue_capacity=2, image_size=16, seed=3),
        frames=frames, arrival=parse_arrival_spec(arrival))


class TestRunLoadgen:
    def test_two_tenants_end_to_end(self):
        daemon, thread = serve_in_process()
        try:
            host, port = daemon.address
            report = run_loadgen(host, port,
                                 [load_for("cam0"), load_for("cam1")],
                                 seed=5)
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)
        assert report["tenants"] == ["cam0", "cam1"]
        assert report["errors"] == 0 and report["error_messages"] == []
        assert report["requests"] == 8          # 2 tenants x 32/8 chunks
        assert report["frames_offered"] == 64
        assert report["frames_accepted"] == 64
        assert report["frames_dropped"] == 0
        assert report["frames_per_s"] > 0
        latency = report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        for tenant in ("cam0", "cam1"):
            per = report["per_tenant"][tenant]
            assert per["frames_accepted"] == 32
            assert per["batches_done"] == 4
        # the sampler got at least a few depth readings in
        assert report["queue_depth"]["samples"] >= 0

    def test_requires_at_least_one_load(self):
        with pytest.raises(ValueError, match="at least one"):
            run_loadgen("127.0.0.1", 1, [])

    def test_unreachable_daemon_reports_errors_not_hangs(self):
        report = run_loadgen("127.0.0.1", 1, [load_for("cam0")],
                             seed=0, status_every_s=0.0,
                             connect_timeout=0.2)
        assert report["errors"] == 1
        assert report["frames_accepted"] == 0
        assert "connect" in report["error_messages"][0]


class TestRunServingBench:
    def test_smoke_section_shape(self):
        section = run_serving_bench(tenants=2, frames_per_tenant=16,
                                    batch_size=8, method="bn_norm",
                                    guard=False,
                                    arrival="uniform:rate=512")
        assert section["errors"] == 0
        assert section["frames_accepted"] == 32
        assert section["frames_dropped"] == 0
        assert section["config"]["tenants"] == 2
        assert section["config"]["arrival"] == "uniform:rate=512"
        assert set(section["latency_ms"]) == \
            {"p50", "p95", "p99", "mean", "max"}
        assert section["frames_per_s"] > 0
        # the full report rides along for humans
        assert section["report"]["tenants"] == ["load0", "load1"]


class TestServeClientLoadCli:
    def test_paced_stream_prints_latency_summary(self, capsys):
        daemon, thread = serve_in_process()
        try:
            _, port = daemon.address
            assert main(["serve-client", "--port", str(port),
                         "--tenant", "cli0", "--method", "bn_norm",
                         "--no-guard", "--batch-size", "8",
                         "--frames", "16", "--corruption", "clean",
                         "--load", "uniform:rate=512"]) == 0
            out = capsys.readouterr().out
            assert "load: 2 request(s)" in out
            assert "uniform:rate=512" in out
            assert "frames/s" in out
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)

    def test_duration_cycles_the_frame_set(self, capsys):
        daemon, thread = serve_in_process()
        try:
            _, port = daemon.address
            # 8 frames at 256/s cycle for a wall-clock second: far more
            # requests than the one the frame count alone would allow
            assert main(["serve-client", "--port", str(port),
                         "--tenant", "cli1", "--method", "bn_norm",
                         "--no-guard", "--batch-size", "8",
                         "--frames", "8", "--corruption", "clean",
                         "--load", "poisson:rate=256",
                         "--duration", "1.0"]) == 0
            out = capsys.readouterr().out
            requests = int(out.split("load: ")[1].split(" request")[0])
            assert requests > 1
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)

    def test_duration_without_load_exits_two(self, capsys):
        assert main(["serve-client", "--port", "7399", "--tenant", "x",
                     "--duration", "5"]) == 2
        assert "--duration requires --load" in capsys.readouterr().err


class TestServeBenchCli:
    @pytest.fixture
    def stub_section(self, monkeypatch):
        section = {
            "config": {"tenants": 2, "frames_per_tenant": 96,
                       "batch_size": 16, "arrival": "poisson:rate=256",
                       "seed": 0, "workers": 2, "method": "bn_opt",
                       "guard": True},
            "requests": 12, "frames_accepted": 192, "frames_dropped": 0,
            "frames_per_s": 250.0,
            "latency_ms": {"p50": 40.0, "p95": 70.0, "p99": 90.0,
                           "mean": 45.0, "max": 95.0},
            "open_loop_latency_ms": {"p50": 40.0, "p95": 70.0,
                                     "p99": 90.0, "mean": 45.0,
                                     "max": 95.0},
            "queue_depth": {"samples": 20, "mean": 4.0, "max": 16},
            "errors": 0,
            "report": {"error_messages": []},
        }
        import repro.serve.loadgen as loadgen_mod

        def fake_bench(**kwargs):
            return json.loads(json.dumps(section))

        monkeypatch.setattr(loadgen_mod, "run_serving_bench", fake_bench)
        return section

    def test_writes_bench_shaped_doc(self, stub_section, tmp_path,
                                     capsys):
        out = tmp_path / "serve-bench.json"
        assert main(["serve-bench", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro.engine_bench"
        assert doc["serving"]["latency_ms"]["p99"] == 90.0
        assert "p99 90.0ms" in capsys.readouterr().out

    def test_compare_green_on_parity(self, stub_section, tmp_path,
                                     capsys):
        out = tmp_path / "serve-bench.json"
        assert main(["serve-bench", "--json", str(out)]) == 0
        assert main(["serve-bench", "--compare", str(out)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_compare_red_on_regression(self, stub_section, tmp_path,
                                       capsys):
        baseline = tmp_path / "baseline.json"
        fast = json.loads(json.dumps(stub_section))
        fast["latency_ms"]["p99"] = 30.0        # current 90ms = 3x worse
        baseline.write_text(json.dumps(
            {"format": "repro.engine_bench", "version": 3,
             "serving": fast}))
        assert main(["serve-bench", "--compare", str(baseline),
                     "--tolerance", "40"]) == 1
        captured = capsys.readouterr()
        assert "serving/latency_p99_ms" in captured.out
        assert "perf regression" in captured.err

    def test_load_errors_exit_nonzero(self, stub_section, monkeypatch,
                                      capsys):
        import repro.serve.loadgen as loadgen_mod
        failing = json.loads(json.dumps(stub_section))
        failing["errors"] = 2
        failing["report"]["error_messages"] = ["chunk 3: boom"]
        monkeypatch.setattr(loadgen_mod, "run_serving_bench",
                            lambda **kwargs: failing)
        assert main(["serve-bench"]) == 1
        assert "boom" in capsys.readouterr().err

    def test_bad_arrival_spec_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve-bench", "--arrival", "warp:rate=9"])
        assert exited.value.code == 2
        assert "unknown arrival kind" in capsys.readouterr().err
