"""Tiny-size runs of every workload, traced and untraced, end to end."""

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import layers
import measure
import run
import serve_workload
import stream_workload

from conftest import BENCH, ROOT


@pytest.fixture(scope="module")
def prepared():
    run.prepare()


@pytest.fixture
def tiny(monkeypatch, prepared):
    # a handful of requests cannot carry a p90 under the ten-beyond rule
    monkeypatch.setattr(measure, "MIN_BEYOND", 0)
    monkeypatch.setattr(stream_workload, "POOL", 8)
    monkeypatch.setattr(stream_workload, "SCORED_ROUNDS", 8)
    monkeypatch.setattr(stream_workload, "MIN_ROUNDS", 4)
    monkeypatch.setattr(stream_workload, "SETUPS", 2)
    monkeypatch.setattr(serve_workload, "POOL", 8)
    monkeypatch.setattr(serve_workload, "WARMUP_REQUESTS", 1)
    monkeypatch.setattr(serve_workload, "SATURATE_SCORED", 4)
    monkeypatch.setattr(serve_workload, "SETUPS", 2)


def assert_complete(result, trace):
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    names = layers.metric_units() if trace else run.END_TO_END
    assert set(names) <= set(result["metrics"])
    if not trace:
        assert all(result["metrics"][name] > 0 for name in names)


@pytest.mark.parametrize("trace", [False, True])
def test_stream(tiny, tmp_path, trace):
    result = stream_workload.run(tmp_path, seed=0, seconds=0.0, trace=trace)
    assert_complete(result, trace)
    if trace:
        assert result["metrics"]["bn_opt.engine.conv2d_backward.ms"] > 0
        assert result["metrics"]["no_adapt.engine.conv2d_backward.ms"] == 0


@pytest.mark.parametrize("workload", ["serve-durable", "serve-saturate"])
@pytest.mark.parametrize("trace", [False, True])
def test_serve(tiny, monkeypatch, tmp_path, workload, trace):
    # a limit every request misses: only serve-durable has one
    if serve_workload.WORKLOADS[workload]["p90_limit_ms"] is not None:
        monkeypatch.setitem(serve_workload.WORKLOADS[workload],
                            "p90_limit_ms", 0.0)
    result = serve_workload.run(ROOT, tmp_path, workload, seed=0,
                                seconds=2.0, trace=trace)
    assert_complete(result, trace)
    assert [warning.split(":")[0] for warning in result["warnings"]] == (
        ["LIMIT EXCEEDED"] if workload == "serve-durable" else [])
    if trace:
        metrics = result["metrics"]
        assert metrics["manager.ingest.ms_p50"] > 0
        assert (metrics["journal.append.ms_p50"] > 0) == \
            (workload == "serve-durable")
    assert not list(tmp_path.glob("journal-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_latency_limit_is_the_one_benchmark_json_quotes():
    limit = serve_workload.WORKLOADS["serve-durable"]["p90_limit_ms"]
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(workload["why"] for workload in document["workloads"]
               if workload["name"] == "serve-durable")
    assert f"request_ms_p90 {limit:.0f} ms" in why


def fail_once(monkeypatch, owner, attr, nth):
    """Make the ``nth`` call (0-based) of ``owner.attr`` raise."""
    original = getattr(owner, attr)
    calls = itertools.count()

    def flaky(*args, **kwargs):
        if next(calls) == nth:
            raise RuntimeError("injected fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, flaky)


def assert_reported_failure(capsys, code):
    out, err = capsys.readouterr()
    assert code == 1
    assert "CHECK FAILED" in err and "RuntimeError: injected fault" in err
    last = json.loads(out.splitlines()[-1])
    assert last["correct"] is False and last["metrics"] == {}
    assert last["failed"] == 1 and last["attempted"] >= 1
    return last


def test_a_raising_batch_fails_the_run_with_its_report(tiny, monkeypatch,
                                                       capsys):
    from repro.serve.session import AdaptationSession

    # past every set-up's warm-up, the second method of timed round 2
    warmup = stream_workload.SETUPS * stream_workload.WARMUP_ROUNDS \
        * len(stream_workload.METHODS)
    fail_once(monkeypatch, AdaptationSession, "process_batch", warmup + 4)
    last = assert_reported_failure(capsys, run.main(
        ["--workload", "stream", "--seed", "0", "--seconds", "0",
         "--trace", "0"]))
    assert last["attempted"] == 2


def test_a_raising_client_fails_the_run_with_its_report(tiny, monkeypatch,
                                                        capsys):
    from repro.serve.client import ServeClient

    # set-up sends warm-up requests for both tenants of both set-ups
    warmup = serve_workload.SETUPS * serve_workload.TENANTS \
        * serve_workload.WARMUP_REQUESTS
    fail_once(monkeypatch, ServeClient, "send_frames", warmup)
    assert_reported_failure(capsys, run.main(
        ["--workload", "serve-saturate", "--seed", "0", "--seconds", "1",
         "--trace", "0"]))
