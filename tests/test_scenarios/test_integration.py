"""Scenario interop proofs: runner parallelism, io, CLI, serve resume.

Four contracts that cross layer boundaries:

- a scenario-driven native study is byte-identical serial vs. process-
  parallel (the schedule is a pure function of (spec, seed, index));
- scenario/segment record fields survive the JSON *and* CSV round
  trips, and pre-scenario documents still load;
- the CLI rejects malformed ``--scenario`` text with exit code 2 and
  runs a scenario stream end to end with exit code 0;
- a serve tenant fed scenario-shaped traffic, SIGKILLed mid-stream and
  resumed from its journal, matches an uninterrupted twin bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import io as study_io
from repro.core.config import StudyConfig
from repro.core.records import MeasurementRecord, StudyResult
from repro.core.runner import run_native_study
from repro.data.synthetic import make_synth_cifar
from repro.scenarios import ScenarioStream
from repro.serve.manager import SessionManager, TenantSpec

from tests.test_scenarios.conftest import make_tiny_model
from tests.test_serve.conftest import assert_states_identical, strip_timing


def scenario_config(**overrides):
    base = dict(models=("wrn40_2",), methods=("no_adapt", "bn_norm"),
                batch_sizes=(16,), image_size=16, stream_samples=160,
                scenario="cyclic:dwell=2+over=fog|gaussian_noise@3")
    base.update(overrides)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def study_models():
    return {"wrn40_2": make_tiny_model()}


class TestNativeStudyParallelism:
    def test_serial_and_workers_byte_identical(self, study_models):
        serial = run_native_study(scenario_config(), models=study_models,
                                  per_corruption=True)
        parallel = run_native_study(scenario_config(workers=2),
                                    models=study_models, per_corruption=True)
        assert study_io.canonical_dumps(parallel, strip_timing=True) == \
            study_io.canonical_dumps(serial, strip_timing=True)

    def test_segment_records_emitted(self, study_models):
        result = run_native_study(scenario_config(methods=("bn_norm",)),
                                  models=study_models, per_corruption=True)
        segments = [r for r in result.records if r.segment >= 0]
        aggregate = [r for r in result.records if r.segment < 0]
        # 160 samples / 16 = 10 batches, dwell 2 -> 5 segments
        assert [r.segment for r in segments] == [0, 1, 2, 3, 4]
        assert [r.corruption for r in segments] == \
            ["fog", "gaussian_noise"] * 2 + ["fog"]
        assert len(aggregate) == 1
        assert all(r.scenario == "cyclic:dwell=2+over=fog|gaussian_noise@3"
                   for r in result.records)

    def test_scenario_in_resume_fingerprint(self, study_models, tmp_path):
        """Changing the scenario must invalidate a journaled run."""
        journal = tmp_path / "study.jsonl"
        run_native_study(scenario_config(methods=("bn_norm",),
                                         journal=str(journal)),
                         models=study_models)
        with pytest.raises(ValueError, match="fingerprint"):
            run_native_study(
                scenario_config(methods=("bn_norm",), journal=str(journal),
                                resume=True, scenario="markov:p=0.5"),
                models=study_models)


class TestRecordRoundTrip:
    def record(self):
        return MeasurementRecord(
            model="wrn40_2", method="bn_norm", batch_size=16, device="host",
            error_pct=42.5, forward_time_s=0.01, energy_j=float("nan"),
            corruption="fog", scenario="cyclic:dwell=2@3", segment=4,
            rollbacks=1, guarded=True)

    def test_json_round_trip(self):
        result = StudyResult([self.record()])
        back = study_io.loads(study_io.dumps(result)).records[0]
        assert back.scenario == "cyclic:dwell=2@3"
        assert back.segment == 4

    def test_csv_round_trip_types(self):
        result = StudyResult([self.record()])
        back = study_io.from_csv(study_io.to_csv(result)).records[0]
        assert back.scenario == "cyclic:dwell=2@3"
        assert back.segment == 4 and isinstance(back.segment, int)

    def test_pre_scenario_documents_still_load(self):
        payload = json.loads(study_io.dumps(StudyResult([self.record()])))
        for row in payload["records"]:
            row.pop("scenario")
            row.pop("segment")
        back = study_io.loads(json.dumps(payload)).records[0]
        assert back.scenario == ""
        assert back.segment == -1


def run_cli(*args):
    import repro
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=env)


class TestCli:
    @pytest.mark.parametrize("command", ["stream", "native"])
    @pytest.mark.parametrize("text", ["bogus:x=1", "markov:p="])
    def test_malformed_scenario_exits_2(self, command, text):
        proc = run_cli(command, "--scenario", text)
        assert proc.returncode == 2
        assert "argument --scenario: bad scenario spec" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_stream_scenario_end_to_end(self, tmp_path):
        out = tmp_path / "outcome.json"
        proc = run_cli("stream", "--scenario",
                       "cyclic:dwell=2+over=fog|gaussian_noise@3",
                       "--frames", "64", "--batch-size", "16",
                       "--method", "bn_norm", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "forgetting" in proc.stdout
        records = json.loads(out.read_text())["records"]
        assert all(r["scenario"] ==
                   "cyclic:dwell=2+over=fog|gaussian_noise@3"
                   for r in records)
        segments = [r for r in records if r["segment"] >= 0]
        assert [r["corruption"] for r in segments] == \
            ["fog", "gaussian_noise"]     # 4 batches, dwell 2
        assert len(records) == len(segments) + 1   # plus the aggregate


class TestServeKillResume:
    """Scenario-shaped traffic through the serve journal."""

    TEXT = "markov:p=0.4+over=fog|gaussian_noise|contrast"

    def spec(self):
        return TenantSpec(tenant="cam0", model="wrn40_2", method="bn_opt",
                          batch_size=8, guard=True, queue_capacity=2,
                          image_size=16, seed=3)

    def chunks(self):
        dataset = make_synth_cifar(96, size=16, seed=5)
        stream = ScenarioStream.from_dataset(dataset, self.TEXT, seed=2)
        batches = list(stream.batches(8, 10))
        # poison one pre-kill and one post-kill batch so the guard state
        # that must survive the resume is non-trivial
        for index in (2, 7):
            images, labels = batches[index]
            images = images.copy()
            images[0] = np.nan
            batches[index] = (images, labels)
        return batches

    def feed(self, manager, chunks, faults_at=(2, 7)):
        for index, (images, labels) in enumerate(chunks):
            manager.ingest("cam0", images, labels,
                           faults=1 if index in faults_at else 0)

    def test_kill_and_resume_matches_uninterrupted_twin(self, tmp_path):
        chunks = self.chunks()

        twin = SessionManager()
        twin.open_tenant(self.spec())
        self.feed(twin, chunks)
        twin_state = twin.session("cam0").model.state_dict()
        twin_card = twin.scorecard("cam0")
        assert twin_card.rollbacks >= 1        # the faults actually bit

        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self.spec())
        self.feed(first, chunks[:5])
        del first                              # SIGKILL stand-in

        second = SessionManager(journal=journal, resume=True)
        try:
            opened = second.open_tenant(self.spec())
            assert opened == {"resumed": True, "batches_done": 5,
                              "chunk": -1}
            self.feed(second, chunks[5:], faults_at={2})  # index 7 -> 2
            assert strip_timing(second.scorecard("cam0")) == \
                strip_timing(twin_card)
            assert_states_identical(
                twin_state, second.session("cam0").model.state_dict())
        finally:
            second.close()
        twin.close()
