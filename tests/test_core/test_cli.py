"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_study_device_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--device", "tpu"])


SERVE_CLIENT = ["serve-client", "--port", "1", "--tenant", "t"]


class TestSpecFlags:
    """A malformed spec at any spec flag is a usage error: argparse names
    the flag and the grammar's reason on one error line, and exits 2
    before the command runs."""

    @pytest.mark.parametrize("argv,flag", [
        (["stream", "--faults", "bogus"], "--faults"),
        (["stream", "--faults", "nan:x"], "--faults"),
        (["stream", "--scenario", "cyclic:dwell=inf"], "--scenario"),
        (["native", "--faults", "bogus"], "--faults"),
        (["native", "--scenario", "markov:p="], "--scenario"),
        (SERVE_CLIENT + ["--faults", "nan@-1"], "--faults"),
        (SERVE_CLIENT + ["--scenario", "ramp@7"], "--scenario"),
        (SERVE_CLIENT + ["--chaos", "bogus"], "--chaos"),
        (SERVE_CLIENT + ["--load", "poisson:rate=inf"], "--load"),
        (["serve-bench", "--arrival", "warp:rate=9"], "--arrival"),
    ])
    def test_malformed_spec_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: bad " in err
        assert err.count("error:") == 1 and "Traceback" not in err


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "WRN-AM" in out and "5408 BN params" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "ultra96" in out and "Volta" in out

    def test_study_single_device(self, capsys):
        assert main(["study", "--device", "rpi4"]) == 0
        out = capsys.readouterr().out
        assert "Optimal configurations on rpi4" in out
        assert "ultra96" not in out

    def test_study_writes_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "grid.json"
        csv_path = tmp_path / "grid.csv"
        assert main(["study", "--device", "xavier_nx_gpu",
                     "--json", str(json_path), "--csv", str(csv_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["format"] == "repro.study_result"
        assert len(payload["records"]) == 27
        assert csv_path.read_text().startswith("model,method")

    def test_anchors_exit_code(self, capsys):
        assert main(["anchors"]) == 0
        out = capsys.readouterr().out
        assert "within tolerance" in out

    def test_scatter(self, capsys):
        assert main(["scatter", "--device", "ultra96"]) == 0
        out = capsys.readouterr().out
        assert "forward time" in out and "bn_opt" in out

    def test_insights(self, capsys):
        assert main(["insights"]) == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out and "FAILS" not in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "A1" in out and "Fig. 2" in out


class TestNativeCommand:
    """Flag plumbing into StudyConfig (the runner itself is stubbed)."""

    @pytest.fixture
    def stub_runner(self, monkeypatch):
        from repro.core.records import MeasurementRecord, StudyResult
        captured = {}

        def fake(config, models=None, per_corruption=False, backend=None):
            captured["config"] = config
            captured["per_corruption"] = per_corruption
            captured["backend"] = backend
            return StudyResult([MeasurementRecord(
                model="wrn40_2", method="bn_norm", batch_size=50,
                device="host", error_pct=12.0, forward_time_s=0.5,
                energy_j=float("nan"),
                status=captured.pop("status", "ok"))])

        import repro.core.runner as runner_mod
        monkeypatch.setattr(runner_mod, "run_native_study", fake)
        return captured

    def test_flags_reach_study_config(self, stub_runner, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main(["native", "--models", "wrn40_2", "--methods",
                     "no_adapt", "bn_norm", "--batch-sizes", "10", "50",
                     "--corruptions", "fog", "--samples", "120",
                     "--journal", str(journal), "--resume",
                     "--max-retries", "2", "--cell-timeout", "90",
                     "--workers", "3", "--seed", "7"]) == 0
        config = stub_runner["config"]
        assert config.models == ("wrn40_2",)
        assert config.methods == ("no_adapt", "bn_norm")
        assert config.batch_sizes == (10, 50)
        assert config.corruptions == ("fog",)
        assert config.stream_samples == 120
        assert config.journal == str(journal) and config.resume
        assert config.max_retries == 2 and config.cell_timeout == 90.0
        assert config.workers == 3
        assert config.seed == 7
        assert "Native study grid" in capsys.readouterr().out

    def test_spec_flags_reach_study_config_as_text(self, stub_runner):
        # the journal fingerprints the text, so it must not be rewritten
        assert main(["native", "--faults", "nan:0.2, constant@3",
                     "--scenario", "markov:p=0.1@5"]) == 0
        config = stub_runner["config"]
        assert config.faults == "nan:0.2, constant@3"
        assert config.scenario == "markov:p=0.1@5"

    def test_resume_requires_journal(self, stub_runner, capsys):
        assert main(["native", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err
        assert "config" not in stub_runner      # runner never invoked

    def test_broken_cells_exit_nonzero(self, stub_runner, capsys):
        stub_runner["status"] = "failed"
        assert main(["native"]) == 1
        assert "did not complete" in capsys.readouterr().err

    def test_writes_json_artifact(self, stub_runner, tmp_path):
        out = tmp_path / "grid.json"
        assert main(["native", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro.study_result"
        assert payload["records"][0]["status"] == "ok"
