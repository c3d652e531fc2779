"""``repro check`` CLI: exit-code contract (0/1/2), formats, baselines."""

import json
import socket
import textwrap

import pytest

from repro.analysis.rules import RULE_CODES
from repro.cli import main

VIOLATING = textwrap.dedent("""
    import numpy as np

    def seed_everything():
        np.random.seed(0)

    def dump(path, payload):
        with open(path, "w") as fp:
            fp.write(payload)
""")


@pytest.fixture
def clean_file(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("ANSWER = 42\n")
    return target


@pytest.fixture
def bad_tree(tmp_path):
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(VIOLATING)
    return tmp_path


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file, capsys):
        assert main(["check", str(clean_file)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_tree, capsys):
        assert main(["check", str(bad_tree)]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_unknown_select_code_exits_two(self, clean_file, capsys):
        assert main(["check", str(clean_file),
                     "--select", "REP999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_update_baseline_without_path_exits_two(self, bad_tree, capsys):
        assert main(["check", str(bad_tree), "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_corrupt_baseline_exits_two(self, bad_tree, tmp_path, capsys):
        broken = tmp_path / "broken-baseline.json"
        broken.write_text("{not json")
        assert main(["check", str(bad_tree),
                     "--baseline", str(broken)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, bad_tree, tmp_path, capsys):
        assert main(["check", str(bad_tree),
                     "--baseline", str(tmp_path / "absent.json")]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_unwritable_baseline_dir_exits_two(self, bad_tree, tmp_path,
                                               capsys):
        # --update-baseline into a directory that does not exist must be
        # a diagnosed usage error, not an OSError traceback
        target = tmp_path / "no" / "such" / "dir" / "baseline.json"
        assert main(["check", str(bad_tree), "--baseline", str(target),
                     "--update-baseline"]) == 2
        assert "cannot write baseline" in capsys.readouterr().err


class TestFormats:
    def test_json_report(self, bad_tree, capsys):
        assert main(["check", str(bad_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.check_report"
        assert payload["count"] == 2
        assert [f["code"] for f in payload["findings"]] == ["REP001",
                                                            "REP003"]
        assert all(f["path"].endswith("bad.py")
                   for f in payload["findings"])

    def test_select_filters_rules(self, bad_tree, capsys):
        assert main(["check", str(bad_tree), "--format", "json",
                     "--select", "REP001"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["REP001"]

    def test_ignore_drops_rules(self, bad_tree, capsys):
        assert main(["check", str(bad_tree), "--format", "json",
                     "--ignore", "REP001,REP003"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_list_rules_catalog(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CODES:
            assert code in out

    def test_github_format_emits_annotations(self, bad_tree, capsys):
        assert main(["check", str(bad_tree), "--format", "github"]) == 1
        lines = capsys.readouterr().out.splitlines()
        warnings = [line for line in lines if line.startswith("::warning ")]
        assert len(warnings) == 2
        assert "title=REP001::" in warnings[0]
        assert ",line=" in warnings[0] and ",col=" in warnings[0]
        assert lines[-1] == "repro check: 2 finding(s)"

    def test_github_format_clean(self, clean_file, capsys):
        assert main(["check", str(clean_file),
                     "--format", "github"]) == 0
        assert "::warning" not in capsys.readouterr().out


class TestConcurrencyGate:
    def test_injected_lock_order_cycle_turns_gate_red(self, tmp_path,
                                                      capsys):
        # the acceptance fixture: an AB/BA inversion split across two
        # modules must fail a plain `repro check <tree>` run
        package = tmp_path / "src" / "repro" / "serve"
        package.mkdir(parents=True)
        (package / "fwd.py").write_text(textwrap.dedent("""
            from .locks import LOCK_A, LOCK_B

            def forward():
                with LOCK_A:
                    with LOCK_B:
                        pass
        """))
        (package / "bwd.py").write_text(textwrap.dedent("""
            from .locks import LOCK_A, LOCK_B

            def backward():
                with LOCK_B:
                    with LOCK_A:
                        pass
        """))
        assert main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP009" in out and "cycle" in out


class TestBaselineWorkflow:
    def test_update_then_check_then_regress(self, bad_tree, tmp_path,
                                            capsys):
        baseline = tmp_path / "baseline.json"
        # 1. absorb the legacy findings
        assert main(["check", str(bad_tree), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert "2 finding(s) absorbed" in capsys.readouterr().out
        # 2. the baselined tree is now clean
        assert main(["check", str(bad_tree),
                     "--baseline", str(baseline)]) == 0
        # 3. a NEW violation still gates
        extra = bad_tree / "src" / "repro" / "core" / "worse.py"
        extra.write_text("import random\nrandom.seed(0)\n")
        assert main(["check", str(bad_tree),
                     "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "worse.py" in out and "REP001" in out


class TestSanitizeBackendFlag:
    def test_sanitize_with_workers_is_usage_error(self, capsys):
        assert main(["--backend", "sanitize", "native",
                     "--workers", "2"]) == 2
        assert "serial" in capsys.readouterr().err

    STREAM = ["--backend", "sanitize", "stream", "--method", "bn_norm",
              "--frames", "32", "--batch-size", "16"]

    def test_faulted_stream_prints_findings_and_exits_1(self, capsys):
        assert main(self.STREAM + ["--faults", "nan@0"]) == 1
        out = capsys.readouterr().out
        assert "pad_input[call 0] x: nan" in out
        assert "sanitizer: 6 finding(s)" in out

    def test_clean_stream_reports_clean(self, capsys):
        assert main(self.STREAM) == 0
        assert "sanitizer: clean (no findings)" in capsys.readouterr().out

    def test_serve_is_usage_error(self, capsys):
        # a held port: were the refusal missing, serve would fail to
        # bind (exit 1) rather than listen forever
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = str(holder.getsockname()[1])
            assert main(["--backend", "sanitize", "serve",
                         "--port", port]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "another process" in lines[0]

    def test_serve_bench_is_usage_error(self, capsys):
        # its hosts run the engine in other processes, as serve's do
        assert main(["--backend", "sanitize", "serve-bench", "--tenants",
                     "1", "--frames", "16", "--batch-size", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "another process" in lines[0]

    @pytest.mark.parametrize("backend", ["numpy", "sanitize"])
    def test_bench_refuses_the_global_backend(self, backend, tmp_path,
                                              capsys):
        path = tmp_path / "bench.json"
        assert main(["--backend", backend, "bench", "--batch", "4",
                     "--repeats", "1", "--no-sweep",
                     "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not path.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"--backends {backend}" in lines[0]
