"""CLI tests (argument parsing and the run/report/table1 flows)."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == 0.15
        assert args.seed == 2024
        assert args.export is None
        assert args.jobs == 1
        assert args.checkpoint is None

    def test_run_options(self):
        args = build_parser().parse_args(["run", "--scale", "0.5", "--seed", "7", "--export", "x.json"])
        assert (args.scale, args.seed, args.export) == (0.5, 7, "x.json")

    def test_run_runner_options(self):
        args = build_parser().parse_args(["run", "--jobs", "8", "--checkpoint", "ckpt"])
        assert (args.jobs, args.checkpoint) == (8, "ckpt")

    def test_resume_defaults(self):
        args = build_parser().parse_args(["resume", "ckpt"])
        assert args.checkpoint == "ckpt"
        assert args.jobs is None

    def test_resume_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])

    def test_report_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_stages(self):
        args = build_parser().parse_args(["run", "--stages", "auth,parse"])
        assert args.stages == ("auth", "parse")

    def test_run_stages_default_is_full_plan(self):
        assert build_parser().parse_args(["run"]).stages is None

    def test_run_stages_rejects_unknown_names(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--stages", "auth,fetch"])
        assert "unknown stage" in capsys.readouterr().err

    def test_run_stages_rejects_missing_providers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--stages", "classify"])
        assert "requires" in capsys.readouterr().err

    def test_run_faults_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.faults == "off"
        assert args.fault_seed is None

    def test_run_faults_options(self):
        args = build_parser().parse_args(["run", "--faults", "hostile", "--fault-seed", "5"])
        assert (args.faults, args.fault_seed) == ("hostile", 5)

    def test_run_faults_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--faults", "apocalyptic"])

    def test_resume_faults_options(self):
        args = build_parser().parse_args(["resume", "ckpt", "--faults", "light"])
        assert args.faults == "light"
        assert args.fault_seed is None

    def test_resume_faults_default_to_manifest(self):
        # None = "use whatever the interrupted run used" (read at resume
        # time from the manifest), not "off".
        args = build_parser().parse_args(["resume", "ckpt"])
        assert args.faults is None
        assert args.fault_seed is None

    def test_run_budget_default_is_pipeline_default(self):
        assert build_parser().parse_args(["run"]).budget is None

    def test_run_budget_options(self):
        assert build_parser().parse_args(["run", "--budget", "50000"]).budget == 50000
        # 0 = explicitly unlimited (distinct from "not given").
        assert build_parser().parse_args(["run", "--budget", "0"]).budget == 0

    def test_run_budget_rejects_negative(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--budget", "-1"])

    def test_run_hostile_spec(self):
        assert build_parser().parse_args(["run"]).hostile is None
        assert build_parser().parse_args(["run", "--hostile", "7"]).hostile == "7"
        assert build_parser().parse_args(["run", "--hostile", "7:3"]).hostile == "7:3"

    def test_run_hostile_rejects_malformed_spec(self):
        for bad in ("seven", "7:none", "7:0", ":3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--hostile", bad])

    def test_resume_budget_and_hostile_default_to_manifest(self):
        args = build_parser().parse_args(["resume", "ckpt"])
        assert args.budget is None
        assert args.hostile is None

    def test_fsck_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fsck"])

    def test_fsck_options(self):
        args = build_parser().parse_args(["fsck", "ckpt", "--repair", "fixed"])
        assert args.checkpoint == "ckpt"
        assert args.repair == "fixed"
        assert build_parser().parse_args(["fsck", "ckpt"]).repair is None


class TestFlows:
    def test_run_and_report(self, tmp_path, capsys):
        artifacts = tmp_path / "run.json"
        exit_code = main(["run", "--scale", "0.03", "--seed", "5", "--export", str(artifacts)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Outcome breakdown" in output
        assert "Turnstile prevalence" in output
        assert artifacts.exists()

        exit_code = main(["report", str(artifacts)])
        assert exit_code == 0
        report_output = capsys.readouterr().out
        assert "Outcome breakdown" in report_output

    def test_run_with_jobs_and_checkpoint_then_resume(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        exit_code = main(["run", "--scale", "0.02", "--seed", "9", "--jobs", "2",
                          "--checkpoint", str(checkpoint)])
        assert exit_code == 0
        assert (checkpoint / "records.jsonl").exists()
        assert (checkpoint / "manifest.json").exists()
        capsys.readouterr()

        # The completed checkpoint resumes as a no-op with the same stats.
        exit_code = main(["resume", str(checkpoint)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "0 analysed" in output
        assert "Outcome breakdown" in output

    def test_resume_inherits_fault_profile_from_manifest(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        exit_code = main(["run", "--scale", "0.02", "--seed", "9", "--faults", "light",
                          "--fault-seed", "3", "--checkpoint", str(checkpoint)])
        assert exit_code == 0
        capsys.readouterr()

        # A bare resume re-announces the interrupted run's fault settings
        # (read from the manifest), rather than silently running clean.
        exit_code = main(["resume", str(checkpoint)])
        assert exit_code == 0
        assert "Fault injection: profile=light, fault-seed=3" in capsys.readouterr().out

    def test_run_with_stage_subset(self, tmp_path, capsys):
        artifacts = tmp_path / "triage.json"
        exit_code = main(["run", "--scale", "0.02", "--seed", "5",
                          "--stages", "auth,parse", "--export", str(artifacts)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Degraded records" in output  # unselected stages are 'skipped'
        assert artifacts.exists()
        # Parse-only triage never crawls, so every record is URL-less.
        import json

        payload = json.loads(artifacts.read_text())
        assert payload["records"]
        for record in payload["records"]:
            assert record.get("crawls", []) == []
            assert record["stage_status"]["crawl"] == "skipped"
            assert record["stage_status"]["parse"] == "ok"

    def test_run_with_hostile_corpus_quarantines_and_reports(self, capsys):
        exit_code = main(["run", "--scale", "0.02", "--seed", "9",
                          "--hostile", "7", "--budget", "500000"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "+ 9 hostile messages (spec '7')" in output
        assert "Per-message budget: 500000 work units" in output
        # Eight shapes trip the guard; the ninth (js-loop) burns the
        # budget instead — both surface in the post-run report.
        assert "quarantine: 8 message(s)" in output
        assert "mime-depth" in output
        assert "Budget-exhausted stages: 1" in output

    def test_hostile_run_resumes_with_respecified_spec(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        assert main(["run", "--scale", "0.02", "--seed", "9", "--hostile", "7",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        # Without the spec the regenerated corpus is short: refuse with
        # a hint rather than resuming against the wrong index space.
        assert main(["resume", str(checkpoint)]) == 1
        assert "--hostile spec again" in capsys.readouterr().out
        assert main(["resume", str(checkpoint), "--hostile", "7"]) == 0
        assert "0 analysed" in capsys.readouterr().out

    def test_resume_without_manifest_fails(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nothing")]) == 1
        assert "nothing to resume" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "notabot" in output
        assert output.count("FAIL") >= 8  # the detectable crawlers' cells


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second of start-up, and only the paired
    # t-test behind Figure 2 needs it; `repro run` and `repro serve` don't.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
