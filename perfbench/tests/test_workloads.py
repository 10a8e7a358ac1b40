"""End-to-end checks of the benchmark.

Each workload runs through ``perfbench/run.py`` exactly as the
benchmark command does, with seed 1 and ``--seconds 1`` (one
repetition; a traced run makes one untraced and one traced).  The
traced runs also check the structural invariants recorded in
BENCHMARK.json: later changes read their predictions against these.
These tests take a few minutes.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed.returncode, completed.stdout.splitlines()


@pytest.fixture(scope="module", params=[w["name"] for w in BENCHMARK["workloads"]])
def traced(request):
    code, lines = _run(request.param, trace=1)
    return request.param, code, json.loads(lines[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    for workload in ("batch-study", "serve-reports"):
        code, lines = _run(workload, trace=0)
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"] is True, lines[-2]
        assert result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_is_correct_and_reports_every_layer(traced):
    workload, code, result = traced
    assert code == 0 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_structural_invariants(traced):
    workload, _, result = traced
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    if workload == "serve-reports":
        assert value["imaging.ocr_calls"] == 0  # images reach serve as opaque blobs
        assert value["mail.ingest_calls"] == value["loadgen.sent"]
    else:
        assert value["dataset.generate_calls"] == 1 + 2  # parent + each of 2 workers
        assert value["runner.frames"] > 0 and value["imaging.ocr_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("batch-study", trace=0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
