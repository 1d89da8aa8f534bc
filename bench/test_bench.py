"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_abconvex()

import tracing  # noqa: E402
import workloads  # noqa: E402
from abconvex import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "envelope": {"n": 6, "image": 4, "points": 6},
    "dense": {"n": 12, "points": 8},
    "lifted": {"n": 4, "size": 7, "metric_size": 7},
}
NAMES = sorted(workloads.WORKLOADS)


def tiny_run(name, trace=False, seed=1):
    return run.run(name, seed, 0.3, trace, sizes=TINY[name])


def test_spec_lists_the_workloads_and_metrics_the_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {name: run.unit(name)
                         for name in tiny_run("lifted", trace=True)["metrics"]}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_end_to_end_metric(name):
    result = tiny_run(name)
    assert result["problems"] == []
    assert result["attempted"] >= 1 and result["failed"] == 0
    lines = run.report_lines(result)
    for metric in SPEC["end_to_end"]:
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)
        assert result["metrics"][metric["name"]] > 0
    assert any(line.split() == ["failed_ratio", "0", "ratio"] for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_accounts_for_the_job_time(name):
    result = tiny_run(name, trace=True)
    assert result["failed"] == 0
    metrics = result["metrics"]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]] >= 0
    layers = sum(metrics[m] for m in tracing.SELF_TIMES)
    # the rest is the benchmark's own code between the CLI requests
    assert 0.9 * metrics["trace.job_s"] <= layers <= metrics["trace.job_s"]


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1.0
    if isinstance(value, dict):
        return {k: _corrupt(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_corrupt(v) for v in value]
    return value


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_cli_result_counts_as_failed(name, monkeypatch):
    original = cli.main

    def corrupting_main(argv):
        code = original(argv)
        path = Path(argv[argv.index("--output") + 1])
        path.write_text(json.dumps(_corrupt(json.loads(path.read_text()))))
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    result = tiny_run(name)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_documents_follow_the_seed():
    digests = {seed: tiny_run("envelope", seed=seed)["meta"]["documents_sha256"]
               for seed in (1, 2)}
    assert digests[1] != digests[2]
    assert tiny_run("envelope", seed=1)["meta"]["documents_sha256"] == digests[1]


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fails_without_the_package_under_test(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "envelope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_scaled_time_reads_as_seconds_at_reference_speed():
    ref = run.KERNEL_REF_S
    assert run.scaled(1.0, ref, ref) == 1.0
    # on a host twice as slow, a job of 2 s is a job of 1 s at reference speed
    assert run.scaled(2.0, 2 * ref, 2 * ref) == 1.0
    assert run.kernel_seconds() > 0
