"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import LAYERS, PATCH_POINTS, Tracer, metric_names  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_and_untraced(name: str) -> tuple[dict, dict, Tracer]:
    workload = SMOKE[name]
    seed = 3
    untraced = workload.gate(workload.run(workload.setup(seed), seed)[0])
    tracer = Tracer()
    assert tracer.install() == []
    try:
        outputs, phases = workload.run(workload.setup(seed), seed)
    finally:
        tracer.uninstall()
    traced = workload.gate(outputs)
    return (
        {"problems": untraced[0], "digest": untraced[1]},
        {"problems": traced[0], "digest": traced[1], **phases},
        tracer,
    )


def originals() -> dict:
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in PATCH_POINTS
    }


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_restores_wrappers_and_keeps_the_digest(name):
    before = originals()
    untraced, traced, _ = traced_and_untraced(name)
    assert originals() == before
    assert untraced["problems"] == [] and traced["problems"] == []
    assert traced["digest"] == untraced["digest"]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_self_times_non_negative_and_layers_within_wall(name):
    _, traced, tracer = traced_and_untraced(name)
    metrics = tracer.metrics()
    assert set(metrics) == set(metric_names())
    for key, value in metrics.items():
        if key.endswith("self_s"):
            assert value >= -1e-9, key
    for layer in LAYERS:
        assert metrics[f"{layer}.total_s"] <= traced["wall_s"]


def test_target_layers_are_reached():
    _, _, tracer = traced_and_untraced("dense-rounds")
    m = tracer.metrics()
    assert m["extract.block_partition.calls"] > 0
    assert m["pipeline.extractions"] > 0
    assert 0 < m["extract.certified_ratio"] <= 1
    _, _, tracer = traced_and_untraced("lowdeg-roundtrip")
    m = tracer.metrics()
    assert m["extract.total_s"] == 0
    assert m["colouring.parse_colouring.s"] > 0 and m["verify.components"] > 0
    _, _, tracer = traced_and_untraced("inequality-audit")
    m = tracer.metrics()
    assert m["bins.exact_max_load_expectation.calls"] > 0
    assert m["pipeline.total_s"] == m["verify.total_s"] == 0


def test_digest_gate_marks_a_mismatch_as_failed():
    reps = [{"digest": "a" * 64, "problems": []}, {"digest": "b" * 64, "problems": []}]
    run.judge(reps, expected="a" * 64)
    assert [r["ok"] for r in reps] == [True, False]
    reps = [{"digest": "a" * 64, "problems": []}, {"digest": "b" * 64, "problems": []}]
    run.judge(reps, expected=None)
    assert [r["ok"] for r in reps] == [True, False]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    proc = bench("--workload", "dense-rounds", "--seed", "2", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_all_workloads_print_every_end_to_end_metric():
    proc = bench("--workload", "all", "--seed", "1", "--seconds", "0.1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    graph = ("wall_s", "colour_s", "verify_s", "setup_s", "peak_rss_mb", "colours", "fail_rate")
    for name in ("dense-rounds", "lowdeg-roundtrip"):
        assert {f"{name}.{m}" for m in graph} <= set(metrics)
    audit = ("wall_s", "setup_s", "peak_rss_mb", "fail_rate")
    assert {f"inequality-audit.{m}" for m in audit} <= set(metrics)
    assert not [k for k, v in metrics.items() if k.endswith("fail_rate") and v["value"]]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "dense-rounds", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(SMOKE) == set(WORKLOADS)


def test_only_surfaces_that_survive_the_roadmap():
    forbidden = (
        "threads=",
        "VertexPartition",
        "longest_path_brute",
        "enumerated_max_load_expectation",
        "induced_bipartite",
        "cache_clear",
    )
    for path in ("workloads.py", "tracer.py", "rep.py"):
        text = (BENCH / path).read_text()
        assert not [word for word in forbidden if word in text], path
    assert not [attr for _, attr, _ in PATCH_POINTS if attr.startswith("_")]
