"""Smoke test of the benchmark: every workload's code path on a tiny phantom.

Run with: python3 -m pytest bench/test_smoke.py
"""

import dataclasses
import json
import sys

import pytest

import run

# A straight tube small enough that one track takes well under a second.
TINY = dict(dims=(40, 24, 24), spacing=(2.0, 2.0, 2.0), inner_radius=8.0,
            bends=0, touch_pairs=0, seed=3)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", {
        name: dataclasses.replace(w, phantom=TINY) for name, w in run.WORKLOADS.items()})
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in run.THREAD_CAPS:
        monkeypatch.setenv(var, "1")


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_emits_every_metric_with_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.split()[:1] == ["ops_failed"] for line in lines)
    assert any(line.startswith("context: ") for line in lines)


def test_fails_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "folded-hard", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
