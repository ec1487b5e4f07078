"""Self-test of the benchmark at a tiny input size. It checks no timing bounds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_source()
import bench  # noqa: E402  (needs the checkout's src on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, root, reference=bench.REFERENCE):
    return bench.run_workload(workload, seed=3, seconds=0.0, trace=trace, root=root,
                              sizes=bench.TINY, reference=reference)


@pytest.mark.parametrize("workload,trace", [
    ("prep", False), ("prep", True), ("personal", False), ("loso", False), ("loso", True),
])
def test_every_benchmark_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = _run(workload, trace, tmp_path)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(bench.FULL)


@pytest.mark.parametrize("workload", ["prep", "loso"])
def test_traced_spans_nest_and_self_times_cover_the_pass(workload, tmp_path):
    metrics = {k: v["value"] for k, v in _run(workload, True, tmp_path)["metrics"].items()}
    dump = json.loads((tmp_path / ".perfbench_out" / f"spans-{workload}-seed3.json").read_text())
    spans = [dict(zip(dump["fields"], s)) for s in dump["spans"]]
    assert dump["run_id"] and dump["meta"]["seed"] == 3
    for i, s in enumerate(spans):
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert s["parent"] < i
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        if s["name"].startswith("classifiers."):
            assert spans[s["parent"]]["name"] == bench.SPLIT
        if s["name"] == bench.SPLIT:
            assert spans[s["parent"]]["name"].startswith("evaluation.")
    assert [s["name"] for s in spans if s["parent"] is None] == ["bench.setup", "bench.pass"]
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in bench.LAYERS)
    assert layer_self + metrics["trace.uncovered_s"] == pytest.approx(metrics["trace.wall_s"],
                                                                      rel=1e-9, abs=1e-12)


def test_corrupted_feature_reference_counts_as_failed(tmp_path):
    with np.load(bench.REFERENCE, allow_pickle=False) as stored:
        matrices = {name: stored[name].copy() for name in stored.files}
    matrices["bank_a"][0, 0] += 1e-6
    corrupted = tmp_path / "corrupted.npz"
    np.savez(corrupted, **matrices)
    result = _run("prep", False, tmp_path, reference=corrupted)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_exits_nonzero_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
