"""Tests of the benchmark itself: span arithmetic, repeatable counters, smoke runs.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_recorder_round_trip(tmp_path, monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    rec = spans.SpanRecorder()

    def leaf(n):
        return list(range(n))

    leaf = rec.wrap("leaf", leaf, on_result=spans._len, key=lambda a, k: a[0])

    def outer():
        return leaf(2) + leaf(3) + leaf(2)

    outer = rec.wrap("outer", outer)
    counted = rec.count("tick", lambda: None)
    outer()
    counted()
    counted()
    rec.dump(tmp_path / "t")

    loaded = spans.load_spans(tmp_path / "t")
    per = spans._per_name(loaded)
    # clock: outer 0..7, leaves 1..2, 3..4, 5..6, each lasting one tick
    assert per["outer"] == {"calls": 1, "self_s": 4.0, "extra": 0.0}
    assert per["leaf"] == {"calls": 3, "self_s": 3.0, "extra": 7.0}
    assert loaded["distinct"] == {"leaf": 2}
    assert loaded["counts"] == {"tick": 2}
    assert spans._extra_under(loaded, "leaf", "outer") == 7.0


def test_reference_comparison():
    ref = compare.body("# widthlab 0.1.0 config=aaaa\nn,x\n4,0.5\n", "slope: 1.25\n")
    same = compare.body("# widthlab 0.1.0 config=bbbb\nn,x\n4,0.5000000001\n", "slope: 1.25\n")
    assert compare.mismatch(same, ref) is None
    off = compare.body("# widthlab 0.1.0 config=aaaa\nn,x\n4,0.50001\n", "slope: 1.25\n")
    assert "relative tolerance" in compare.mismatch(off, ref)
    renamed = compare.body("# widthlab 0.1.0 config=aaaa\nn,y\n4,0.5\n", "slope: 1.25\n")
    assert compare.mismatch(renamed, ref) is not None
    assert compare.mismatch(ref + "extra\n", ref) is not None


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {n for n, _ in run.END_TO_END}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_counts_repeat_exactly(name):
    workload = WORKLOADS[name]
    measure = run.make_inputs("smoke", 0)[workload.measure]
    first, second = (
        run.run_child(workload, "smoke", measure, True, f"test-{name}-{i}")
        for i in range(2)
    )
    assert "error" not in first and "error" not in second
    for metric in spans.EXACT_METRICS:
        assert first["layers"][metric] == second["layers"][metric], metric
    assert first["layers"]["reports.write.self_s"] > 0


def test_smoke_run_of_every_workload_passes_reference_check():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--size", "smoke", "--seed", "0", "--seconds", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(WORKLOADS)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, (name, proc.stdout)
        assert result["metrics"]["wall_s"]["value"] > 0
