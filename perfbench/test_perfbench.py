"""The benchmark's own tests: tiny workloads, gates and span arithmetic."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import rca_session, run
from perfbench.spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, seed: int, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", str(trace),
                     "--config", "tiny"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(0, 0), (1, 1)])
def test_tiny_workload_reports_declared_metrics(capsys, workload, seed,
                                                trace):
    code, result = _run(capsys, workload, seed, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_gate_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(rca_session.PINNED_RECALL, "tiny", 0.5)
    code, result = _run(capsys, "rca_session", 0, 0)
    assert code == 1
    assert result["correct"] is False


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rca_session",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),      # overlaps a
        Span(3, "a.child", 2.0, 3.0, 1, "r"),
        Span(4, "late", 8.0, 12.0, 0, "r"),  # runs past the root
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(4.0)


def test_tracer_nests_spans_and_pauses():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", request="q1"):
        with tracer.span("inner"):
            tracer.count("calls")
        with tracer.paused():
            with tracer.span("hidden"):
                tracer.count("calls")
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == "q1"
    assert tracer.counts["calls"] == 2
    assert self_times(tracer.spans)[outer.id] <= outer.duration

    off = Tracer(enabled=False)
    with off.span("x"):
        off.count("calls")
    assert off.spans == [] and not off.counts
