"""Smoke test: the Figure 10 backend benchmark emits well-formed rows.

Runs the benchmark's backend comparison (``benchmarks/
bench_figure10_score_time.py``, loaded by path: the benchmark tree is
not an importable package) on a tiny workload, checking that the
per-hypothesis thread-pool and pickle schedules and the engine's batch
planner produce complete, sane timing rows and identical rankings.
"""

import math

import pytest


def test_backend_rows_well_formed(bench):
    hypotheses = bench.synthetic_hypotheses(n_families=8, n_samples=60)
    rows = bench.backend_timing_rows(hypotheses, scorer="L2",
                                     backends=("thread", "pickle", "batch"),
                                     n_workers=2)
    assert [row["backend"] for row in rows] == ["thread", "pickle", "batch"]
    for row in rows:
        assert set(row) == set(bench.BACKEND_ROW_FIELDS)
        assert row["scorer"] == "L2"
        assert row["n_hypotheses"] == 8
        assert row["n_workers"] == 2
        for key in ("wall_seconds", "mean_seconds_per_family",
                    "max_seconds_per_family"):
            assert isinstance(row[key], float)
            assert math.isfinite(row[key])
            assert row[key] > 0.0
        assert (row["max_seconds_per_family"]
                >= row["mean_seconds_per_family"])
    by_backend = {row["backend"]: row for row in rows}
    # Per-hypothesis timings are individually measured; batch ones are
    # equal shares of the stacked call and flagged as such.
    assert by_backend["thread"]["share_attributed"] is False
    assert by_backend["pickle"]["share_attributed"] is False
    assert by_backend["batch"]["share_attributed"] is True
    rendered = bench.format_backend_rows(rows)
    assert "thread" in rendered and "batch" in rendered
    assert "attributed" in rendered and "measured" in rendered


def test_reproduction_rankings_equal_rank_families(bench):
    hypotheses = bench.synthetic_hypotheses(n_families=8, n_samples=60)
    for scorer in ("CorrMax", "L2", "L2-P50"):
        assert bench.rankings_match_engine(hypotheses, scorer=scorer)


def test_unknown_backend_rejected(bench):
    hypotheses = bench.synthetic_hypotheses(n_families=2, n_samples=30)
    with pytest.raises(ValueError):
        bench.backend_timing_rows(hypotheses, backends=("process",))


def test_synthetic_workload_shape(bench):
    hypotheses = bench.synthetic_hypotheses(n_families=5, n_samples=40,
                                            n_features=2)
    assert len(hypotheses) == 5
    assert all(h.y.name == "target" for h in hypotheses)
    assert all(h.x.n_features == 2 for h in hypotheses)
    assert all(h.y is hypotheses[0].y for h in hypotheses)
