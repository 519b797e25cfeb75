"""Per-layer metrics of a traced run, derived from its spans and counters.

Each rule reads the spans the benchmark recorded around its calls into
one layer.  Values a workload measured itself (program counters such as
``QueryServer.stats`` or the WAL's fsync count) are passed in and win
over the rules.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

from typing import Callable

from perfbench.common import percentile
from perfbench.spans import Tracer

#: Dashboard panels, named as in the per-layer metrics.
PANELS = ("group_by_name", "range_group", "tag_cut", "point_filter",
          "tag_order", "cold_range")

#: rca_session request shapes that reach the ranking layer.
RANK_SHAPES = ("CorrMax", "L2", "L2-P50", "conditioned", "drill_down")


def _p50(name: str, scale: float) -> Callable[[Tracer], float]:
    return lambda t: percentile(t.durations(name), 50) * scale


def _busy(name: str) -> Callable[[Tracer], float]:
    """Total time inside ``name`` calls, lock waits included.

    Traced runs record spans on every other unit of work (see
    ``Tracer.paused``) but count every call, so this is the mean traced
    span times the calls counted; the spans alone cover half the calls.
    """
    def rule(t: Tracer) -> float:
        spans = t.durations(name)
        return sum(spans) / len(spans) * t.counts[name] if spans else 0.0
    return rule


RULES: dict[str, Callable[[Tracer], float]] = {
    "workloads.build_s": lambda t: sum(t.durations("workloads.build")),
    "tsdb.insert.calls": lambda t: t.counts["tsdb.insert"],
    "tsdb.insert.busy_s": _busy("tsdb.insert"),
    "tsdb.insert.p50_us": _p50("tsdb.insert", 1e6),
    "tsdb.checkpoint.count": lambda t: t.counts["tsdb.checkpoint"],
    "tsdb.checkpoint.p50_s": _p50("tsdb.checkpoint", 1.0),
    "tsdb.checkpoint.bytes": lambda t: t.counts["tsdb.checkpoint.bytes"],
    "tsdb.open.snapshot_s": _p50("tsdb.open.snapshot", 1.0),
    "tsdb.open.wal_replay_s": _p50("tsdb.open.wal_replay", 1.0),
    "tsdb.snapshot.calls": lambda t: t.counts["tsdb.snapshot"],
    "tsdb.snapshot.p50_ms": _p50("tsdb.snapshot", 1e3),
    "sql.register.p50_ms": _p50("sql.register", 1e3),
    **{f"sql.panel.{p}.p50_ms": _p50(f"sql.panel.{p}", 1e3) for p in PANELS},
    "core.families.p50_ms": _p50("core.families", 1e3),
    "core.hypotheses.p50_ms": _p50("core.hypotheses", 1e3),
    **{f"core.rank.{s}.p50_ms": _p50(f"core.rank.{s}", 1e3)
       for s in RANK_SHAPES},
    "core.rank.hypotheses": lambda t: t.counts["core.rank.hypotheses"],
    "core.rank.features": lambda t: t.counts["core.rank.features"],
    "evalkit.grade_s": lambda t: sum(t.durations("evalkit.grade")),
    "trace.spans": lambda t: len(t.spans),
}


def layer_metrics(names: list[str], tracer: Tracer,
                  measured: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in ``names``, measured values first."""
    unknown = set(measured) - set(names)
    if unknown:
        raise KeyError(f"workload reported undeclared layers: {unknown}")
    values = {}
    for name in names:
        if name in measured:
            values[name] = float(measured[name])
        elif name in RULES:
            values[name] = float(RULES[name](tracer))
        else:
            values[name] = 0.0
    return values
