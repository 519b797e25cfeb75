"""Helpers shared by the three workloads: statistics, fingerprints, set-up."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np
from repro.tsdb.persist import read_store
from repro.tsdb.sharded import ShardedTimeSeriesStore
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.wal import MAGIC as WAL_MAGIC
from repro.tsdb.wal import WriteAheadLog

from perfbench.spans import Tracer


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation; 0 if empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def trace_overhead(traced: list[float],
                   untraced: list[float]) -> dict[str, float]:
    """Tracing cost: median latency of traced minus untraced units (ms).

    Traced runs record spans on every other unit of work, so both sides
    see the same mix at the same time.
    """
    base = percentile(untraced, 50)
    delta = percentile(traced, 50) - base
    return {"trace.overhead_ms": delta,
            "trace.overhead_frac": delta / base if base else 0.0}


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bits(value: Any) -> Any:
    return struct.pack("<d", value) if isinstance(value, float) else value


def table_fingerprint(table) -> tuple:
    """A SQL result table as comparable bytes: floats by their bits."""
    return (tuple(table.columns),
            tuple(tuple(_bits(c) for c in row) for row in table.rows))


def ranking_fingerprint(score_table) -> tuple:
    """A Score Table as comparable bytes, leaving out wall-clock fields."""
    rows = tuple((r.rank, r.family, _bits(r.score), r.n_features,
                  _bits(r.p_value), _bits(r.p_bonferroni), r.significant_bh)
                 for r in score_table.results)
    return (score_table.scorer_name, score_table.target,
            score_table.condition, score_table.n_hypotheses, rows)


def store_bytes(*paths: Path) -> int:
    """Total size on disk of the files that exist among ``paths``."""
    return sum(p.stat().st_size for p in paths if p.exists())


@dataclass
class Context:
    """What a workload run receives from the command line."""

    seed: int
    seconds: float
    tracer: Tracer
    workdir: Path
    nproc: int
    config: str = "full"           # "full" or "tiny" (the benchmark's tests)


@dataclass
class Outcome:
    """What a workload run measured and checked.

    ``metrics`` holds the end-to-end metrics, ``layers`` the per-layer
    values the workload measured itself (the rest are derived from the
    tracer), ``aliases`` the workload's own names of the end-to-end
    metrics (e.g. ``explain_p50_ms`` for ``op_p50_ms``) and ``record``
    the run's input sizes, to set against the program's cache sizes,
    and the readings printed beside the metrics (recovery time, recall).
    """

    attempted: int = 0
    failed: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    record: dict[str, Any] = field(default_factory=dict)


def repeated_setup(ctx: Context, reps: int,
                   build: Callable[[Path], Any],
                   teardown: Callable[[Any], None]) -> tuple[float, Any]:
    """Run ``build`` ``reps`` times and keep the last result.

    Returns the median wall time of the set-ups and the kept state.
    Each earlier state is torn down before the next build starts, so
    peak memory is that of one set-up.  Spans and counts are recorded
    for the kept set-up only, so per-layer values describe one set-up.
    The garbage collector runs before each set-up and after the last, so
    no timed phase pays for collecting what the benchmark left behind.
    """
    times = []
    state = None
    for rep in range(reps):
        if state is not None:
            teardown(state)
            state = None
        root = ctx.workdir / f"setup{rep}"
        root.mkdir(parents=True)
        kept = rep == reps - 1
        counts = ctx.tracer.counts.copy()
        gc.collect()
        with ctx.tracer.paused(not kept):
            start = time.perf_counter()
            state = build(root)
            times.append(time.perf_counter() - start)
        if not kept:
            ctx.tracer.counts = counts
    gc.collect()
    return statistics.median(times), state


@dataclass
class WalStats:
    """What the workload's inserts cost the write-ahead log.

    ``records`` and ``fsyncs`` count every append of the run; ``bytes``
    and ``points`` cover the windows passed to :meth:`add`, so their
    ratio is the log's size per point.
    """

    records: int = 0
    fsyncs: int = 0
    bytes: int = 0
    points: int = 0

    def add(self, store: ShardedTimeSeriesStore, points: int,
            since: int = len(WAL_MAGIC)) -> None:
        """Count a store's log after ``flush``; ``since`` is its size
        before the ``points`` were appended (an empty log by default)."""
        self.records += store.wal.records_written
        self.fsyncs += store.wal.sync_count
        self.bytes += store.wal.path.stat().st_size - since
        self.points += points

    def layers(self) -> dict[str, float]:
        return {"tsdb.wal.records": self.records,
                "tsdb.wal.fsyncs": self.fsyncs,
                "tsdb.wal.bytes_per_point": self.bytes / max(1, self.points)}


def insert(tracer: Tracer, store, series, ts, vals) -> None:
    """One ``insert_array``, traced as ``tsdb.insert``."""
    with tracer.span("tsdb.insert"):
        store.insert_array(series, ts, vals)
    tracer.count("tsdb.insert")


def checkpoint(tracer: Tracer, store: ShardedTimeSeriesStore,
               snap: Path) -> int:
    with tracer.span("tsdb.checkpoint"):
        n_bytes = store.checkpoint(snap)
    tracer.count("tsdb.checkpoint")
    tracer.count("tsdb.checkpoint.bytes", n_bytes)
    return n_bytes


def load_through_wal(tracer: Tracer, arrays: Iterable[tuple], wal: Path,
                     snap: Path, stats: WalStats) -> ShardedTimeSeriesStore:
    """Ingest ``(series, ts, vals)`` through a WAL, checkpoint, reopen.

    Returns the reopened store, which recovered from the snapshot.
    """
    store = ShardedTimeSeriesStore(wal=wal)
    points = 0
    for series, ts, vals in arrays:
        insert(tracer, store, series, ts, vals)
        points += int(ts.size)
    store.flush()
    stats.add(store, points)
    checkpoint(tracer, store, snap)
    store.close()
    with tracer.span("tsdb.open"):
        return ShardedTimeSeriesStore.open(wal, snapshot=snap)


def reopen(tracer: Tracer, files: list[tuple[Path, Path]], reps: int,
           close: Callable[[], None]) -> tuple[float, list]:
    """Median time to reopen every ``(wal, snapshot)`` pair.

    ``close`` closes whatever holds the files open first.  Returns the
    median and the stores of the last reopening.
    """
    times = []
    stores: list[ShardedTimeSeriesStore] = []
    close()
    for _ in range(reps):
        for store in stores:
            store.close()
        stores = []
        gc.collect()
        start = time.perf_counter()
        for wal, snap in files:
            with tracer.span("tsdb.open"):
                stores.append(ShardedTimeSeriesStore.open(wal, snapshot=snap))
        times.append(time.perf_counter() - start)
    return statistics.median(times), stores


def open_layers(tracer: Tracer, files: list[tuple[Path, Path]]) -> None:
    """Time the two halves of ``open``: snapshot load and WAL replay.

    The files must not be open elsewhere.
    """
    for wal, snap in files:
        with tracer.span("tsdb.open.snapshot"):
            read_store(snap)
        with WriteAheadLog(wal) as log:
            with tracer.span("tsdb.open.wal_replay"):
                log.replay_into(TimeSeriesStore())


def chunks_per_series(stores: list) -> float:
    """Mean sealed chunks per series: the zone maps a checkpoint writes."""
    chunks = series = 0
    for store in stores:
        snapshot = store.snapshot()
        for sid in snapshot.series_ids():
            chunks += len(snapshot.chunk_stats(sid))
            series += 1
    return chunks / max(1, series)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
