"""dashboard_ingest: dashboard refreshes while a collector keeps writing.

Set-up generates 8 hosts x 6 metrics = 48 series x 4,096 points, loads
them through the WAL into a sharded store, checkpoints and reopens it.

The timed loop is one closed-loop client in front of a ``QueryServer``.
Each tick does one collector flush (a 16-point ``insert_array`` per
series, which moves the store to a new version) and then 4 dashboard
refreshes.  A refresh submits the 5 hot panels and 2 range scans that
never repeat together and waits for all 7.  So each version sees 13
distinct queries: the hot panels fit the 256-entry result cache, the 13
do not fit the 8-entry scan cache of the version's ``Database``.

Gates: no result is older than the version observed before its refresh
was submitted, and every result at a sample of versions equals, bitwise,
the same query on a fresh ``Database`` over the result's pinned snapshot.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np
from repro.serve import QueryServer
from repro.sql import Database
from repro.tsdb.adapter import register_store
from repro.tsdb.model import SeriesId
from repro.tsdb.sharded import ShardedTimeSeriesStore

from perfbench.common import (
    Context,
    Outcome,
    WalStats,
    chunks_per_series,
    insert,
    load_through_wal,
    open_layers,
    percentile,
    reopen,
    repeated_setup,
    store_bytes,
    table_fingerprint,
    trace_overhead,
)

WHY = ("The columnar SQL engine, scan/prune and the per-version snapshot "
       "and Database rebuild do the work while scoring is idle; the hot "
       "panels fit the result cache, a version's queries overflow the "
       "scan cache.")

#: The hot panels, refreshed every time (names as in the layer metrics).
PANELS = {
    "group_by_name":
        "SELECT metric_name, COUNT(*) AS n, AVG(value) AS v FROM tsdb "
        "GROUP BY metric_name ORDER BY metric_name",
    "range_group":
        "SELECT metric_name, MIN(value) AS lo, MAX(value) AS hi FROM tsdb "
        "WHERE timestamp BETWEEN 64 AND 512 GROUP BY metric_name "
        "ORDER BY metric_name",
    "tag_cut":
        "SELECT metric_name, COUNT(*) AS n FROM tsdb "
        "WHERE tag['host'] = 'h1' GROUP BY metric_name ORDER BY metric_name",
    "point_filter":
        "SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
        "WHERE metric_name = 'target_metric'",
    "tag_order":
        "SELECT metric_name, AVG(value) AS v FROM tsdb "
        "WHERE tag['host'] = 'h0' GROUP BY metric_name ORDER BY v DESC",
}
COLD_SCANS_PER_REFRESH = 2
REFRESHES_PER_TICK = 4
TICK_POINTS = 16

#: Ticks a 2-core machine serves per second; a run serves
#: ``--seconds * TICKS_PER_SECOND`` ticks, so the store ends every run
#: at the same size.
TICKS_PER_SECOND = 3

CONFIGS = {
    "full": dict(hosts=8, points=4096, setup_reps=7, recover_reps=11,
                 sampled_versions=4, snapshot_probes=4),
    "tiny": dict(hosts=2, points=256, setup_reps=2, recover_reps=2,
                 sampled_versions=2, snapshot_probes=2),
}


def cold_query(i: int) -> str:
    """A range scan nobody asked before and nobody will ask again."""
    lo = 7 * i
    return (f"SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
            f"WHERE timestamp BETWEEN {lo} AND {lo + 96}")


def make_series(seed: int, hosts: int, points: int) -> list[tuple]:
    """Per host: a cause, a target driven by it and four decoys."""
    rng = np.random.default_rng(seed)
    ts = np.arange(points, dtype=np.int64)
    cause = np.cumsum(rng.standard_normal(points))
    out = []
    for h in range(hosts):
        host = {"host": f"h{h}"}
        out.append((SeriesId.make("cause_metric", host), ts,
                    cause + 0.1 * rng.standard_normal(points)))
        out.append((SeriesId.make("target_metric", host), ts,
                    2.0 * cause + 0.2 * rng.standard_normal(points)))
        for d in range(4):
            out.append((SeriesId.make(f"decoy_{d}", host), ts,
                        rng.standard_normal(points)))
    return out


class Collector:
    """The flushes a collector sends, one per tick, made from the seed."""

    def __init__(self, seed: int, series: list[SeriesId], start: int) -> None:
        self._rng = np.random.default_rng([seed, 1])
        self._series = series
        self._next = start

    def flush(self) -> list[tuple]:
        ts = np.arange(self._next, self._next + TICK_POINTS, dtype=np.int64)
        self._next += TICK_POINTS
        vals = self._rng.standard_normal((len(self._series), TICK_POINTS))
        return [(s, ts, vals[i]) for i, s in enumerate(self._series)]


def _build(ctx: Context, config: dict, root: Path) -> dict:
    with ctx.tracer.span("workloads.build"):
        arrays = make_series(ctx.seed, config["hosts"], config["points"])
    wal, snap = root / "store.wal", root / "store.snap"
    stats = WalStats()
    store = load_through_wal(ctx.tracer, arrays, wal, snap, stats)
    return {"root": root, "store": store, "wal": stats,
            "series": [a[0] for a in arrays]}


def _teardown(state: dict) -> None:
    state["store"].close()
    shutil.rmtree(state["root"])


def _refresh(ctx: Context, server: QueryServer, store, cold: int,
             request: str) -> tuple[float, list[dict]]:
    """Submit one burst and wait for every panel; returns its latency."""
    burst = list(PANELS.items()) + [
        ("cold_range", cold_query(cold + k))
        for k in range(COLD_SCANS_PER_REFRESH)]
    floor = store.version
    start = time.perf_counter()
    with ctx.tracer.span("serve.refresh", request=request):
        futures = [(name, query, server.submit_sql(query))
                   for name, query in burst]
        log = []
        for name, query, future in futures:
            entry = dict(name=name, query=query, floor=floor, result=None,
                         error=None)
            try:
                entry["result"] = future.result()
            except Exception as exc:        # counted as a failed request
                entry["error"] = repr(exc)
            log.append(entry)
    return time.perf_counter() - start, log


def _replay(ctx: Context, version_log: list[dict]) -> dict:
    """Re-run one version's distinct queries on a fresh Database.

    This is what the server does on its workers for that version, done
    here so each call is timed; the gate compares against its results.
    """
    tracer = ctx.tracer
    snapshot = version_log[0]["result"].snapshot
    db = Database()
    with tracer.span("sql.register"):
        register_store(db, snapshot)
    answers = {}
    for entry in version_log:
        query = entry["query"]
        if query in answers:
            continue
        start = time.perf_counter()
        with tracer.span(f"sql.panel.{entry['name']}"):
            table = db.sql(query)
        answers[query] = (table, time.perf_counter() - start)
    return {"answers": answers, "cache": db.cache_info()}


def _plan_layers(snapshot) -> dict[str, float]:
    """Rows examined per row returned and pruned chunks, from EXPLAIN."""
    db = Database()
    register_store(db, snapshot)
    examined = returned = scanned = pruned = 0
    for query in list(PANELS.values()) + [cold_query(0)]:
        db.explain(query)
        root = db.last_plan.root
        returned += root.actual_rows or 0
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.scan is not None:
                examined += node.actual_rows or 0
                scanned += node.scan.chunks_scanned
                pruned += node.scan.chunks_pruned
    return {"sql.rows_examined_per_row_returned": examined / max(1, returned),
            "sql.chunks_pruned_frac": pruned / max(1, scanned + pruned)}


def run(ctx: Context) -> Outcome:
    config = CONFIGS[ctx.config]
    tracer = ctx.tracer
    out = Outcome()
    setup_s, state = repeated_setup(
        ctx, config["setup_reps"], lambda root: _build(ctx, config, root),
        _teardown)
    store = state["store"]
    collector = Collector(ctx.seed, state["series"], config["points"])

    # -- timed loop ------------------------------------------------------
    refreshes: list[tuple[bool, float]] = []
    log: list[dict] = []
    failed_flushes = cold = 0
    n_ticks = max(2, round(ctx.seconds * TICKS_PER_SECOND))
    server = QueryServer(store, n_workers=ctx.nproc)
    start = time.perf_counter()
    cpu0 = time.process_time()
    try:
        for tick in range(n_ticks):
            traced = tick % 2 == 0
            with tracer.paused(not traced):
                data = collector.flush()
                try:
                    with tracer.span("tsdb.flush", request=f"t{tick}"):
                        for series, ts, vals in data:
                            insert(tracer, store, series, ts, vals)
                except Exception as exc:    # counted as a failed flush
                    failed_flushes += 1
                    print(f"dashboard_ingest: flush failed: {exc!r}")
                for r in range(REFRESHES_PER_TICK):
                    latency, burst = _refresh(ctx, server, store, cold,
                                              f"t{tick}.r{r}")
                    cold += COLD_SCANS_PER_REFRESH
                    refreshes.append((traced, latency))
                    log.extend(burst)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        serve_stats = server.stats()
    finally:
        server.close()

    # -- gates -------------------------------------------------------------
    served = [e for e in log if e["error"] is None]
    for e in log:
        if e["error"] is not None:
            print(f"dashboard_ingest: request failed: {e['error']}")
    stale = [e for e in served if e["result"].version < e["floor"]]
    by_version: dict[int, list[dict]] = {}
    for e in served:
        by_version.setdefault(e["result"].version, []).append(e)
    versions = sorted(by_version)
    step = max(1, len(versions) // config["sampled_versions"])
    sampled = versions[::step][:config["sampled_versions"]]
    replays = {v: _replay(ctx, by_version[v]) for v in sampled}
    wrong = 0
    overhead = []
    for v in sampled:
        answers = replays[v]["answers"]
        for e in by_version[v]:
            table, seconds = answers[e["query"]]
            result = e["result"]
            if result.snapshot.version != result.version or \
                    table_fingerprint(result.value) != \
                    table_fingerprint(table):
                wrong += 1
            direct = 0.0 if result.cached else seconds
            overhead.append(1e3 * (result.seconds - direct))
    out.attempted = len(log) + n_ticks
    out.failed = len(log) - len(served) + failed_flushes + len(stale) + wrong
    out.gates["no_stale_results"] = not stale
    out.gates["sampled_results_bitwise_equal"] = wrong == 0 and bool(sampled)

    layers = {}
    if tracer.enabled and sampled:
        layers.update(_plan_layers(by_version[sampled[0]][0]["result"]
                                   .snapshot))

    # -- recovery and disk -------------------------------------------------
    store.flush()
    state["wal"].add(store, n_ticks * len(state["series"]) * TICK_POINTS)
    points = store.num_points()
    wal, snap = store.wal.path, state["root"] / "store.snap"
    disk = store_bytes(wal, snap)
    chunks = chunks_per_series([store])
    recover_s, (store,) = reopen(tracer, [(wal, snap)],
                                 config["recover_reps"], store.close)
    store.close()
    if tracer.enabled:
        open_layers(tracer, [(wal, snap)])
        # Snapshot cost at the final size, as the server pays it on the
        # first request after each tick.
        store = ShardedTimeSeriesStore.open(wal, snapshot=snap)
        try:
            for _ in range(config["snapshot_probes"]):
                for series, ts, vals in collector.flush():
                    store.insert_array(series, ts, vals)
                with tracer.span("tsdb.snapshot"):
                    store.snapshot()
                tracer.count("tsdb.snapshot")
        finally:
            store.close()

    latencies = [1e3 * lat for _, lat in refreshes]
    out.metrics = {
        "setup_s": setup_s,
        "op_p50_ms": percentile(latencies, 50),
        "op_tail_ms": percentile(latencies, 90),
        "throughput": len(served) / wall,
        "disk_bytes_per_point": disk / points,
    }
    out.aliases = {"op_p50_ms": "refresh_p50_ms",
                   "op_tail_ms": "refresh_p90_ms",
                   "throughput": "sql_qps"}

    cache = serve_stats["cache"]
    layers.update({
        **state["wal"].layers(),
        "tsdb.chunks_per_series": chunks,
        "tsdb.open.recover_s": recover_s,
        "sql.scan_cache.hits": sum(r["cache"]["scan_hits"]
                                   for r in replays.values()),
        "sql.scan_cache.misses": sum(r["cache"]["scan_misses"]
                                     for r in replays.values()),
        "serve.cache.hits": cache["hits"],
        "serve.cache.misses": cache["misses"],
        "serve.cache.hit_ratio":
            cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.cache.invalidations": cache["invalidations"],
        "serve.versions_pinned": len(versions),
        "serve.overhead_p50_ms": percentile(overhead, 50),
        "proc.cpu_util": cpu / wall,
        **trace_overhead([1e3 * lat for t, lat in refreshes if t],
                         [1e3 * lat for t, lat in refreshes if not t]),
    })
    out.layers = layers
    out.record = {
        "series": len(state["series"]),
        "points_at_start": len(state["series"]) * config["points"],
        "ticks": n_ticks,
        "refreshes": len(refreshes),
        "sql_requests": len(log),
        "hot_panels": len(PANELS),
        "distinct_queries_per_version":
            len(PANELS) + REFRESHES_PER_TICK * COLD_SCANS_PER_REFRESH,
        "versions_pinned": len(versions),
        "sampled_versions": len(sampled),
        "recover_s": recover_s,
        "tail_percentile": 90,
    }
    return out
