"""Database scan/stats caches: per-provider bounds + version eviction."""

import numpy as np

from repro.sql import Database
from repro.sql.catalog import _SCAN_CACHE_SIZE
from repro.sql.scan import ScanPredicate
from repro.tsdb.adapter import register_store
from repro.tsdb.model import SeriesId
from repro.tsdb.sharded import ShardedTimeSeriesStore
from repro.tsdb.storage import TimeSeriesStore


def make_store(n_series=4, n=128):
    store = TimeSeriesStore()
    ts = np.arange(n, dtype=np.int64)
    for i in range(n_series):
        store.insert_array(SeriesId.make(f"metric_{i}", {"host": f"h{i}"}),
                           ts, np.linspace(0.0, float(i + 1), n))
    return store


def pred(lo, hi):
    return ScanPredicate(ranges=(("timestamp", lo, hi),))


def test_scan_cache_hit_on_repeat_predicate():
    db = Database()
    register_store(db, make_store())
    first = db.scan_table("tsdb", pred(0, 10))
    second = db.scan_table("tsdb", pred(0, 10))
    assert first is not None
    assert second[0] is first[0]
    info = db.cache_info()
    assert info["scan_hits"] == 1 and info["scan_misses"] == 1


def test_scan_cache_bounded_per_provider():
    db = Database()
    register_store(db, make_store(), name="hot")
    register_store(db, make_store(), name="cold")
    db.scan_table("hot", pred(0, 1))
    # A predicate storm on "cold" overflows only its own LRU...
    for i in range(3 * _SCAN_CACHE_SIZE):
        db.scan_table("cold", pred(i, i + 1))
    info = db.cache_info()
    assert info["scan_entries"]["cold"] == _SCAN_CACHE_SIZE
    # ...while "hot"'s entry survives untouched and still hits.
    assert info["scan_entries"]["hot"] == 1
    before = info["scan_hits"]
    db.scan_table("hot", pred(0, 1))
    assert db.cache_info()["scan_hits"] == before + 1


def test_superseded_version_entries_evicted_on_next_scan():
    db = Database()
    store = make_store()
    register_store(db, store)
    for i in range(4):
        db.scan_table("tsdb", pred(i, i + 10))
    assert db.cache_info()["scan_entries"]["tsdb"] == 4
    store.insert(SeriesId.make("metric_0", {"host": "h0"}), 10_000, 1.0)
    db.scan_table("tsdb", pred(0, 10))
    # The version moved: every old-version entry is gone, only the new
    # scan remains — no squatting until LRU pressure.
    assert db.cache_info()["scan_entries"]["tsdb"] == 1


def test_scan_results_track_store_version():
    db = Database()
    store = make_store(n_series=1)
    register_store(db, store)
    table, _ = db.scan_table("tsdb", pred(0, 10_000))
    rows_before = len(table)
    store.insert(SeriesId.make("metric_0", {"host": "h0"}), 10_000, 42.0)
    table, _ = db.scan_table("tsdb", pred(0, 10_000))
    assert len(table) == rows_before + 1


def test_drop_clears_provider_caches():
    db = Database()
    register_store(db, make_store())
    db.scan_table("tsdb", pred(0, 10))
    db.sql("SELECT COUNT(*) FROM tsdb")
    db.drop("tsdb")
    assert db.cache_info()["scan_entries"] == {}


#: The dashboard panel shapes: GROUP BY name, a time-range cut, tag
#: cuts and a point filter, all over the dictionary-encoded columns.
PANELS = [
    "SELECT metric_name, COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "GROUP BY metric_name ORDER BY metric_name",
    "SELECT metric_name, MIN(value) AS lo, MAX(value) AS hi FROM tsdb "
    "WHERE timestamp BETWEEN 64 AND 512 GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT metric_name, COUNT(*) AS n FROM tsdb "
    "WHERE tag['host'] = 'h1' GROUP BY metric_name ORDER BY metric_name",
    "SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'target_metric'",
    "SELECT metric_name, AVG(value) AS v FROM tsdb "
    "WHERE tag['host'] = 'h0' GROUP BY metric_name ORDER BY v DESC",
]


def make_sharded_store(hosts=4, n=600):
    rng = np.random.default_rng(7)
    store = ShardedTimeSeriesStore(n_shards=4)
    ts = np.arange(n, dtype=np.int64)
    for h in range(hosts):
        for name in ("cause_metric", "target_metric", "decoy_0", "decoy_1"):
            store.insert_array(SeriesId.make(name, {"host": f"h{h}"}),
                               ts, rng.standard_normal(n))
    return store


def test_dashboard_panels_never_fall_back():
    store = make_sharded_store()
    db = Database()
    register_store(db, store)
    reference = Database(columnar=False)
    register_store(reference, store)
    for query in PANELS:
        assert db.sql(query) == reference.sql(query), query
    assert db.cache_info()["columnar_fallbacks"] == {}


def test_fallbacks_counted_per_stage_and_reason():
    store = make_store()
    store.insert_array(SeriesId.make("metric_0", {"host": "h0"}),
                       np.asarray([500], dtype=np.int64),
                       np.asarray([np.nan]))
    db = Database()
    register_store(db, store)
    for _ in range(2):
        db.sql("SELECT metric_name, MIN(value) AS lo FROM tsdb "
               "GROUP BY metric_name")
    assert db.cache_info()["columnar_fallbacks"] == {
        ("aggregate", "MIN/MAX over NaN"): 2}
    assert Database().cache_info()["columnar_fallbacks"] == {}
