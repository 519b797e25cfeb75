"""Property-based row-vs-columnar executor parity.

Generates random tsdb-shaped column-backed tables and random
SELECT/WHERE/GROUP BY statements drawn from the dialect, then asserts
the columnar executor and the row-at-a-time reference produce identical
tables: same column names, same row order, same cell values (NaN cells
compare equal to NaN — both paths must produce NaN in the same places).

The generator intentionally strays outside the columnar-compilable
subset (HAVING, scalar functions, ORDER BY on plain selects, NaN values
under MIN/MAX); those cases exercise the fallback seam, which must be
invisible in the output.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.sql.catalog import Database
from repro.sql.table import Table
from repro.tsdb.adapter import (
    observations_to_table,
    register_store,
    tsdb_table,
)
from repro.tsdb.model import SeriesId
from repro.tsdb.storage import TimeSeriesStore

METRICS = ["cpu", "disk", "net"]
HOSTS = ["h0", "h1", None]
NOTES = [None, "n0", "n1", "long-note"]

NUM_COLS = ["ts", "v"]
STR_COLS = ["metric", "note"]
ALL_COLS = NUM_COLS + STR_COLS


@st.composite
def tsdb_tables(draw):
    n = draw(st.integers(0, 25))
    ts = np.asarray(
        sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))),
        dtype=np.int64).reshape(n)
    vals = draw(st.lists(
        st.one_of(st.floats(-50, 50), st.just(float("nan"))),
        min_size=n, max_size=n))
    v = np.asarray(vals, dtype=np.float64).reshape(n)
    metric = np.empty(n, dtype=object)
    note = np.empty(n, dtype=object)
    tag = np.empty(n, dtype=object)
    for i in range(n):
        metric[i] = draw(st.sampled_from(METRICS))
        note[i] = draw(st.sampled_from(NOTES))
        host = draw(st.sampled_from(HOSTS))
        tag[i] = {} if host is None else {"host": host}
    return Table.from_columns(["ts", "metric", "tag", "v", "note"],
                              [ts, metric, tag, v, note])


@st.composite
def predicates(draw, depth: int = 2):
    kind = draw(st.sampled_from(
        ["cmp", "between", "in", "null", "like", "sub", "bool"]
        + (["and", "or", "not"] if depth > 0 else [])))
    if kind == "and" or kind == "or":
        left = draw(predicates(depth=depth - 1))
        right = draw(predicates(depth=depth - 1))
        return f"({left} {kind.upper()} {right})"
    if kind == "not":
        return f"(NOT {draw(predicates(depth=depth - 1))})"
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        col = draw(st.sampled_from(NUM_COLS))
        use_arith = draw(st.booleans())
        lhs = col if not use_arith else (
            f"({col} {draw(st.sampled_from(['+', '-', '*', '/', '%']))} "
            f"{draw(st.integers(-3, 3))})")
        return f"({lhs} {op} {draw(st.integers(-20, 20))})"
    if kind == "between":
        lo = draw(st.integers(-5, 20))
        neg = draw(st.booleans())
        col = draw(st.sampled_from(NUM_COLS))
        return (f"({col} {'NOT ' if neg else ''}BETWEEN {lo} "
                f"AND {lo + draw(st.integers(0, 15))})")
    if kind == "in":
        col = draw(st.sampled_from(STR_COLS))
        neg = draw(st.booleans())
        items = draw(st.lists(
            st.sampled_from(["'cpu'", "'n0'", "'x'", "NULL"]),
            min_size=1, max_size=3))
        return f"({col} {'NOT ' if neg else ''}IN ({', '.join(items)}))"
    if kind == "null":
        col = draw(st.sampled_from(ALL_COLS))
        neg = draw(st.booleans())
        return f"({col} IS {'NOT ' if neg else ''}NULL)"
    if kind == "like":
        col = draw(st.sampled_from(STR_COLS))
        pattern = draw(st.sampled_from(["c%", "n_", "%o%", ""]))
        neg = draw(st.booleans())
        return f"({col} {'NOT ' if neg else ''}LIKE '{pattern}')"
    if kind == "sub":
        op = draw(st.sampled_from(["= 'h0'", "IS NULL", "<> 'h1'"]))
        return f"(tag['host'] {op})"
    value = draw(st.sampled_from(
        ["TRUE", "FALSE", "NULL", "(metric = 'cpu')"]))
    return f"({value})"


WINDOW_ITEMS = [
    "ROW_NUMBER() OVER (PARTITION BY metric ORDER BY ts) AS rn",
    "RANK(v) OVER (PARTITION BY metric) AS rk",
    "LAG(v) OVER (ORDER BY ts) AS pv",
    "LEAD(v, 2, 0.0) OVER (PARTITION BY metric ORDER BY ts DESC) AS nv",
    "LAG(note, 1, 'none') OVER (PARTITION BY tag ORDER BY ts) AS pn",
    "MOVING_AVG(v, 3) OVER (PARTITION BY metric ORDER BY ts) AS ma",
]


@st.composite
def statements(draw):
    where = f" WHERE {draw(predicates())}" if draw(st.booleans()) else ""
    if draw(st.booleans()):
        # Aggregate query.
        keys = draw(st.lists(st.sampled_from(ALL_COLS + ["tag"]),
                             min_size=1, max_size=2, unique=True))
        aggs = draw(st.lists(st.sampled_from(
            ["COUNT(*) AS n", "SUM(v) AS s", "AVG(v) AS a",
             "MIN(v) AS lo", "MAX(v) AS hi", "MIN(ts) AS t0",
             "COUNT(note) AS cn", "MEDIAN(v) AS md",
             "SUM(v * v) AS sq", "SUM(v) / COUNT(*) AS r",
             "MAX(ts) - MIN(ts) AS span", "COUNT(*) + 1 AS n1"]),
            min_size=1, max_size=3, unique=True))
        items = ", ".join(keys + aggs)
        having = draw(st.sampled_from(
            ["", "", "", " HAVING COUNT(*) > 1", " HAVING SUM(v) > 0",
             " HAVING MIN(ts) >= 2 AND COUNT(*) >= 1"]))
        order = ""
        if draw(st.booleans()):
            pool = keys + [agg.rpartition(" AS ")[2] for agg in aggs]
            order_keys = draw(st.lists(st.sampled_from(pool),
                                       min_size=1, max_size=2, unique=True))
            order = " ORDER BY " + ", ".join(
                key + draw(st.sampled_from(["", " ASC", " DESC"]))
                for key in order_keys)
        return (f"SELECT {items} FROM t{where} "
                f"GROUP BY {', '.join(keys)}{having}{order}")
    # Plain select.
    exprs = draw(st.lists(st.sampled_from(
        ["ts", "v", "metric", "note", "tag", "v * 2 AS dv",
         "ts + v AS tv", "tag['host'] AS host", "UPPER(metric) AS um",
         "CAST(ts AS DOUBLE) AS tsd"] + WINDOW_ITEMS),
        min_size=1, max_size=4, unique=True))
    order = ""
    if draw(st.integers(0, 2)) == 0:
        n_keys = draw(st.integers(1, 2))
        keys = []
        for _ in range(n_keys):
            base = draw(st.one_of(
                st.sampled_from(["ts", "v", "metric", "note"]),
                st.integers(1, len(exprs))))
            keys.append(
                f"{base}{draw(st.sampled_from(['', ' ASC', ' DESC']))}")
        order = " ORDER BY " + ", ".join(keys)
    limit = f" LIMIT {draw(st.integers(0, 10))}" \
        if draw(st.booleans()) else ""
    distinct = "DISTINCT " if draw(st.integers(0, 4)) == 0 else ""
    return f"SELECT {distinct}{', '.join(exprs)} FROM t{where}{order}{limit}"


def _cells_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return a == b and type(a) is type(b)


@given(tsdb_tables(), statements())
@settings(max_examples=200, deadline=None)
def test_columnar_matches_row_executor(table, query):
    fast, slow = Database(), Database(columnar=False)
    fast.register("t", table)
    slow.register("t", table)
    result = fast.sql(query)
    reference = slow.sql(query)
    assert result.columns == reference.columns, query
    assert len(result.rows) == len(reference.rows), query
    for got, want in zip(result.rows, reference.rows):
        assert len(got) == len(want), query
        for ca, cb in zip(got, want):
            assert _cells_equal(ca, cb), (
                f"cell mismatch {ca!r} vs {cb!r} for {query!r}")


@st.composite
def dim_tables(draw):
    n = draw(st.integers(0, 8))
    name = np.empty(n, dtype=object)
    owner = np.empty(n, dtype=object)
    for i in range(n):
        name[i] = draw(st.sampled_from(METRICS + ["other", None]))
        owner[i] = draw(st.sampled_from(["alice", "bob", None]))
    w = np.asarray(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                   dtype=np.int64).reshape(n)
    return Table.from_columns(["name", "owner", "w"], [name, owner, w])


@st.composite
def join_queries(draw):
    kind = draw(st.sampled_from(
        ["JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN",
         "RIGHT JOIN", "FULL OUTER JOIN"]))
    condition = "t.metric = d.name"
    if draw(st.booleans()):
        condition += " AND t.ts % 3 = d.w % 3"
    condition += draw(st.sampled_from(
        ["", " AND t.v > 0", " AND d.w > 1", " AND t.ts < d.w * 10"]))
    items = draw(st.sampled_from(
        ["t.ts, t.metric, d.owner, d.w", "*", "t.v, d.name, d.w"]))
    where = draw(st.sampled_from(["", " WHERE t.v > 0", " WHERE d.w > 0"]))
    return f"SELECT {items} FROM t {kind} d ON {condition}{where}"


@given(tsdb_tables(), dim_tables(), join_queries())
@settings(max_examples=150, deadline=None)
def test_join_parity(fact, dim, query):
    fast, slow = Database(), Database(columnar=False)
    for db in (fast, slow):
        db.register("t", fact)
        db.register("d", dim)
    result = fast.sql(query)
    reference = slow.sql(query)
    assert result.columns == reference.columns, query
    assert len(result.rows) == len(reference.rows), query
    for got, want in zip(result.rows, reference.rows):
        for ca, cb in zip(got, want):
            assert _cells_equal(ca, cb), (
                f"cell mismatch {ca!r} vs {cb!r} for {query!r}")


@given(tsdb_tables(), predicates())
@settings(max_examples=150, deadline=None)
def test_filter_parity_and_optimizer_interplay(table, predicate):
    """WHERE parity with and without the optimizer's constant folding."""
    query = f"SELECT ts, metric, v FROM t WHERE {predicate}"
    results = []
    for columnar in (True, False):
        for optimize in (True, False):
            db = Database(optimize_queries=optimize, columnar=columnar)
            db.register("t", table)
            results.append(db.sql(query))
    first = results[0]
    for other in results[1:]:
        assert other.columns == first.columns, query
        assert len(other.rows) == len(first.rows), query
        for got, want in zip(other.rows, first.rows):
            for ca, cb in zip(got, want):
                assert _cells_equal(ca, cb), query


# ---------------------------------------------------------------------------
# Dictionary-encoded tsdb columns: tables from observations_to_table
# ---------------------------------------------------------------------------
SERIES_NAMES = ["cpu", "disk", "net", "mem"]
#: Name constants both inside and outside every drawn dictionary.
NAME_CONSTS = ["'cpu'", "'disk'", "'aaa'", "'cpx'", "'zzz'", "''"]


@st.composite
def series_sets(draw):
    """Per-series ``(SeriesId, timestamps, values)``; tags may be absent."""
    out, seen = [], set()
    for _ in range(draw(st.integers(0, 7))):
        tags = {}
        host = draw(st.sampled_from(["h0", "h1", "h2", None]))
        if host is not None:
            tags["host"] = host
        if draw(st.booleans()):
            tags["dc"] = draw(st.sampled_from(["east", "west"]))
        series = SeriesId.make(draw(st.sampled_from(SERIES_NAMES)), tags)
        if series in seen:
            continue
        seen.add(series)
        ts = np.asarray(sorted(set(draw(st.lists(
            st.integers(0, 40), max_size=14)))), dtype=np.int64)
        vals = np.asarray(draw(st.lists(
            st.floats(-50, 50), min_size=ts.size, max_size=ts.size)),
            dtype=np.float64).reshape(ts.size)
        out.append((series, ts, vals))
    return out


@st.composite
def dict_predicates(draw, depth: int = 1):
    kind = draw(st.sampled_from(
        ["cmp", "in", "like", "between", "tag", "tag_null", "numeric"]
        + (["and", "or", "not"] if depth > 0 else [])))
    if kind in ("and", "or"):
        left = draw(dict_predicates(depth=depth - 1))
        right = draw(dict_predicates(depth=depth - 1))
        return f"({left} {kind.upper()} {right})"
    if kind == "not":
        return f"(NOT {draw(dict_predicates(depth=depth - 1))})"
    neg = "NOT " if draw(st.booleans()) else ""
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        const = draw(st.sampled_from(NAME_CONSTS))
        if draw(st.booleans()):
            return f"({const} {op} metric_name)"
        return f"(metric_name {op} {const})"
    if kind == "in":
        items = draw(st.lists(st.sampled_from(NAME_CONSTS + ["NULL"]),
                              min_size=1, max_size=3))
        return f"(metric_name {neg}IN ({', '.join(items)}))"
    if kind == "like":
        pattern = draw(st.sampled_from(["c%", "%s%", "_pu", "zz%", "%"]))
        return f"(metric_name {neg}LIKE '{pattern}')"
    if kind == "between":
        low, high = sorted(draw(st.lists(st.sampled_from(NAME_CONSTS),
                                         min_size=2, max_size=2)))
        return f"(metric_name {neg}BETWEEN {low} AND {high})"
    if kind == "tag":
        op = draw(st.sampled_from(["=", "<>", "<"]))
        key = draw(st.sampled_from(["host", "dc", "ghost"]))
        value = draw(st.sampled_from(["'h1'", "'east'", "'zz'"]))
        return f"(tag['{key}'] {op} {value})"
    if kind == "tag_null":
        key = draw(st.sampled_from(["host", "dc"]))
        return f"(tag['{key}'] IS {neg}NULL)"
    return draw(st.sampled_from(
        ["(timestamp BETWEEN 3 AND 20)", "(value > 0)", "(timestamp < 9)"]))


DICT_STATEMENTS = [
    "SELECT timestamp, metric_name, tag, value FROM tsdb{where}",
    "SELECT metric_name, tag['host'] AS h, value FROM tsdb{where} "
    "ORDER BY metric_name{dir}, h{dir}, timestamp",
    "SELECT tag['dc'] AS dc, timestamp FROM tsdb{where} "
    "ORDER BY dc{dir}, timestamp{dir}",
    "SELECT metric_name, COUNT(*) AS n, SUM(value) AS s FROM tsdb{where} "
    "GROUP BY metric_name ORDER BY metric_name{dir}",
    "SELECT metric_name, AVG(value) AS v FROM tsdb{where} "
    "GROUP BY metric_name",
    "SELECT tag['host'] AS h, COUNT(*) AS n FROM tsdb{where} "
    "GROUP BY tag['host'] ORDER BY h{dir}",
    "SELECT metric_name, tag['host'] AS h, COUNT(*) AS n, SUM(value) AS s "
    "FROM tsdb{where} GROUP BY metric_name, tag['host']",
    "SELECT metric_name, tag['host'] AS h, COUNT(tag['dc']) AS n "
    "FROM tsdb{where} GROUP BY metric_name, tag['host'] "
    "ORDER BY n{dir}, metric_name{dir}",
    "SELECT h, COUNT(*) AS n FROM (SELECT tag['host'] AS h, value "
    "FROM tsdb{where}) GROUP BY h ORDER BY h{dir}",
    "SELECT metric_name, RANK(metric_name) OVER (PARTITION BY tag['host']) "
    "AS r FROM tsdb{where}",
    "SELECT t.timestamp, t.metric_name, d.owner FROM tsdb t "
    "JOIN owners d ON t.metric_name = d.name{where}",
    "SELECT t.metric_name, d.owner FROM tsdb t "
    "LEFT JOIN owners d ON t.metric_name = d.name{where} "
    "ORDER BY t.metric_name{dir}",
]

#: Join partner: one owner per name, a name absent from the store, and
#: a name not every drawn store holds.
OWNERS = Table.from_columns(
    ["name", "owner"],
    [np.asarray(["cpu", "net", "zzz", "mem"], dtype=object),
     np.asarray(["alice", "bob", "carol", "dave"], dtype=object)])


def _exploded(store) -> Table:
    """The tsdb relation by per-point explosion: the independent oracle.

    One tuple per observation, stably sorted by ``(timestamp,
    metric_name)`` over series in ``series_ids()`` order, each series'
    rows sharing one tag dict.
    """
    rows = []
    for series in store.series_ids():
        tags = series.tag_map()
        ts, vals = store.arrays(series)
        rows.extend((t, series.name, tags, v)
                    for t, v in zip(ts.tolist(), vals.tolist()))
    rows.sort(key=lambda row: (row[0], row[1]))
    return Table(["timestamp", "metric_name", "tag", "value"], rows)


def _cell_bits(cell):
    if isinstance(cell, float):
        return ("float", cell.hex())
    return (type(cell).__name__, cell)


def _table_bits(table: Table) -> tuple:
    return (tuple(table.columns),
            tuple(tuple(_cell_bits(c) for c in row) for row in table.rows))


def _store_of(triples) -> TimeSeriesStore:
    store = TimeSeriesStore()
    for series, ts, vals in triples:
        store.insert_array(series, ts, vals)
    return store


@given(series_sets(), st.sampled_from(DICT_STATEMENTS),
       st.one_of(st.none(), dict_predicates()),
       st.sampled_from(["", " ASC", " DESC"]))
@settings(max_examples=300, deadline=None)
def test_dictionary_columns_match_row_interpreter(triples, template, where,
                                                  direction):
    """Pruned columnar, unpruned columnar and exploded-row results agree.

    The planner's small-input cut-over is lifted so every eligible stage
    of these small tables really runs columnar.
    """
    if where is not None and " t " in template:
        where = where.replace("metric_name", "t.metric_name") \
            .replace("tag[", "t.tag[").replace("timestamp", "t.timestamp") \
            .replace("value", "t.value")
    query = template.format(where=f" WHERE {where}" if where else "",
                            dir=direction)
    store = _store_of(triples)
    pruned = Database()
    register_store(pruned, store)
    unpruned = Database()
    unpruned.register("tsdb", tsdb_table(store))
    reference = Database(columnar=False)
    reference.register("tsdb", _exploded(store))
    for db in (pruned, unpruned, reference):
        db.register("owners", OWNERS)
    want = _table_bits(reference.sql(query))
    with mock.patch("repro.sql.planner.COLUMNAR_MIN_ROWS", 0):
        assert _table_bits(pruned.sql(query)) == want, query
        assert _table_bits(unpruned.sql(query)) == want, query


@given(series_sets())
@settings(max_examples=100, deadline=None)
def test_dictionary_rows_share_one_tag_dict_per_series(triples):
    store = _store_of(triples)
    table = observations_to_table(store.iter_arrays())
    assert _table_bits(table) == _table_bits(_exploded(store))
    by_series: dict = {}
    for _, name, tags, _ in table.rows:
        by_series.setdefault((name, tuple(sorted(tags.items()))),
                             []).append(tags)
    assert len(by_series) == sum(1 for _, ts, _ in triples if ts.size)
    for shared in by_series.values():
        assert all(tags is shared[0] for tags in shared)
    column = table.column("tag")
    assert all(a is b for a, b in zip(column, (row[2] for row in table.rows)))


def test_dictionary_templates_run_columnar_without_fallback():
    """Every template, on a store big enough for the planner to pick the
    columnar engine, matches the oracle with no columnar fallback."""
    rng = np.random.default_rng(3)
    triples = []
    for i, name in enumerate(SERIES_NAMES):
        for host in ("h0", "h1", None):
            tags = {} if host is None else {"host": host}
            if i % 2:
                tags["dc"] = "east"
            ts = np.arange(i, 40, 2, dtype=np.int64)
            triples.append((SeriesId.make(name, tags), ts,
                            rng.standard_normal(ts.size)))
    store = _store_of(triples)
    reference = Database(columnar=False)
    reference.register("tsdb", _exploded(store))
    reference.register("owners", OWNERS)
    wheres = ["", " WHERE metric_name IN ('cpu', 'zzz')",
              " WHERE tag['host'] IS NULL", " WHERE metric_name LIKE '%e%'",
              " WHERE metric_name BETWEEN 'aaa' AND 'disk'"]
    for template in DICT_STATEMENTS:
        for where in wheres:
            if " t " in template:
                where = where.replace("metric_name", "t.metric_name") \
                    .replace("tag[", "t.tag[")
            query = template.format(where=where, dir=" DESC")
            db = Database()
            register_store(db, store)
            db.register("owners", OWNERS)
            assert _table_bits(db.sql(query)) == \
                _table_bits(reference.sql(query)), query
            assert db.cache_info()["columnar_fallbacks"] == {}, query
