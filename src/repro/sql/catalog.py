"""Database facade: table catalog, UDF registry, query entry point.

Mirrors the role of the Spark SQL session in the paper: external data
sources register tables (the ``tsdb`` adapter, feature family tables,
inventory/machine databases for metadata joins), users register UDFs such
as ``hostgroup``, and intermediate results are saved as temporary tables
tied to the interactive session.

Every query is planned before execution (:mod:`repro.sql.planner`):
catalog statistics — provider-supplied for scannable tables, one-pass
cached summaries otherwise — drive per-stage cardinality estimates, the
columnar-vs-row engine choice, and join build sides; scannable
providers additionally receive the sargable part of the WHERE so they
can prune series and sealed chunks before materialising anything.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from repro.sql.errors import SchemaError
from repro.sql.executor import Executor
from repro.sql.nodes import Node
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Plan, Planner
from repro.sql.scan import ScanPredicate, ScanReport
from repro.sql.stats import TableStats, table_stats
from repro.sql.table import Table

TableProvider = Callable[[], Table]
ScanFn = Callable[[ScanPredicate], "tuple[Table, ScanReport]"]

#: Pruned scan results are cached per (version, predicate), bounded
#: *per provider* — a dashboard re-issuing the same selective query hits
#: memory, the cap bounds the footprint when predicates vary, and one
#: provider's cold-scan churn can never evict another's hot entries.
_SCAN_CACHE_SIZE = 8


class Database:
    """A catalog of named tables plus UDFs, with a ``sql()`` entry point.

    ``columnar=False`` disables the vectorized execution tier and runs
    every query through the row-at-a-time reference interpreter; the
    parity tests and ``benchmarks/bench_sql_columnar.py`` use it as the
    baseline the fast path must match bit for bit.  The planner runs in
    both modes (both executors follow the same plan, so physical
    decisions like join build side never change observable results).
    """

    def __init__(self, optimize_queries: bool = True,
                 columnar: bool = True) -> None:
        self._tables: dict[str, Table] = {}
        self._providers: dict[str, TableProvider] = {}
        self._versioned: dict[str, tuple[TableProvider,
                                         Callable[[], Any]]] = {}
        self._version_cache: dict[str, tuple[Any, Table]] = {}
        self._scan_fns: dict[str, ScanFn] = {}
        self._stats_fns: dict[str, Callable[[], TableStats]] = {}
        self._stats_cache: dict[str, tuple[Any, TableStats]] = {}
        self._scan_cache: dict[str, OrderedDict[
            tuple, tuple[Any, Table, ScanReport]]] = {}
        self._scan_hits = 0
        self._scan_misses = 0
        self._fallbacks: dict[tuple[str, str], int] = {}
        # Serving runs many worker threads through one Database; the
        # version/stats/scan caches mutate on the read path, so they
        # share one leaf lock (never held across provider calls).
        self._cache_lock = threading.Lock()
        self._udfs: dict[str, Callable[..., Any]] = {}
        self._optimize = optimize_queries
        self._columnar = columnar
        self.last_plan: Plan | None = None

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def register(self, name: str, table: Table) -> None:
        """Register (or replace) a materialised table."""
        self._tables[name.lower()] = table
        self._forget_lazy(name.lower())

    def register_provider(self, name: str, provider: TableProvider) -> None:
        """Register a lazy table provider (evaluated on first reference)."""
        key = name.lower()
        self._forget_lazy(key)
        self._providers[key] = provider
        self._tables.pop(key, None)

    def register_versioned_provider(self, name: str, provider: TableProvider,
                                    version_fn: Callable[[], Any]) -> None:
        """Register a lazy provider whose result is keyed on a version.

        The provider materialises on first reference and is re-invoked
        whenever ``version_fn()`` returns a value different from the one
        the cached table was built at — the cache-coherence hook for
        tables backed by a mutable store (``store.version``).
        """
        key = name.lower()
        self._forget_lazy(key)
        self._versioned[key] = (provider, version_fn)
        self._tables.pop(key, None)

    def register_scannable_provider(self, name: str, provider: TableProvider,
                                    version_fn: Callable[[], Any],
                                    scan_fn: ScanFn,
                                    stats_fn: Callable[[], TableStats],
                                    ) -> None:
        """A versioned provider that can additionally *scan* and *describe*.

        ``scan_fn(predicate)`` returns a pruned ``(table, report)`` pair
        — any superset of the rows matching the predicate, in the same
        order the full table presents them (the executor re-applies the
        full WHERE).  ``stats_fn()`` returns planner statistics without
        materialising the table.  Both are keyed on ``version_fn()``
        like the full materialisation.
        """
        self.register_versioned_provider(name, provider, version_fn)
        key = name.lower()
        self._scan_fns[key] = scan_fn
        self._stats_fns[key] = stats_fn

    def register_udf(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a scalar user-defined function, e.g. ``hostgroup``."""
        self._udfs[name.upper()] = fn

    def drop(self, name: str) -> None:
        """Remove a table from the catalog (no error if absent)."""
        self._tables.pop(name.lower(), None)
        self._forget_lazy(name.lower())

    def _forget_lazy(self, key: str) -> None:
        self._providers.pop(key, None)
        self._versioned.pop(key, None)
        self._scan_fns.pop(key, None)
        self._stats_fns.pop(key, None)
        with self._cache_lock:
            self._version_cache.pop(key, None)
            self._stats_cache.pop(key, None)
            self._scan_cache.pop(key, None)

    def table_names(self) -> list[str]:
        """All registered table names, sorted."""
        return sorted(set(self._tables) | set(self._providers)
                      | set(self._versioned))

    def table(self, name: str) -> Table:
        """Resolve a table by name, materialising lazy providers."""
        key = name.lower()
        if key in self._tables:
            return self._tables[key]
        entry = self._versioned.get(key)
        if entry is not None:
            provider, version_fn = entry
            version = version_fn()
            with self._cache_lock:
                cached = self._version_cache.get(key)
                if cached is not None and cached[0] == version:
                    return cached[1]
            # Materialise outside the lock: a concurrent thread racing
            # the same version may duplicate the work, but never blocks
            # every other table's cache behind one materialisation.
            table = provider()
            with self._cache_lock:
                self._version_cache[key] = (version, table)
            return table
        provider = self._providers.get(key)
        if provider is not None:
            table = provider()
            self._tables[key] = table
            return table
        raise SchemaError(
            f"unknown table {name!r}; registered: {self.table_names()}"
        )

    # ------------------------------------------------------------------
    # Planner hooks
    # ------------------------------------------------------------------
    def stats_for(self, name: str) -> TableStats | None:
        """Planner statistics for a table, or ``None`` when unknown.

        Scannable providers answer from storage-level zone maps without
        materialising (cached per version); other registered tables are
        materialised — execution would do so anyway — and summarised
        with a one-pass scan cached on the table object.
        """
        key = name.lower()
        stats_fn = self._stats_fns.get(key)
        if stats_fn is not None:
            _, version_fn = self._versioned[key]
            version = version_fn()
            with self._cache_lock:
                cached = self._stats_cache.get(key)
                if cached is not None and cached[0] == version:
                    return cached[1]
            stats = stats_fn()
            with self._cache_lock:
                self._stats_cache[key] = (version, stats)
            return stats
        try:
            return table_stats(self.table(name))
        except SchemaError:
            return None

    def scan_table(self, name: str, predicate: ScanPredicate
                   ) -> tuple[Table, ScanReport] | None:
        """Pruned scan through a scannable provider, or ``None``.

        Results are cached per ``(version, predicate)`` in a small LRU
        *per provider*, so repeated dashboard queries skip the scan
        entirely.  Entries from superseded versions are evicted as soon
        as a scan observes a newer version — they could never hit again
        (the version is part of the key) and would otherwise squat in
        the LRU until pressure pushed them out.
        """
        key = name.lower()
        scan_fn = self._scan_fns.get(key)
        if scan_fn is None:
            return None
        _, version_fn = self._versioned[key]
        version = version_fn()
        cache_key = (version, predicate)
        with self._cache_lock:
            cache = self._scan_cache.setdefault(key, OrderedDict())
            stale = [k for k, entry in cache.items() if entry[0] != version]
            for k in stale:
                del cache[k]
            hit = cache.get(cache_key)
            if hit is not None:
                cache.move_to_end(cache_key)
                self._scan_hits += 1
                return hit[1], hit[2]
            self._scan_misses += 1
        result = scan_fn(predicate)
        with self._cache_lock:
            cache = self._scan_cache.setdefault(key, OrderedDict())
            cache[cache_key] = (version, result[0], result[1])
            while len(cache) > _SCAN_CACHE_SIZE:
                cache.popitem(last=False)
        return result

    def cache_info(self) -> dict[str, Any]:
        """Scan-cache and engine behaviour of this Database.

        ``scan_hits``/``scan_misses`` total the pruned-scan cache,
        ``scan_entries`` counts its entries per provider, and
        ``columnar_fallbacks`` counts the stages the columnar engine
        handed to the row interpreter, keyed by ``(stage, reason)``.
        """
        with self._cache_lock:
            return {
                "scan_hits": self._scan_hits,
                "scan_misses": self._scan_misses,
                "scan_entries": {k: len(c)
                                 for k, c in self._scan_cache.items()},
                "columnar_fallbacks": dict(self._fallbacks),
            }

    def _count_fallback(self, stage: str, reason: str) -> None:
        with self._cache_lock:
            key = (stage, reason)
            self._fallbacks[key] = self._fallbacks.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def sql(self, query: str) -> Table:
        """Parse, optimise, plan and execute one SQL statement."""
        stmt = parse(query)
        if self._optimize:
            stmt = optimize(stmt)
        return self.execute_ast(stmt)

    def execute_ast(self, stmt: Node) -> Table:
        """Plan and execute an already-parsed statement.

        The plan (with per-stage actuals filled in by the run) stays
        available as :attr:`last_plan` until the next query.
        """
        plan = Planner(self.stats_for).plan(stmt)
        self.last_plan = plan
        executor = Executor(self.table, self._udfs, columnar=self._columnar,
                            plan=plan, scan_table=self.scan_table,
                            on_fallback=self._count_fallback)
        return executor.execute(stmt)

    def create_temp_table(self, name: str, query: str) -> Table:
        """Run a query and save its result under ``name`` (session temp table)."""
        result = self.sql(query)
        self.register(name, result)
        return result

    def explain(self, query: str) -> str:
        """Render the physical plan of a query, with actuals.

        Executes the query (EXPLAIN ANALYZE semantics): every stage
        shows estimated vs actual rows, scans of scannable providers
        additionally show chunks scanned/pruned and the series subset.
        """
        stmt = parse(query)
        if self._optimize:
            stmt = optimize(stmt)
        self.execute_ast(stmt)
        assert self.last_plan is not None
        return self.last_plan.render()
