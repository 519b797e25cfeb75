"""Cost-based physical planning over column statistics.

:class:`Planner` builds the plan tree: it walks an optimised AST once,
bottom-up, estimating the cardinality of every stage from catalog
statistics (zone-map-backed for scannable providers, one-pass cached
summaries for materialised tables) and recording three physical
decisions the executor then follows:

- **engine** — each shape-eligible stage runs columnar only when its
  estimated input amortises the fixed vectorization cost
  (:data:`~repro.sql.stats.COLUMNAR_MIN_ROWS`); the old behaviour was
  "columnar whenever eligible".
- **join build side** — each INNER equi-join hashes (columnar: sorts)
  the side with the smaller estimated cardinality, the per-join form of
  cost-based join ordering.  Probe order is chosen so the output row
  order is bitwise-identical either way.
- **scan pushdown** — sargable WHERE conjuncts over a scannable table
  are extracted so the provider can prune series and sealed chunks
  before any column materialises.

The executor writes *actuals* (rows per stage, chunks scanned/pruned)
back into the same tree, so ``EXPLAIN`` renders estimated vs actual
rows per stage — planner quality is observable and regression-testable.

Stages are keyed by ``(id(ast_node), role)``: the executor runs the
very AST objects the planner walked, so object identity links a running
stage to its plan node even when two stages are structurally equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sql.columnar import (
    aggregate_shape_eligible,
    join_shape_eligible,
    order_shape_eligible,
    predicate_shape_eligible,
    window_shape_eligible,
)
from repro.sql.executor import render
from repro.sql.nodes import (
    ColumnRef,
    FuncCall,
    Join,
    Literal,
    Node,
    Select,
    SelectItem,
    Star,
    SubqueryRef,
    Subscript,
    TableRef,
    Union,
    walk,
)
from repro.sql.scan import ScanReport
from repro.sql.stats import (
    COLUMNAR_MIN_ROWS,
    DEFAULT_SELECTIVITY,
    TableStats,
    estimate_selectivity,
)

StatsFor = Callable[[str], "TableStats | None"]


@dataclass
class PlanNode:
    """One stage of the physical plan.

    ``label`` is the stable EXPLAIN text (``Filter((v > 0))``); costs
    and actuals render as a trailing annotation so existing substring
    expectations keep holding.
    """

    label: str
    tag: str = ""                     # " [columnar-eligible]" or ""
    est_rows: float | None = None
    engine: str | None = None         # "columnar" | "row" | None
    note: str = ""                    # e.g. "build=left"
    actual_rows: int | None = None
    scan: ScanReport | None = None
    children: list["PlanNode"] = field(default_factory=list)

    def annotation(self) -> str:
        parts: list[str] = []
        if self.est_rows is not None:
            parts.append(f"est={_fmt_rows(self.est_rows)} rows")
        if self.actual_rows is not None:
            parts.append(f"actual={self.actual_rows} rows")
        if self.engine is not None:
            parts.append(f"engine={self.engine}")
        if self.note:
            parts.append(self.note)
        if self.scan is not None:
            parts.append(f"chunks={self.scan.chunks_scanned} scanned"
                         f"/{self.scan.chunks_pruned} pruned")
            if self.scan.series_total:
                parts.append(f"series={self.scan.series_scanned}"
                             f"/{self.scan.series_total}")
        return f" ({', '.join(parts)})" if parts else ""


def _fmt_rows(est: float) -> str:
    if est != est or est == float("inf"):
        return "?"
    return str(int(math.ceil(est)))


class Plan:
    """The plan tree plus the stage index the executor records into."""

    def __init__(self, root: PlanNode,
                 stages: dict[tuple[int, str], PlanNode]) -> None:
        self.root = root
        self._stages = stages

    def stage(self, ast_node: Node, role: str) -> PlanNode | None:
        return self._stages.get((id(ast_node), role))

    def record_rows(self, ast_node: Node, role: str, rows: int) -> None:
        node = self.stage(ast_node, role)
        if node is not None:
            node.actual_rows = rows

    def record_scan(self, ast_node: Node, report: ScanReport) -> None:
        node = self.stage(ast_node, "scan")
        if node is not None:
            node.scan = report
            node.actual_rows = report.rows

    def engine_for(self, ast_node: Node, role: str) -> str | None:
        node = self.stage(ast_node, role)
        return node.engine if node is not None else None

    def build_side(self, join_node: Node) -> str:
        node = self.stage(join_node, "join")
        if node is not None and node.note == "build=left":
            return "left"
        return "right"

    def render(self) -> str:
        lines: list[str] = []

        def emit(node: PlanNode, depth: int) -> None:
            lines.append(f"{'  ' * depth}{node.label}{node.tag}"
                         f"{node.annotation()}")
            for child in node.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        return "\n".join(lines)


class Planner:
    """Builds a :class:`Plan` for an optimised statement.

    ``stats_for`` resolves a table name to its :class:`TableStats` (or
    ``None`` when unknown); the planner never materialises a table
    itself.  With the default ``stats_for`` every estimate is unknown
    and every eligible stage keeps the columnar engine — the behaviour
    of the pre-cost planner.
    """

    def __init__(self, stats_for: StatsFor | None = None) -> None:
        self._stats_for = stats_for or (lambda name: None)
        self._stages: dict[tuple[int, str], PlanNode] = {}

    def plan(self, stmt: Node) -> Plan:
        root, _ = self._plan_statement(stmt)
        return Plan(root, self._stages)

    # ------------------------------------------------------------------
    # Statement nodes
    # ------------------------------------------------------------------
    def _plan_statement(self, stmt: Node) -> tuple[PlanNode, float | None]:
        if isinstance(stmt, Union):
            return self._plan_union(stmt)
        if isinstance(stmt, Select):
            return self._plan_select(stmt)
        node = PlanNode(label=type(stmt).__name__)
        return node, None

    def _plan_union(self, stmt: Union) -> tuple[PlanNode, float | None]:
        label = "UnionAll" if stmt.all else "Union"
        extras = []
        if stmt.order_by:
            extras.append(f"orderBy={len(stmt.order_by)} keys")
        if stmt.limit is not None:
            extras.append(f"limit={stmt.limit}")
        if stmt.offset:
            extras.append(f"offset={stmt.offset}")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        left, left_est = self._plan_statement(stmt.left)
        right, right_est = self._plan_statement(stmt.right)
        est = (left_est + right_est
               if left_est is not None and right_est is not None else None)
        est = _clip_limit(est, stmt.limit, stmt.offset)
        node = PlanNode(label=f"{label}{suffix}", est_rows=est,
                        children=[left, right])
        self._stages[(id(stmt), "union")] = node
        return node, est

    def _plan_select(self, stmt: Select) -> tuple[PlanNode, float | None]:
        source, source_est, source_stats = self._plan_source(stmt.source)

        stages: list[PlanNode] = []
        est = source_est
        if stmt.where is not None:
            selectivity = estimate_selectivity(stmt.where, source_stats)
            filtered = est * selectivity if est is not None else None
            eligible = predicate_shape_eligible(stmt.where)
            node = PlanNode(label=f"Filter({render(stmt.where)})",
                            tag=_tag(eligible),
                            est_rows=filtered,
                            engine=_engine(eligible, est))
            self._stages[(id(stmt), "filter")] = node
            stages.append(node)
            est = filtered

        aggregated = bool(stmt.group_by) or stmt.having is not None
        if aggregated:
            keys = ", ".join(render(g) for g in stmt.group_by) or "<global>"
            eligible = aggregate_shape_eligible(stmt)
            groups = self._estimate_groups(stmt, est, source_stats)
            node = PlanNode(label=f"Aggregate(groupBy={keys})",
                            tag=_tag(eligible),
                            est_rows=groups,
                            engine=_engine(eligible, est))
            self._stages[(id(stmt), "aggregate")] = node
            stages.append(node)
            est = groups
            if stmt.having is not None:
                if est is not None:
                    est *= DEFAULT_SELECTIVITY
                having = PlanNode(label=f"Having({render(stmt.having)})",
                                  est_rows=est)
                self._stages[(id(stmt), "having")] = having
                stages.append(having)
        elif self._contains_aggregate_items(stmt):
            eligible = aggregate_shape_eligible(stmt)
            node = PlanNode(label="Aggregate(groupBy=<global>)",
                            tag=_tag(eligible),
                            est_rows=1.0,
                            engine=_engine(eligible, est))
            self._stages[(id(stmt), "aggregate")] = node
            stages.append(node)
            est = 1.0

        window_calls = [node for item in stmt.items
                        if not isinstance(item.expr, Star)
                        for node in walk(item.expr)
                        if isinstance(node, FuncCall)
                        and node.window is not None]
        if window_calls:
            names = ", ".join(dict.fromkeys(c.name for c in window_calls))
            eligible = all(window_shape_eligible(c) for c in window_calls)
            node = PlanNode(label=f"Window({names})", tag=_tag(eligible),
                            est_rows=est,
                            engine=_engine(eligible, est))
            self._stages[(id(stmt), "window")] = node
            stages.append(node)

        if stmt.order_by:
            keys = ", ".join(
                render(o.expr) + ("" if o.ascending else " DESC")
                for o in stmt.order_by)
            eligible = not aggregated and order_shape_eligible(stmt.order_by)
            node = PlanNode(label=f"Sort({keys})", tag=_tag(eligible),
                            est_rows=est,
                            engine=_engine(eligible, est)
                            if not aggregated else None)
            self._stages[(id(stmt), "sort")] = node
            stages.append(node)

        est = _clip_limit(est, stmt.limit, stmt.offset)
        project = PlanNode(label=self._project_label(stmt), est_rows=est)
        self._stages[(id(stmt), "project")] = project

        # Thread the stage chain: Project > Sort > Window > Aggregate >
        # Having > Filter > source (matching the execution pipeline
        # bottom-up and the historical EXPLAIN layout top-down).
        ordered = self._ordered_stages(stmt, stages)
        parent = project
        for node in ordered:
            parent.children.append(node)
            parent = node
        parent.children.append(source)
        return project, est

    def _ordered_stages(self, stmt: Select,
                        stages: list[PlanNode]) -> list[PlanNode]:
        """Stages in render order (Sort, Window, Aggregate, Having,
        Filter) regardless of construction order."""
        order = {"Sort(": 0, "Window(": 1, "Aggregate(": 2, "Having(": 3,
                 "Filter(": 4}

        def rank(node: PlanNode) -> int:
            for prefix, value in order.items():
                if node.label.startswith(prefix):
                    return value
            return 5

        return sorted(stages, key=rank)

    def _project_label(self, stmt: Select) -> str:
        projection = ", ".join(_item_text(item) for item in stmt.items[:6])
        if len(stmt.items) > 6:
            projection += ", …"
        qualifiers = []
        if stmt.distinct:
            qualifiers.append("distinct")
        if stmt.limit is not None:
            qualifiers.append(f"limit={stmt.limit}")
        if stmt.offset:
            qualifiers.append(f"offset={stmt.offset}")
        suffix = f" [{', '.join(qualifiers)}]" if qualifiers else ""
        return f"Project({projection}){suffix}"

    @staticmethod
    def _contains_aggregate_items(stmt: Select) -> bool:
        from repro.sql.functions import is_aggregate
        return any(
            isinstance(node, FuncCall) and node.window is None
            and is_aggregate(node.name)
            for item in stmt.items if not isinstance(item.expr, Star)
            for node in walk(item.expr)
        )

    def _estimate_groups(self, stmt: Select, input_est: float | None,
                         stats: TableStats | None) -> float | None:
        if not stmt.group_by:
            return 1.0
        if input_est is None:
            return None
        distinct = 1.0
        known = True
        for key in stmt.group_by:
            summary = _group_key_summary(key, stats)
            if summary is not None and summary.distinct:
                distinct *= summary.distinct
            else:
                known = False
        if known:
            return min(distinct, input_est)
        # Unknown key cardinality: the square-root heuristic bounds the
        # estimate away from both extremes.
        return max(1.0, math.sqrt(input_est))

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------

    def _plan_source(self, source: Node | None
                     ) -> tuple[PlanNode, float | None, TableStats | None]:
        if source is None:
            node = PlanNode(label="OneRow", est_rows=1.0)
            return node, 1.0, None
        if isinstance(source, TableRef):
            alias = f" AS {source.alias}" if source.alias else ""
            stats = self._stats_for(source.name)
            est = float(stats.rows) if stats is not None else None
            node = PlanNode(label=f"Scan({source.name}{alias})", est_rows=est)
            self._stages[(id(source), "scan")] = node
            return node, est, stats
        if isinstance(source, SubqueryRef):
            alias = f" AS {source.alias}" if source.alias else ""
            inner, est = self._plan_statement(source.query)
            node = PlanNode(label=f"Subquery{alias}", est_rows=est,
                            children=[inner])
            self._stages[(id(source), "subquery")] = node
            # A pushed-down filter subquery is transparent for column
            # statistics: it scans one table and only filters rows.
            stats = self._passthrough_stats(source.query)
            return node, est, stats
        if isinstance(source, Join):
            left, left_est, left_stats = self._plan_source(source.left)
            right, right_est, right_stats = self._plan_source(source.right)
            condition = (f" on {render(source.condition)}"
                         if source.condition is not None else "")
            eligible = join_shape_eligible(source)
            est = self._estimate_join(source, left_est, right_est,
                                      left_stats, right_stats)
            build = ""
            if source.kind == "INNER" and left_est is not None \
                    and right_est is not None and left_est < right_est:
                build = "build=left"
            input_est = None
            if left_est is not None and right_est is not None:
                input_est = left_est + right_est
            node = PlanNode(label=f"{source.kind.title()}Join{condition}",
                            tag=_tag(eligible),
                            est_rows=est,
                            engine=_engine(eligible, input_est),
                            note=build,
                            children=[left, right])
            self._stages[(id(source), "join")] = node
            return node, est, None
        node = PlanNode(label=type(source).__name__)
        return node, None, None

    def _passthrough_stats(self, query: Node) -> TableStats | None:
        if isinstance(query, Select) and isinstance(query.source, TableRef) \
                and not query.group_by and query.having is None \
                and all(isinstance(item.expr, Star) for item in query.items):
            return self._stats_for(query.source.name)
        return None

    def _estimate_join(self, join: Join, left_est: float | None,
                       right_est: float | None,
                       left_stats: TableStats | None,
                       right_stats: TableStats | None) -> float | None:
        if left_est is None or right_est is None:
            return None
        if join.kind == "CROSS" or join.condition is None:
            return left_est * right_est
        # System R equi-join estimate: |L| * |R| / prod(max(d_l, d_r))
        # over the equi-key pairs' distinct counts.  When no key
        # cardinality is known, fall back to assuming the larger side is
        # key-unique (the FK→PK direction): divide by max(|L|, |R|).
        est = left_est * right_est
        divisors = [
            max(known)
            for e1, e2 in self._equi_column_pairs(join.condition)
            if (known := [d for d in (
                self._ref_distinct(e1, left_stats, right_stats),
                self._ref_distinct(e2, left_stats, right_stats)) if d])
        ]
        if divisors:
            for div in divisors:
                est /= max(1.0, float(div))
        else:
            est /= max(left_est, right_est, 1.0)
        if join.kind in ("LEFT", "FULL"):
            est = max(est, left_est)
        if join.kind in ("RIGHT", "FULL"):
            est = max(est, right_est)
        return est

    @staticmethod
    def _equi_column_pairs(condition: Node) -> list[tuple[Node, Node]]:
        """Top-level ``col = col`` conjuncts of an ON condition."""
        from repro.sql.nodes import BinaryOp, ColumnRef

        def flatten(node: Node) -> list[Node]:
            if isinstance(node, BinaryOp) and node.op == "AND":
                return flatten(node.left) + flatten(node.right)
            return [node]

        return [(conj.left, conj.right) for conj in flatten(condition)
                if isinstance(conj, BinaryOp) and conj.op == "="
                and isinstance(conj.left, ColumnRef)
                and isinstance(conj.right, ColumnRef)]

    @staticmethod
    def _ref_distinct(ref: Node, left_stats: TableStats | None,
                      right_stats: TableStats | None) -> int | None:
        """A join key's distinct count, looked up on whichever side has it."""
        name = getattr(ref, "name", None)
        if name is None:
            return None
        for stats in (left_stats, right_stats):
            if stats is not None:
                summary = stats.column(name)
                if summary is not None and summary.distinct:
                    return summary.distinct
        return None


def _group_key_summary(key: Node, stats: TableStats | None):
    """Column summary for a GROUP BY key expression.

    Resolves plain column references and map subscripts with a literal
    string key — ``GROUP BY tag['host']`` prices off the per-tag-key
    virtual-column statistics the tsdb adapter collects.
    """
    if stats is None:
        return None
    if isinstance(key, ColumnRef):
        return stats.column(key.name)
    if (isinstance(key, Subscript) and isinstance(key.base, ColumnRef)
            and isinstance(key.index, Literal)
            and isinstance(key.index.value, str)):
        return stats.map_column(key.base.name, key.index.value)
    if hasattr(key, "name"):            # aliased/other named expressions
        return stats.column(getattr(key, "name"))
    return None


def _tag(eligible: bool) -> str:
    return " [columnar-eligible]" if eligible else ""


def _engine(eligible: bool, input_est: float | None) -> str:
    """The cost decision: columnar only when the stage's estimated input
    amortises vectorization overhead.  Unknown input defaults to
    columnar — wrongly vectorizing a small input costs microseconds,
    wrongly interpreting a large one costs orders of magnitude."""
    if not eligible:
        return "row"
    if input_est is not None and input_est < COLUMNAR_MIN_ROWS:
        return "row"
    return "columnar"


def _item_text(item: SelectItem) -> str:
    if isinstance(item.expr, Star):
        return "*" if item.expr.table is None else f"{item.expr.table}.*"
    text = render(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _clip_limit(est: float | None, limit: int | None,
                offset: int | None) -> float | None:
    if est is None:
        return None
    if offset:
        est = max(0.0, est - offset)
    if limit is not None:
        est = min(est, float(limit))
    return est
