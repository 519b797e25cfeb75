"""Scan, downsample, and aggregation queries over the store.

These mirror the query primitives ExplainIt!'s connectors relied on from
OpenTSDB: select series by metric/tags, align them on a regular grid,
downsample with an aggregator, and interpolate missing observations
("Missing values in the time series are interpolated to the closest
non-null observation", Appendix C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.tsdb.model import SeriesFormatError, SeriesId
from repro.tsdb.storage import TimeSeriesStore


_AGGREGATORS: dict[str, Callable[[np.ndarray], float]] = {
    "avg": lambda a: float(np.mean(a)),
    "sum": lambda a: float(np.sum(a)),
    "min": lambda a: float(np.min(a)),
    "max": lambda a: float(np.max(a)),
    "count": lambda a: float(a.size),
    "median": lambda a: float(np.median(a)),
    "p95": lambda a: float(np.percentile(a, 95)),
    "p99": lambda a: float(np.percentile(a, 99)),
}

#: Row-wise (axis=1) counterparts of the scalar aggregators, used by the
#: equal-width bucket fast path.  numpy evaluates an axis reduction with
#: the same per-row kernel as the scalar call on each row slice, so the
#: outputs are bitwise identical to the per-bucket loop (``count`` is
#: derived from bucket sizes instead).
_ROW_AGGREGATORS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "avg": lambda m: np.mean(m, axis=1),
    "sum": lambda m: np.sum(m, axis=1),
    "min": lambda m: np.min(m, axis=1),
    "max": lambda m: np.max(m, axis=1),
    "median": lambda m: np.median(m, axis=1),
    "p95": lambda m: np.percentile(m, 95, axis=1),
    "p99": lambda m: np.percentile(m, 99, axis=1),
}


def aggregator(name: str) -> Callable[[np.ndarray], float]:
    """Look up a named aggregator (avg, sum, min, max, count, median, p95, p99)."""
    try:
        return _AGGREGATORS[name.lower()]
    except KeyError:
        raise SeriesFormatError(
            f"unknown aggregator {name!r}; choose from {sorted(_AGGREGATORS)}"
        ) from None


@dataclass
class Downsampler:
    """Bucket observations into fixed-width windows and aggregate each.

    ``interval`` is in the same (epoch-minute) units as the store; the
    bucket label is the left edge of the window.
    """

    interval: int = 1
    agg: str = "avg"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SeriesFormatError("downsample interval must be positive")
        self._fn = aggregator(self.agg)
        self._row_fn = _ROW_AGGREGATORS.get(self.agg.lower())

    def apply(self, timestamps: np.ndarray,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return downsampled (timestamps, values) arrays.

        Fully vectorized: bucket edges are the run boundaries of the
        bucket-label column (one comparison per point instead of a
        Python loop), ``count`` comes straight from the bucket sizes,
        and when every bucket holds the same number of points — the
        dense regular-grid case — the values are reshaped to a
        ``(buckets, width)`` matrix and reduced along axis 1.  Ragged
        (gappy) buckets use a segmented ``reduceat``: for ``min``/``max``
        it applies the same sequential ufunc reduction ``np.min`` applies
        per slice, so the result is exact; ``sum``/``avg`` group the
        buckets by size and reduce each group as a ``(buckets, size)``
        matrix, so every bucket is summed in the order a per-bucket
        ``np.sum`` uses.  The order-statistic aggregates (``median``, ``p95``,
        ``p99``) over ragged buckets go through sorted-segment indexing
        (:func:`_segmented_order_stat`): one ``lexsort`` over
        ``(bucket, value)`` replaces the per-bucket
        ``np.median``/``np.percentile`` calls, replicating numpy's
        index arithmetic exactly.  Every path is bitwise identical to
        the per-point reference loop.
        """
        if timestamps.size == 0:
            return timestamps.copy(), values.copy()
        buckets = (timestamps // self.interval) * self.interval
        if buckets.size > 1:
            edges = np.flatnonzero(buckets[1:] != buckets[:-1]) + 1
        else:
            edges = np.empty(0, dtype=np.intp)
        starts = np.concatenate((np.zeros(1, dtype=np.intp), edges))
        ends = np.concatenate((edges, np.array([buckets.size], dtype=np.intp)))
        out_ts = np.asarray(buckets[starts], dtype=np.int64)
        sizes = ends - starts
        agg = self.agg.lower()
        if agg == "count":
            return out_ts, sizes.astype(np.float64)
        if self._row_fn is not None and np.all(sizes == sizes[0]):
            width = int(sizes[0])
            matrix = np.ascontiguousarray(values).reshape(-1, width)
            return out_ts, np.asarray(self._row_fn(matrix),
                                      dtype=np.float64)
        if agg in ("min", "max"):
            # Segmented reduction over ragged buckets: reduceat applies
            # the identical sequential minimum/maximum reduction that a
            # per-bucket np.min/np.max call would, so gappy series take
            # the vectorized path exactly.
            ufunc = np.minimum if agg == "min" else np.maximum
            return out_ts, np.asarray(ufunc.reduceat(values, starts),
                                      dtype=np.float64)
        if agg in ("sum", "avg"):
            # Size-grouped sums over ragged buckets.  A segmented
            # ``np.add.reduceat`` would add each bucket left-to-right,
            # while the reference loop's per-bucket ``np.sum`` is
            # pairwise, so a cancelling bucket could come out as 1e-16
            # instead of 0.  Gathering the buckets of one size into a
            # matrix and reducing its rows applies the reference's exact
            # reduction order; the sizes are distinct positive integers
            # summing to at most ``values.size``, so the loop runs at
            # most ~sqrt(2n) times.
            out_vals = np.empty(starts.size, dtype=np.float64)
            for width in np.flatnonzero(np.bincount(sizes)):
                rows = np.flatnonzero(sizes == width)
                matrix = sliding_window_view(values, width)[starts[rows]]
                out_vals[rows] = self._row_fn(matrix)
            return out_ts, out_vals
        if agg == "median" or agg in _PERCENTILE_Q:
            return out_ts, _segmented_order_stat(
                np.asarray(values, dtype=np.float64), starts, sizes, agg)
        out_vals = np.asarray(
            [self._fn(values[s:e]) for s, e in zip(starts, ends)]
        )
        return out_ts, out_vals


#: Quantile (not percent) per order-statistic aggregator, computed the
#: way ``np.percentile`` does (``true_divide(p, 100)``) so the virtual
#: index arithmetic below sees bit-identical inputs.
_PERCENTILE_Q = {"p95": 95.0 / 100.0, "p99": 99.0 / 100.0}


def _segmented_order_stat(values: np.ndarray, starts: np.ndarray,
                          sizes: np.ndarray, agg: str) -> np.ndarray:
    """Vectorized per-bucket median/percentile via sorted-segment indexing.

    One ``lexsort`` over ``(bucket id, value)`` sorts every ragged
    bucket at once (NaNs last within each bucket, exactly like the
    ``partition`` inside ``np.percentile``); each bucket's statistic is
    then a gather at computed indexes.  The arithmetic replicates
    numpy's own:

    - **median** — odd buckets take the middle element; even buckets
      take ``(lo + hi) / 2`` (``np.mean`` of the two middles: one add,
      one exact halving).
    - **percentile** (linear method) — ``virtual = (n - 1) * q``;
      below the last index the result lerps between ``floor(virtual)``
      and its successor, with numpy's ``t >= 0.5`` rewrite
      (``b - diff * (1 - t)`` instead of ``a + diff * t``) applied the
      same way; at or above the last index both gather points collapse
      to the bucket's last element with ``gamma = virtual + 1`` — the
      ``-1``-index fixup inside ``np.quantile``, wraparound included.
    - any bucket containing NaN yields NaN (numpy's
      ``slices_having_nans`` override; NaN sorts last, so testing the
      bucket's last element is exact).

    Bitwise-identical to calling ``np.median``/``np.percentile`` on
    each bucket slice — including the inf/NaN corner cases where the
    lerp's ``inf - inf`` produces NaN — which the property tests pin
    against the reference loop.
    """
    n_buckets = int(starts.size)
    segment_ids = np.repeat(np.arange(n_buckets, dtype=np.intp), sizes)
    order = np.lexsort((values, segment_ids))
    ordered = values[order]
    last_idx = starts + sizes - 1
    has_nan = np.isnan(ordered[last_idx])
    if agg == "median":
        lo = ordered[starts + (sizes - 1) // 2]
        hi = ordered[starts + sizes // 2]
        with np.errstate(invalid="ignore", over="ignore"):
            # ``np.median`` takes ``np.mean`` over the middle slice, and
            # numpy's sum reduction folds in the additive identity — the
            # ``+ 0.0`` normalises a ``-0.0`` middle to ``+0.0`` exactly
            # like the per-bucket call does.
            even = (lo + hi + 0.0) / 2.0
            result = np.where(sizes % 2 == 1, lo + 0.0, even)
    else:
        q = _PERCENTILE_Q[agg]
        virtual = (sizes - 1).astype(np.float64) * q
        prev = np.floor(virtual)
        gamma = virtual - prev
        prev_idx = prev.astype(np.intp)
        next_idx = prev_idx + 1
        above = virtual >= (sizes - 1)
        prev_idx = np.where(above, sizes - 1, prev_idx)
        next_idx = np.where(above, sizes - 1, next_idx)
        gamma = np.where(above, virtual + 1.0, gamma)
        a = ordered[starts + prev_idx]
        b = ordered[starts + next_idx]
        with np.errstate(invalid="ignore", over="ignore"):
            diff = b - a
            result = np.where(gamma >= 0.5,
                              b - diff * (1.0 - gamma),
                              a + diff * gamma)
    return np.where(has_nan, np.nan, result)


def align_to_grid(timestamps: np.ndarray, values: np.ndarray,
                  grid: np.ndarray) -> np.ndarray:
    """Align a series onto a regular grid, interpolating missing points.

    Values at grid points not present in ``timestamps`` are filled from the
    nearest observed neighbour (ties go to the earlier point), matching the
    paper's closest-non-null interpolation policy.  Grid points outside the
    observed range take the first/last observed value.
    """
    if timestamps.size == 0:
        return np.full(grid.shape, np.nan)
    # Index of the first observation >= each grid point.
    right = np.searchsorted(timestamps, grid, side="left")
    right = np.clip(right, 0, timestamps.size - 1)
    left = np.clip(right - 1, 0, timestamps.size - 1)
    dist_right = np.abs(timestamps[right] - grid)
    dist_left = np.abs(grid - timestamps[left])
    take_left = dist_left <= dist_right
    chosen = np.where(take_left, left, right)
    return values[chosen].astype(np.float64)


@dataclass
class ScanQuery:
    """Declarative scan: metric/tag filters, a time range, and downsampling.

    Example
    -------
    >>> query = ScanQuery(name="disk", tags={"host": "datanode*"},
    ...                   start=0, end=1440, downsample=Downsampler(5, "avg"))
    >>> result = query.run(store)                        # doctest: +SKIP
    """

    name: str | None = None
    tags: Mapping[str, str] | None = None
    start: int | None = None
    end: int | None = None
    downsample: Downsampler | None = None
    series_ids: Sequence[SeriesId] | None = None

    def run(self, store: TimeSeriesStore) -> "ScanResult":
        """Execute the scan against a store."""
        if self.series_ids is not None:
            matched = list(self.series_ids)
        else:
            matched = store.find(self.name, self.tags)
        columns: dict[SeriesId, tuple[np.ndarray, np.ndarray]] = {}
        for series in matched:
            ts, vals = store.arrays(series, self.start, self.end)
            if self.downsample is not None:
                ts, vals = self.downsample.apply(ts, vals)
            columns[series] = (ts, vals)
        return ScanResult(columns=columns)


@dataclass
class ScanResult:
    """Result of a scan: per-series column pairs plus matrix conversion."""

    columns: dict[SeriesId, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.columns)

    def series_ids(self) -> list[SeriesId]:
        """Series ids in the result, in stable order."""
        return list(self.columns)

    def grid(self, interval: int = 1) -> np.ndarray:
        """Common regular grid spanning all series in the result."""
        lo: int | None = None
        hi: int | None = None
        for ts, _ in self.columns.values():
            if ts.size == 0:
                continue
            lo = int(ts[0]) if lo is None else min(lo, int(ts[0]))
            hi = int(ts[-1]) if hi is None else max(hi, int(ts[-1]))
        if lo is None or hi is None:
            return np.empty(0, dtype=np.int64)
        return np.arange(lo, hi + 1, interval, dtype=np.int64)

    def to_matrix(self, grid: np.ndarray | None = None,
                  interval: int = 1) -> tuple[np.ndarray, list[SeriesId], np.ndarray]:
        """Materialise a dense ``T x F`` matrix aligned on a common grid.

        Returns ``(matrix, series_ids, grid)``.  This is the "dense arrays"
        optimisation of section 4.2: downstream scoring operates on
        row-major numpy matrices rather than per-point records.
        """
        if grid is None:
            grid = self.grid(interval)
        ids = self.series_ids()
        matrix = np.empty((grid.size, len(ids)), dtype=np.float64, order="C")
        for j, series in enumerate(ids):
            ts, vals = self.columns[series]
            matrix[:, j] = align_to_grid(ts, vals, grid)
        return matrix, ids, grid
