"""Relational table model for the SQL substrate.

A :class:`Table` has named columns and rows of Python values.  Cells may be
``None`` (SQL NULL), numbers, strings, lists (the result of ``SPLIT``), or
dictionaries — the ``tag`` map column of the paper's ``tsdb`` table and the
``v`` map of the Feature Family Table (Figure 4) are dict-valued cells
accessed with ``tag['pipeline_name']`` subscripts.

Tables can also be built *columnar* via :meth:`Table.from_columns`: the
column vectors (numpy arrays or plain sequences) are stored as-is and the
row tuples are materialised lazily on first access to ``.rows``.  Bulk
producers — the tsdb adapter, rollup materialisation — build numpy
columns directly and skip the per-observation tuple explosion entirely
until (unless) a row-oriented consumer needs it; ``column()`` reads are
served from the stored vectors either way.

A column vector may also be a :class:`DictColumn`: integer codes into a
small dictionary of cells.  The tsdb adapter builds ``metric_name`` and
``tag`` this way, and :meth:`Table.column_vectors` encodes every
all-string object column the same way once, so the columnar executor
runs per-cell work once per dictionary entry.  Cells read through
``.rows`` or ``column()`` are the dictionary entries themselves.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.sql.errors import SchemaError

Row = tuple

_MISSING = object()


class DictColumn:
    """A dictionary-encoded column: row ``i`` holds ``dictionary[codes[i]]``.

    ``dictionary`` is a 1-D object array of cells, which may include
    None (a SQL NULL) and may repeat values; ``codes`` is an int vector
    of positions into it.  ``ordered`` promises that the dictionary
    holds strictly increasing ``str`` cells, so code order is string
    order and equal codes mean equal strings.  Gathers and slices touch
    only the codes and share the dictionary, so every row that came
    from one entry keeps that entry's object (one tag dict per series).
    """

    __slots__ = ("codes", "dictionary", "ordered", "_entry_null")

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray,
                 ordered: bool = False,
                 entry_null: np.ndarray | None | object = _MISSING) -> None:
        self.codes = codes
        self.dictionary = dictionary
        self.ordered = ordered
        self._entry_null = entry_null

    @classmethod
    def encode(cls, column: np.ndarray) -> "DictColumn | None":
        """The ordered encoding of an all-``str`` object vector, else None.

        One hashing pass numbers the distinct strings by first
        occurrence; only the distinct strings are then sorted.
        """
        if column.dtype != object:
            return None
        cells = column.tolist()
        if not all(type(cell) is str for cell in cells):
            return None
        index: dict[str, int] = {}
        first_codes = np.fromiter(
            (index.setdefault(cell, len(index)) for cell in cells),
            dtype=np.int64, count=len(cells))
        dictionary = sorted(index)
        rank = np.empty(len(index),
                        dtype=np.int32 if len(index) < 2 ** 31 else np.int64)
        rank[[index[cell] for cell in dictionary]] = np.arange(len(index))
        return cls(rank[first_codes], _as_object_array(dictionary),
                   ordered=True, entry_null=None)

    @property
    def entry_null(self) -> np.ndarray | None:
        """Per-entry NULL flags, or None when no entry is NULL."""
        if self._entry_null is _MISSING:
            mask = np.fromiter((cell is None for cell in self.dictionary),
                               dtype=bool, count=self.dictionary.size)
            self._entry_null = mask if mask.any() else None
        return self._entry_null

    def null_mask(self) -> np.ndarray | None:
        """Per-row NULL mask, or None when no row is NULL."""
        entry_null = self.entry_null
        if entry_null is None:
            return None
        mask = entry_null[self.codes]
        return mask if mask.any() else None

    @property
    def size(self) -> int:
        return self.codes.size

    def __len__(self) -> int:
        return self.codes.size

    def __getitem__(self, key: Any) -> "DictColumn":
        """Rows selected by a slice, boolean mask or index array."""
        return DictColumn(self.codes[key], self.dictionary, self.ordered,
                          self._entry_null)

    def decode(self) -> np.ndarray:
        """The column as a plain object array of its cells."""
        return self.dictionary[self.codes]

    def tolist(self) -> list[Any]:
        return self.decode().tolist()


class Table:
    """An ordered bag of rows with named columns."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Any]] = ()):
        self.columns: list[str] = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column names: {self.columns}")
        self._rows: list[Row] | None = []
        self._coldata: list[Any] | None = None
        self._nrows = 0
        width = len(self.columns)
        for row in rows:
            tup = tuple(row)
            if len(tup) != width:
                raise SchemaError(
                    f"row width {len(tup)} does not match {width} columns"
                )
            self._rows.append(tup)
        self._nrows = len(self._rows)
        self._index: dict[str, int] = {c: i for i, c in enumerate(self.columns)}

    @property
    def rows(self) -> list[Row]:
        """Row tuples; materialised lazily for columnar tables."""
        if self._rows is None:
            self._rows = self._materialise_rows()
        return self._rows

    def _materialise_rows(self) -> list[Row]:
        cells = [_column_cells(col) for col in self._coldata]
        if not cells:
            return []
        return list(zip(*cells))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, records: Iterable[Mapping[str, Any]],
                   columns: Sequence[str] | None = None) -> "Table":
        """Build a table from mapping records; missing keys become NULL."""
        records = list(records)
        if columns is None:
            seen: dict[str, None] = {}
            for record in records:
                for key in record:
                    seen.setdefault(key, None)
            columns = list(seen)
        rows = [tuple(record.get(col) for col in columns) for record in records]
        return cls(columns, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[str],
                     data: Sequence[Sequence[Any] | np.ndarray]) -> "Table":
        """Build a table from column vectors without materialising rows.

        ``data`` holds one vector (numpy array, list, or tuple) per
        column name, all of equal length.  The vectors are stored as-is;
        ``.rows`` converts them to Python-valued row tuples on first
        access (numpy columns via ``tolist``, so cells are plain
        ``int``/``float`` exactly as a row-built table would hold).

        Column-backed tables are what the columnar SQL executor fast-
        paths: keep numeric columns as int64/float64 numpy arrays so
        WHERE predicates compile to masks and aggregates to segmented
        reductions.  :meth:`column_vectors`, :meth:`gather` and
        :meth:`slice_rows` operate on the vectors directly; the caller
        must not mutate a vector after handing it over (results and
        caches alias it zero-copy).
        """
        names = list(columns)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        if len(data) != len(names):
            raise SchemaError(
                f"{len(data)} column vectors for {len(names)} columns"
            )
        lengths = {len(col) for col in data}
        if len(lengths) > 1:
            raise SchemaError(
                f"column vectors have unequal lengths: {sorted(lengths)}"
            )
        table = cls.__new__(cls)
        table.columns = names
        table._rows = None
        table._coldata = list(data)
        table._normalised = False
        table._nrows = lengths.pop() if lengths else 0
        table._index = {c: i for i, c in enumerate(names)}
        return table

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Table":
        """An empty table with the given schema."""
        return cls(columns, [])

    def is_materialised(self) -> bool:
        """True once row tuples exist (always true for row-built tables)."""
        return self._rows is not None

    def column_vectors(self) -> list[np.ndarray | DictColumn] | None:
        """Normalised column vectors, or None for row-built tables.

        This is the columnar executor's entry point to ``_coldata``:
        numpy and :class:`DictColumn` vectors are returned as stored
        (zero-copy); list/tuple columns are wrapped in object arrays so
        boolean-mask gathers work uniformly, and object columns whose
        cells are all ``str`` become ordered :class:`DictColumn` vectors.
        The normalised vectors are cached back into ``_coldata`` so
        repeated scans pay the conversion once.  Cell values observed
        through a vector are exactly the cells ``.rows`` would
        materialise (``_column_cells`` applies the same conversion).
        """
        if self._coldata is None:
            return None
        if not self._normalised:
            for i, col in enumerate(self._coldata):
                if not isinstance(col, (np.ndarray, DictColumn)):
                    col = _as_object_array(list(col))
                if isinstance(col, np.ndarray) and col.dtype == object:
                    encoded = DictColumn.encode(col)
                    if encoded is not None:
                        col = encoded
                self._coldata[i] = col
            self._normalised = True
        return list(self._coldata)

    def gather(self, selector: np.ndarray) -> "Table":
        """Rows selected by a boolean mask or integer index array.

        Library-level counterpart of the columnar executor's internal
        mask application, for callers that compute masks over
        :meth:`column_vectors` themselves (e.g.
        ``table.gather(np.asarray(table.column("value")) > 0)``).
        Stays columnar for column-backed tables (each vector is gathered
        with one numpy fancy-index); row-built tables fall back to a
        Python row gather.  Row order follows the selector.
        """
        if self._coldata is not None:
            vectors = self.column_vectors()
            return Table.from_columns(
                self.columns, [col[selector] for col in vectors])
        selector = np.asarray(selector)
        if selector.dtype == bool:
            selector = np.flatnonzero(selector)
        rows = [self.rows[i] for i in selector.tolist()]
        return Table(self.columns, rows)

    def slice_rows(self, start: int | None, stop: int | None) -> "Table":
        """Contiguous row slice; zero-copy views for columnar tables."""
        if self._rows is None:
            return Table.from_columns(
                self.columns, [col[start:stop] for col in self._coldata])
        return Table(self.columns, self.rows[start:stop])

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows) if self._rows is not None else self._nrows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Table(columns={self.columns}, rows={len(self)})"

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column_index(self, name: str) -> int:
        """Index of a column by name (case-sensitive, then -insensitive)."""
        idx = self._index.get(name)
        if idx is not None:
            return idx
        lowered = name.lower()
        matches = [i for i, c in enumerate(self.columns) if c.lower() == lowered]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SchemaError(f"ambiguous column {name!r}")
        raise SchemaError(
            f"unknown column {name!r}; available: {self.columns}"
        )

    def column(self, name: str) -> list[Any]:
        """Return all values of one column as a list.

        Columnar tables serve this from the stored vector without
        materialising row tuples.
        """
        idx = self.column_index(name)
        if self._rows is None:
            return _column_cells(self._coldata[idx])
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column names."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # Relational helpers used by the executor and by library code
    # ------------------------------------------------------------------
    def select_columns(self, names: Sequence[str]) -> "Table":
        """Project onto a subset of columns (stays columnar when lazy)."""
        indexes = [self.column_index(n) for n in names]
        if self._rows is None:
            return Table.from_columns(
                list(names), [self._coldata[i] for i in indexes])
        rows = [tuple(row[i] for i in indexes) for row in self.rows]
        return Table(list(names), rows)

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Keep rows where ``predicate(row_dict)`` is true."""
        kept = [row for row in self.rows
                if predicate(dict(zip(self.columns, row)))]
        return Table(self.columns, kept)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a copy with some columns renamed."""
        columns = [mapping.get(c, c) for c in self.columns]
        if self._rows is None:
            return Table.from_columns(columns, self._coldata)
        return Table(columns, self.rows)

    def prefixed(self, prefix: str) -> "Table":
        """Return a copy with every column prefixed (``alias.column``)."""
        columns = [f"{prefix}.{c}" for c in self.columns]
        if self._rows is None:
            return Table.from_columns(columns, self._coldata)
        return Table(columns, self.rows)

    def union_all(self, other: "Table") -> "Table":
        """Concatenate rows; schemas are matched by position.

        Mirrors Spark SQL's UNION semantics used in listing 5: the paper
        unions feature-family tables that share the normalised schema.
        """
        if len(other.columns) != len(self.columns):
            raise SchemaError(
                f"UNION arity mismatch: {len(self.columns)} vs {len(other.columns)}"
            )
        return Table(self.columns, self.rows + other.rows)

    def distinct(self) -> "Table":
        """Remove duplicate rows (order of first occurrence preserved)."""
        seen: set = set()
        out: list[Row] = []
        for row in self.rows:
            key = _hashable_row(row)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return Table(self.columns, out)

    def sorted_by(self, key: Callable[[Row], Any], reverse: bool = False) -> "Table":
        """Stable sort by a row-key function."""
        return Table(self.columns, sorted(self.rows, key=key, reverse=reverse))

    def limit(self, n: int) -> "Table":
        """First ``n`` rows (stays columnar when lazy)."""
        if self._rows is None:
            return self.slice_rows(None, n)
        return Table(self.columns, self.rows[:n])

    def head_text(self, n: int = 10, max_width: int = 24) -> str:
        """Simple fixed-width text rendering for examples and debugging."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                text = f"{value:.4g}"
            else:
                text = str(value)
            if len(text) > max_width:
                text = text[: max_width - 1] + "…"
            return text

        shown = self.rows[:n]
        cells = [[fmt(c) for c in self.columns]]
        cells.extend([fmt(v) for v in row] for row in shown)
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = []
        for r_i, row in enumerate(cells):
            line = "  ".join(v.ljust(widths[i]) for i, v in enumerate(row))
            lines.append(line.rstrip())
            if r_i == 0:
                lines.append("  ".join("-" * w for w in widths))
        if len(self.rows) > n:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)


def _column_cells(column: Any) -> list[Any]:
    """One column vector as a list of plain Python cell values."""
    if isinstance(column, (np.ndarray, DictColumn)):
        return column.tolist()
    return list(column)


def _as_object_array(cells: list[Any]) -> np.ndarray:
    """Wrap arbitrary Python cells in a 1-D object array.

    ``np.asarray`` would try to broadcast list/tuple cells into extra
    dimensions; pre-allocating the object array keeps every cell — dict,
    list, None — as one element.
    """
    out = np.empty(len(cells), dtype=object)
    for i, cell in enumerate(cells):
        out[i] = cell
    return out


def _hashable_row(row: Row) -> tuple:
    """Convert a row to a hashable key (dicts/lists become tuples)."""
    def conv(value: Any) -> Any:
        if isinstance(value, dict):
            return tuple(sorted((k, conv(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(conv(v) for v in value)
        return value
    return tuple(conv(v) for v in row)
