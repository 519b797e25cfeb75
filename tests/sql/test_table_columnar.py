"""Unit tests for the columnar Table construction path."""

import numpy as np
import pytest

from repro.sql.errors import SchemaError
from repro.sql.table import DictColumn, Table


def _columnar():
    return Table.from_columns(
        ["t", "name", "v"],
        [np.arange(4, dtype=np.int64),
         ["a", "b", "a", "b"],
         np.asarray([0.5, 1.5, 2.5, 3.5])])


class TestFromColumns:
    def test_len_without_materialising(self):
        table = _columnar()
        assert len(table) == 4
        assert not table.is_materialised()

    def test_rows_materialise_with_python_cells(self):
        table = _columnar()
        assert table.rows == [(0, "a", 0.5), (1, "b", 1.5),
                              (2, "a", 2.5), (3, "b", 3.5)]
        assert type(table.rows[0][0]) is int
        assert type(table.rows[0][2]) is float
        assert table.is_materialised()

    def test_equals_row_built_table(self):
        rows = [(0, "a", 0.5), (1, "b", 1.5), (2, "a", 2.5), (3, "b", 3.5)]
        assert _columnar() == Table(["t", "name", "v"], rows)

    def test_column_reads_skip_materialisation(self):
        table = _columnar()
        assert table.column("name") == ["a", "b", "a", "b"]
        assert table.column("v") == [0.5, 1.5, 2.5, 3.5]
        assert not table.is_materialised()

    def test_select_rename_prefix_stay_columnar(self):
        table = _columnar()
        projected = table.select_columns(["v", "t"])
        renamed = table.rename({"v": "value"})
        prefixed = table.prefixed("x")
        assert not table.is_materialised()
        assert not projected.is_materialised()
        assert projected.rows == [(0.5, 0), (1.5, 1), (2.5, 2), (3.5, 3)]
        assert renamed.columns == ["t", "name", "value"]
        assert renamed.rows == table.rows
        assert prefixed.columns == ["x.t", "x.name", "x.v"]

    def test_row_api_interoperates(self):
        table = _columnar()
        filtered = table.filter(lambda row: row["name"] == "a")
        assert filtered.rows == [(0, "a", 0.5), (2, "a", 2.5)]
        assert table.union_all(table.limit(1)).rows[-1] == (0, "a", 0.5)
        assert list(iter(table))[0] == (0, "a", 0.5)

    def test_empty_columns(self):
        table = Table.from_columns(["a", "b"], [[], np.empty(0)])
        assert len(table) == 0
        assert table.rows == []

    def test_unequal_lengths_rejected(self):
        with pytest.raises(SchemaError, match="unequal lengths"):
            Table.from_columns(["a", "b"], [[1, 2], [1.0]])

    def test_wrong_vector_count_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_columns(["a", "b"], [[1, 2]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Table.from_columns(["a", "a"], [[1], [2]])

    def test_object_cells_pass_through(self):
        tags = {"host": "h1"}
        col = np.empty(2, dtype=object)
        col[:] = [tags, tags]
        table = Table.from_columns(["tag"], [col])
        assert table.rows == [(tags,), (tags,)]
        assert table.rows[0][0] is tags

    def test_row_built_tables_unchanged(self):
        table = Table(["a"], [(1,), (2,)])
        assert table.is_materialised()
        assert len(table) == 2

    def test_string_columns_encode_once_cells_unchanged(self):
        table = _columnar()
        text = np.asarray(["b", None, "a"], dtype=object)
        mixed = Table.from_columns(["s", "m"], [np.asarray(
            ["b", "a", "b"], dtype=object), text])
        name, note = mixed.column_vectors()
        assert isinstance(name, DictColumn) and name.ordered
        assert name.dictionary.tolist() == ["a", "b"]
        assert note is text                 # not all-str: left as is
        assert mixed.column_vectors()[0] is name
        assert mixed.rows == [("b", "b"), ("a", None), ("b", "a")]
        assert isinstance(table.column_vectors()[1], DictColumn)
        assert table.column("name") == ["a", "b", "a", "b"]

    def test_dict_column_gathers_share_entries(self):
        tags = [{"host": "h0"}, {"host": "h1"}]
        col = DictColumn(np.asarray([1, 0, 1], dtype=np.int32),
                         np.asarray(tags, dtype=object))
        table = Table.from_columns(["tag"], [col])
        picked = table.gather(np.asarray([True, False, True]))
        assert picked.rows == [(tags[1],), (tags[1],)]
        assert all(row[0] is tags[1] for row in picked.rows)
        assert table.slice_rows(1, None).column("tag")[0] is tags[0]
