"""Query normalisation: same AST, formatting-insensitive, key-stable."""

import pytest

from repro.serve.cache import NORMALIZE_CACHE_ENTRIES, normalize_query
from repro.sql.errors import ParseError
from repro.sql.optimizer import optimize
from repro.sql.parser import parse

#: A corpus spanning the dialect: the normalised text of each must parse
#: to exactly the AST of the original.
CORPUS = [
    "SELECT 1",
    "SELECT * FROM tsdb",
    "SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name",
    "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k WHERE a.x > 3 ORDER BY b.y",
    "SELECT value FROM tsdb WHERE metric_name = 'cpu_util' AND value >= 0.5",
    "SELECT timestamp, AVG(value) AS v FROM tsdb GROUP BY timestamp "
    "HAVING AVG(value) > 2 ORDER BY v DESC LIMIT 10",
    "SELECT CASE WHEN value > 1 THEN 'hi' ELSE 'lo' END AS bucket FROM tsdb",
    "SELECT name, RANK() OVER (PARTITION BY name ORDER BY value) FROM t",
    "SELECT value FROM tsdb WHERE tag LIKE 'host-%' AND value IS NOT NULL",
    "SELECT DISTINCT metric_name FROM tsdb WHERE value IN (1, 2, 3)",
    "SELECT 'it''s quoted' AS s, -2.5e3 AS x FROM t",
]


@pytest.mark.parametrize("query", CORPUS)
def test_normalized_text_parses_to_same_ast(query):
    assert parse(normalize_query(query)) == parse(query)


@pytest.mark.parametrize("query", CORPUS)
def test_normalized_text_same_optimized_plan(query):
    assert optimize(parse(normalize_query(query))) == optimize(parse(query))


@pytest.mark.parametrize("query", CORPUS)
def test_normalization_is_idempotent(query):
    once = normalize_query(query)
    assert normalize_query(once) == once


def test_whitespace_comments_and_keyword_case_fold():
    a = normalize_query(
        "select   metric_name,avg(value) -- trailing comment\n"
        "  FROM tsdb\nGROUP  BY metric_name")
    b = normalize_query(
        "SELECT metric_name, AVG(value) FROM tsdb GROUP BY metric_name")
    assert a == b


def test_function_name_case_folds_but_column_case_does_not():
    assert (normalize_query("SELECT count(*) FROM t")
            == normalize_query("SELECT COUNT(*) FROM t"))
    # Bare column references name output columns as written, so their
    # case is semantic and must survive normalisation.
    assert (normalize_query("SELECT Value FROM t")
            != normalize_query("SELECT value FROM t"))


def test_semantic_differences_stay_distinct():
    base = normalize_query("SELECT value FROM tsdb WHERE value > 1")
    assert normalize_query("SELECT value FROM tsdb WHERE value > 2") != base
    assert normalize_query("SELECT value FROM tsdb WHERE value < 1") != base
    assert normalize_query("SELECT 'a' FROM t") != normalize_query(
        "SELECT 'A' FROM t")


def test_string_literals_requote_canonically():
    a = normalize_query("SELECT 'it''s' FROM t")
    assert parse(a) == parse("SELECT 'it''s' FROM t")


def test_rejects_unlexable_input():
    with pytest.raises(ParseError):
        normalize_query("SELECT 'unterminated")


def test_memoised_per_raw_text_and_bounded():
    query = "select   metric_name from tsdb -- memo probe"
    first = normalize_query(query)
    hits = normalize_query.cache_info().hits
    assert normalize_query(query) is first
    assert normalize_query.cache_info().hits == hits + 1
    assert normalize_query.cache_info().maxsize == NORMALIZE_CACHE_ENTRIES


def test_parse_errors_are_not_memoised():
    before = normalize_query.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ParseError):
            normalize_query("SELECT 'unterminated")
    assert normalize_query.cache_info().currsize == before
