"""Version-keyed result cache + query normalisation for the serving tier.

The serving workload is dominated by *repeat* requests: a dashboard
re-issues the same handful of SQL statements (and ``explain`` shapes)
against a store that mutates far less often than it is read.  The
:class:`ResultCache` exploits that by keying every entry on
``(request key, store.version)``:

- a **hit** requires the entry's version to equal the *current* store
  version, so a result cached at version ``v`` can never be served once
  ingest moves the store past ``v`` — staleness is structurally
  impossible, not a TTL guess;
- **invalidation** is therefore implicit (new version, new key) plus a
  sweep: :meth:`ResultCache.evict_superseded` drops every entry from
  older versions, which the query server wires to the store's version
  bump so memory is not held by unreachable results;
- **bounding** is a plain LRU over entries, so a cold scan storm cannot
  evict the hot dashboard set faster than it re-warms.

:func:`normalize_query` canonicalises SQL text for the cache key: two
statements that tokenise identically — modulo whitespace, keyword case
and comments — share one cache entry.  The normalised text is rebuilt
*from the token stream*, so it parses to exactly the AST of the
original (property-tested); no semantic guessing is involved.  It is a
pure function of the text, so a bounded LRU memoises it: a dashboard
re-sending the same statement tokenises it once.
"""

from __future__ import annotations

import functools
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.sql.lexer import KEYWORDS, Token, tokenize

#: Default entry bound for :class:`ResultCache`.
DEFAULT_CACHE_ENTRIES = 256

#: Distinct raw query texts whose normal form :func:`normalize_query`
#: remembers.
NORMALIZE_CACHE_ENTRIES = 1024

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _render_token(token: Token, next_token: Token | None) -> str:
    """Render one token back to parseable SQL text."""
    if token.kind == "STRING":
        return "'" + token.text.replace("'", "''") + "'"
    if token.kind == "IDENT":
        # Identifiers that would not survive re-lexing bare — special
        # characters, or a name that upper-cases to a keyword — must be
        # re-quoted; everything else renders verbatim (identifier case
        # is preserved because it names output columns).  Exception: an
        # identifier in call position — next token ``(`` — is a function
        # name, which resolves case-insensitively and renders canonical
        # uppercase in auto-generated column names, so its case folds.
        if (_PLAIN_IDENT.match(token.text) is None
                or token.text.upper() in KEYWORDS):
            return '"' + token.text + '"'
        if (next_token is not None and next_token.kind == "OP"
                and next_token.text == "("):
            return token.text.upper()
        return token.text
    return token.text


@functools.lru_cache(maxsize=NORMALIZE_CACHE_ENTRIES)
def normalize_query(sql: str) -> str:
    """Canonical text of a SQL statement, for use as a cache key.

    Tokenises and re-joins: comments vanish, runs of whitespace collapse
    to single spaces, keywords are upper-cased (the lexer already did),
    function names fold to uppercase, and string/identifier quoting is
    re-emitted canonically.  The result parses to the same AST as the
    input — queries that differ only in formatting share a cache entry,
    queries that differ semantically never do.  Raises
    :class:`~repro.sql.errors.ParseError` on input the lexer rejects
    (the server lets that propagate like any bad query; errors are not
    memoised).  Results are memoised per raw text in a bounded LRU
    (``normalize_query.cache_info()`` reports it).
    """
    tokens = [t for t in tokenize(sql) if t.kind != "EOF"]
    return " ".join(
        _render_token(token, tokens[i + 1] if i + 1 < len(tokens) else None)
        for i, token in enumerate(tokens))


@dataclass
class CacheStats:
    """Counters the serving benchmark and tests read."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0           # LRU pressure evictions
    invalidations: int = 0       # superseded-version evictions
    max_entries: int = 0
    entries: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "max_entries": self.max_entries,
        }


@dataclass
class CacheEntry:
    """One cached result with the version it was computed at."""

    version: Any
    value: Any
    hits: int = 0


class ResultCache:
    """Bounded, thread-safe LRU keyed on ``(request key, version)``.

    ``get`` only returns an entry whose stored version equals the
    version the caller observed *now*, so readers can never observe a
    result from a superseded snapshot.  All operations take an internal
    lock and never call out while holding it, which makes the cache a
    leaf in any lock order — safe to invoke from a store's version-bump
    hook (which may run under shard locks).
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: OrderedDict[tuple[Hashable, Any], CacheEntry] = \
            OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable, version: Any) -> Any | None:
        """The cached value for ``key`` at exactly ``version``, or None."""
        full_key = (key, version)
        with self._lock:
            entry = self._entries.get(full_key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(full_key)
            entry.hits += 1
            self._hits += 1
            return entry.value

    def put(self, key: Hashable, version: Any, value: Any) -> None:
        """Store a result computed at ``version`` (LRU-evicting)."""
        full_key = (key, version)
        with self._lock:
            self._entries[full_key] = CacheEntry(version=version, value=value)
            self._entries.move_to_end(full_key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def evict_superseded(self, current_version: Any) -> int:
        """Drop every entry cached at a version other than ``current``.

        Returns the number of entries removed.  Versions are monotonic
        integers in practice, but the comparison is plain inequality so
        any hashable version token works.
        """
        with self._lock:
            stale = [k for k, e in self._entries.items()
                     if e.version != current_version]
            for k in stale:
                del self._entries[k]
            self._invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                max_entries=self._max_entries,
            )
