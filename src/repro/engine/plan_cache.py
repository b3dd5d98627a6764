"""LRU cache of prepared statements, keyed by SQL text.

H-Store-style engines execute the same handful of statements millions of
times (every stored-procedure invocation reuses the procedure's SQL), so
repeated statements must skip the lexer, parser, and planner entirely.
The cache is a plain ``OrderedDict`` LRU: a hit moves the entry to the
MRU end; inserting past capacity evicts the LRU entry.

Hits, misses, and evictions are counted so the benchmark harness can
report the cache hit rate and tests can assert that a repeated statement
was planned exactly once.

Entries are additionally validated by the one plan-reuse rule,
:meth:`PreparedStatement.fresh <repro.sql.planner.PreparedStatement.fresh>`:
a cached plan stamped with an older :attr:`StatsCatalog.version` (an
ANALYZE or automatic stats refresh happened — counted as a
``stats_invalidation``), or costed against a table whose row count has
since left its band (counted as a ``replan``), is evicted and reported
as a miss, so the caller replans without a schema-epoch bump.  Schema
epochs *reject* stale plans at execution; statistics and row-count
staleness must only ever trigger a replan — such a plan is suboptimal,
never incorrect.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from ..sql.planner import PreparedStatement


class PlanCache:
    """Bounded LRU mapping ``sql text -> PreparedStatement``."""

    __slots__ = (
        "capacity", "hits", "misses", "evictions", "stats_invalidations",
        "replans", "_entries",
    )

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stats_invalidations = 0
        self.replans = 0
        self._entries: OrderedDict[str, PreparedStatement] = OrderedDict()

    def get(
        self, sql: str, epoch: Optional[int] = None, stats_version: Optional[int] = None
    ) -> Optional[PreparedStatement]:
        """Look up a plan; with ``epoch`` given the entry must also be
        :meth:`~repro.sql.planner.PreparedStatement.fresh` under it and
        ``stats_version``, else it is stale — evicted and reported as a
        miss so the caller replans."""
        stmt = self._entries.get(sql)
        if stmt is None:
            self.misses += 1
            return None
        if epoch is not None and not stmt.fresh(epoch, stats_version):
            del self._entries[sql]
            if stmt.stats_version != stats_version:
                self.stats_invalidations += 1
            else:  # DDL clears the cache, so what is left is a row band
                self.replans += 1
            self.misses += 1
            return None
        self._entries.move_to_end(sql)
        self.hits += 1
        return stmt

    def put(self, sql: str, stmt: PreparedStatement) -> None:
        self._entries[sql] = stmt
        self._entries.move_to_end(sql)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, sql: str) -> None:
        self._entries.pop(sql, None)

    def clear(self) -> None:
        """Drop all entries (schema changes invalidate every plan)."""
        self._entries.clear()

    def hit_rate(self, pin_hits: int = 0) -> float:
        """Share of plan lookups answered without planning.  ``pin_hits``
        are the lookups stored procedures answered from their pin tables:
        they never reach the cache, yet they are most of the traffic."""
        served = self.hits + pin_hits
        total = served + self.misses
        return served / total if total else 0.0

    def stats(self, pin_hits: int = 0) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "pin_hits": pin_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stats_invalidations": self.stats_invalidations,
            "replans": self.replans,
            "hit_rate": self.hit_rate(pin_hits),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
