"""LRU cache of prepared statements, keyed by SQL text.

H-Store-style engines execute the same handful of statements millions of
times (every stored-procedure invocation reuses the procedure's SQL), so
repeated statements must skip the lexer, parser, and planner entirely.
The cache is a plain ``OrderedDict`` LRU: a hit moves the entry to the
MRU end; inserting past capacity evicts the LRU entry.

Hits and misses are counted once, on the owning database's
:class:`~repro.common.clock.EventLedger` (``plan_cache_hit`` and
``sql_plan``), and :meth:`PlanCache.stats` reads them from there;
evictions, replans and stats invalidations are the cache's own tallies.

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

from ..common.clock import EventLedger
from ..sql.planner import PreparedStatement


class PlanCache:
    """Bounded LRU mapping ``sql text -> PreparedStatement``; lookups count
    on ``events`` (a private ledger when none is given)."""

    __slots__ = (
        "capacity", "events", "evictions", "stats_invalidations", "replans", "_entries",
    )

    def __init__(self, capacity: int = 256, events: Optional[EventLedger] = None):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.events = EventLedger() if events is None else events
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
            self.events.sql_plan += 1
            return None
        if epoch is not None and not stmt.fresh(epoch, stats_version):
            del self._entries[sql]
            if stmt.stats_version != stats_version:
                self.stats_invalidations += 1
            else:  # DDL clears the cache, so what is left is a row band
                self.replans += 1
            self.events.sql_plan += 1
            return None
        self._entries.move_to_end(sql)
        self.events.plan_cache_hit += 1
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
        served = self.events.plan_cache_hit + pin_hits
        total = served + self.events.sql_plan
        return served / total if total else 0.0

    def stats(self, pin_hits: int = 0) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.events.plan_cache_hit,
            "pin_hits": pin_hits,
            "misses": self.events.sql_plan,
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
            f"hits={self.events.plan_cache_hit}, misses={self.events.sql_plan})"
        )
