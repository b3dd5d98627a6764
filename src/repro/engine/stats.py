"""Table statistics backing the cost-based planner.

Two freshness tiers, matching what each number costs to keep:

* **row counts are always live** — ``Table.row_count()`` is a ``len()``,
  so the planner reads it at plan time (through its one floored helper,
  ``PlanEnv.rows``) and never from here;
* **per-column NDV / min / max / null counts** come from an explicit
  ``ANALYZE`` (``Database.analyze()`` or the ``ANALYZE [table]``
  statement), which scans the visible rows once, or from **automatic
  refresh**: once a table has been analyzed, any later plan whose row
  count has drifted past a threshold re-analyzes it first.

Every refresh bumps :attr:`StatsCatalog.version`.  The plan cache keys
entries by this version (see :mod:`repro.engine.plan_cache`), so a stats
refresh invalidates cached plans *without* a schema-epoch bump — a
stats-stale plan is merely suboptimal, not incorrect, so execution never
rejects one; only the cache replans on the next prepare.
"""

from __future__ import annotations

from typing import Any, Optional

from ..storage.catalog import Catalog
from ..storage.table import Table

#: eq selectivity assumed for a column with no collected stats (System R's
#: classic 1/10), and the matching default distinct-value count.
DEFAULT_EQ_SELECTIVITY = 0.1
#: selectivity assumed for a range conjunct whose bounds are parameters
#: (unknown until execution) or fall outside the collected min/max.
DEFAULT_RANGE_SELECTIVITY = 0.3


class ColumnStats:
    """Distribution summary of one column at analyze time."""

    __slots__ = ("ndv", "min", "max", "null_count")

    def __init__(self, ndv: int, min_value: Any, max_value: Any, null_count: int):
        self.ndv = ndv
        self.min = min_value
        self.max = max_value
        self.null_count = null_count

    def as_dict(self) -> dict[str, Any]:
        return {
            "ndv": self.ndv,
            "min": self.min,
            "max": self.max,
            "null_count": self.null_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnStats(ndv={self.ndv}, min={self.min!r}, max={self.max!r})"


class TableStats:
    """One table's analyzed snapshot: row count then, columns' summaries."""

    __slots__ = ("table_name", "analyzed_rows", "columns")

    def __init__(self, table_name: str, analyzed_rows: int, columns: dict[str, ColumnStats]):
        self.table_name = table_name
        self.analyzed_rows = analyzed_rows
        self.columns = columns

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def as_dict(self) -> dict[str, Any]:
        return {
            "analyzed_rows": self.analyzed_rows,
            "columns": {c: s.as_dict() for c, s in self.columns.items()},
        }


def analyze_table(table: Table) -> TableStats:
    """Scan ``table``'s visible rows once and summarise every column."""
    names = table.schema.column_names()
    distinct: list[set] = [set() for _ in names]
    mins: list[Any] = [None] * len(names)
    maxs: list[Any] = [None] * len(names)
    nulls = [0] * len(names)
    rows = 0
    for _rowid, row in table.scan_visible():
        rows += 1
        for i, value in enumerate(row):
            if value is None:
                nulls[i] += 1
                continue
            distinct[i].add(value)
            try:
                if mins[i] is None or value < mins[i]:
                    mins[i] = value
                if maxs[i] is None or value > maxs[i]:
                    maxs[i] = value
            except TypeError:  # mixed-type column: keep NDV, drop the range
                mins[i] = maxs[i] = None
    columns = {
        name: ColumnStats(len(distinct[i]), mins[i], maxs[i], nulls[i])
        for i, name in enumerate(names)
    }
    return TableStats(table.name, rows, columns)


class StatsCatalog:
    """All analyzed tables plus the version counter plans are keyed by.

    ``auto_refresh_fraction`` / ``auto_refresh_floor`` control the drift
    threshold: an analyzed table is re-analyzed (on the next prepare that
    checks) once its live row count differs from the analyzed count by at
    least ``max(floor, fraction * analyzed_rows)`` rows.  Tables never
    analyzed are never auto-analyzed — ``ANALYZE`` is the opt-in.
    """

    __slots__ = (
        "version",
        "refreshes",
        "auto_refreshes",
        "auto_refresh_fraction",
        "auto_refresh_floor",
        "_tables",
    )

    def __init__(
        self,
        *,
        auto_refresh_fraction: float = 0.5,
        auto_refresh_floor: int = 256,
    ):
        self.version = 0
        self.refreshes = 0
        self.auto_refreshes = 0
        self.auto_refresh_fraction = auto_refresh_fraction
        self.auto_refresh_floor = auto_refresh_floor
        self._tables: dict[str, TableStats] = {}

    # -- collection ----------------------------------------------------------

    def analyze(self, table: Table) -> TableStats:
        stats = analyze_table(table)
        self._tables[table.name] = stats
        self.refreshes += 1
        self.version += 1
        return stats

    def maybe_auto_refresh(self, catalog: Catalog) -> bool:
        """Re-analyze any analyzed table whose row count drifted past the
        threshold; True when anything refreshed (version bumped)."""
        refreshed = False
        for name, stats in list(self._tables.items()):
            try:
                table = catalog.table(name)
            except Exception:
                self._tables.pop(name, None)  # table dropped since analyze
                continue
            drift = abs(table.row_count() - stats.analyzed_rows)
            threshold = max(
                self.auto_refresh_floor,
                int(self.auto_refresh_fraction * stats.analyzed_rows),
            )
            if drift >= threshold:
                self.analyze(table)
                self.auto_refreshes += 1
                refreshed = True
        return refreshed

    # -- lookup --------------------------------------------------------------

    def get(self, table_name: str) -> Optional[TableStats]:
        return self._tables.get(table_name)

    def drop(self, table_name: str) -> None:
        self._tables.pop(table_name, None)

    def clear(self) -> None:
        self._tables.clear()

    # -- estimation ----------------------------------------------------------

    def eq_selectivity(self, table: Table, column: str) -> float:
        """Fraction of rows expected to survive ``column = <value>``."""
        stats = self._tables.get(table.name)
        col = stats.column(column) if stats is not None else None
        if col is not None and col.ndv > 0:
            return min(1.0, 1.0 / col.ndv)
        return DEFAULT_EQ_SELECTIVITY

    def range_selectivity(
        self,
        table: Table,
        column: str,
        lo: Any,
        hi: Any,
    ) -> float:
        """Fraction expected inside ``[lo, hi]`` (either bound may be None =
        unbounded/unknown).  Numeric min/max stats interpolate; anything
        else falls back to the default."""
        stats = self._tables.get(table.name)
        col = stats.column(column) if stats is not None else None
        if (
            col is None
            or not isinstance(col.min, (int, float))
            or not isinstance(col.max, (int, float))
            or isinstance(col.min, bool)
        ):
            return DEFAULT_RANGE_SELECTIVITY
        span = col.max - col.min
        if span <= 0:
            return 1.0  # single-valued column: a covering range keeps all
        eff_lo = col.min
        eff_hi = col.max
        if isinstance(lo, (int, float)) and not isinstance(lo, bool):
            eff_lo = max(eff_lo, lo)
        elif lo is not None:
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(hi, (int, float)) and not isinstance(hi, bool):
            eff_hi = min(eff_hi, hi)
        elif hi is not None:
            return DEFAULT_RANGE_SELECTIVITY
        if eff_hi < eff_lo:
            return 0.0
        return min(1.0, max(0.0, (eff_hi - eff_lo) / span))

    # -- surfacing -----------------------------------------------------------

    def stats_section(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "refreshes": self.refreshes,
            "auto_refreshes": self.auto_refreshes,
            "analyzed": {name: s.as_dict() for name, s in sorted(self._tables.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StatsCatalog(version={self.version}, "
            f"analyzed={sorted(self._tables)})"
        )
