"""Secondary indexes: hash (equality) and ordered (range) indexes.

Indexes map key tuples — extracted from rows via the owning table's schema —
to row ids.  The table maintains its indexes on every insert/delete/update;
the SQL planner picks an index when a WHERE clause has a matching equality
or range predicate (paper §4.6.3 hinges on exactly this: S-Store validates
votes with "a lookup rather than a table scan").
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from ..common.errors import ConstraintViolation

_KEY0 = itemgetter(0)


class HashIndex:
    """Equality index: key tuple → set of row ids.

    With ``unique=True`` the index enforces at most one row per key and
    raises :class:`ConstraintViolation` on duplicates (used for PRIMARY KEY
    and UNIQUE constraints).
    """

    __slots__ = ("name", "key_columns", "unique", "_map")

    def __init__(self, name: str, key_columns: Sequence[str], *, unique: bool = False):
        self.name = name
        self.key_columns = tuple(c.lower() for c in key_columns)
        self.unique = unique
        self._map: dict[tuple, set[int] | int] = {}

    def insert(self, key: tuple, rowid: int) -> None:
        if self.unique:
            if key in self._map:
                raise ConstraintViolation(
                    f"unique index {self.name!r}: duplicate key {key!r}"
                )
            self._map[key] = rowid
        else:
            self._map.setdefault(key, set()).add(rowid)  # type: ignore[union-attr]

    def insert_many(self, keys: Sequence[tuple], first_rowid: int) -> None:
        """Bulk insert: key ``i`` maps to rowid ``first_rowid + i``.

        Keys containing NULL are skipped (NULL never indexes).  For unique
        indexes the caller is expected to have pre-checked the whole batch
        (including intra-batch duplicates); duplicates still raise here as
        a last line of defence.
        """
        m = self._map
        if self.unique:
            for i, key in enumerate(keys):
                if None in key:
                    continue
                if key in m:
                    raise ConstraintViolation(
                        f"unique index {self.name!r}: duplicate key {key!r}"
                    )
                m[key] = first_rowid + i
        else:
            setdefault = m.setdefault
            for i, key in enumerate(keys):
                if None in key:
                    continue
                setdefault(key, set()).add(first_rowid + i)  # type: ignore[union-attr]

    def delete(self, key: tuple, rowid: int) -> None:
        entry = self._map.get(key)
        if entry is None:
            return
        if self.unique:
            if entry == rowid:
                del self._map[key]
        else:
            entry.discard(rowid)  # type: ignore[union-attr]
            if not entry:
                del self._map[key]

    def delete_many(self, entries: Iterable[tuple[tuple, int]]) -> None:
        """Bulk delete of ``(key, rowid)`` pairs in one loop.  Keys
        containing NULL are skipped (they were never inserted)."""
        for key, rowid in entries:
            if None in key:
                continue
            self.delete(key, rowid)

    def lookup(self, key: tuple) -> Iterator[int]:
        """Row ids matching ``key`` exactly (deterministic order)."""
        entry = self._map.get(key)
        if entry is None:
            return iter(())
        if self.unique:
            return iter((entry,))  # type: ignore[arg-type]
        return iter(sorted(entry))  # type: ignore[arg-type]

    def contains(self, key: tuple) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    def clear(self) -> None:
        self._map.clear()


class OrderedIndex:
    """Range index over a single column, kept as a sorted key list.

    Supports ``range_scan(lo, hi)`` with optional open bounds.  NULL keys are
    not indexed (SQL semantics: NULL never matches a range predicate).
    """

    __slots__ = ("name", "key_columns", "_keys", "_rowids")

    def __init__(self, name: str, key_columns: Sequence[str]):
        if len(key_columns) != 1:
            raise ValueError("OrderedIndex supports exactly one key column")
        self.name = name
        self.key_columns = tuple(c.lower() for c in key_columns)
        self._keys: list[Any] = []
        self._rowids: list[int] = []

    def insert(self, key: tuple, rowid: int) -> None:
        value = key[0]
        if value is None:
            return
        pos = bisect.bisect_right(self._keys, value)
        self._keys.insert(pos, value)
        self._rowids.insert(pos, rowid)

    def insert_many(self, keys: Sequence[tuple], first_rowid: int) -> None:
        """Bulk insert: key ``i`` maps to rowid ``first_rowid + i``.

        The batch is sorted once and merged with the existing contents —
        the concatenation is two sorted runs, which Timsort merges in
        O(n + m) — instead of paying one O(n) ``list.insert`` per key.
        NULL keys are skipped (never indexed).  Stability of both sorts
        keeps equal keys in arrival order, matching ``bisect_right``
        insertion.
        """
        new = [
            (key[0], first_rowid + i)
            for i, key in enumerate(keys)
            if key[0] is not None
        ]
        if not new:
            return
        new.sort(key=_KEY0)
        if self._keys:
            pairs = list(zip(self._keys, self._rowids))
            pairs.extend(new)
            pairs.sort(key=_KEY0)
            new = pairs
        self._keys = [k for k, _ in new]
        self._rowids = [r for _, r in new]

    def delete(self, key: tuple, rowid: int) -> None:
        value = key[0]
        if value is None:
            return
        lo = bisect.bisect_left(self._keys, value)
        hi = bisect.bisect_right(self._keys, value)
        for i in range(lo, hi):
            if self._rowids[i] == rowid:
                del self._keys[i]
                del self._rowids[i]
                return

    def delete_many(self, entries: Iterable[tuple[tuple, int]]) -> None:
        """Bulk delete of ``(key, rowid)`` pairs: one O(n) filter pass over
        the sorted lists instead of one O(n) ``list.__delitem__`` per row."""
        doomed = {rowid for _key, rowid in entries}
        if not doomed:
            return
        keep_keys, keep_rowids = [], []
        for value, rowid in zip(self._keys, self._rowids):
            if rowid not in doomed:
                keep_keys.append(value)
                keep_rowids.append(rowid)
        self._keys = keep_keys
        self._rowids = keep_rowids

    def lookup(self, key: tuple) -> Iterator[int]:
        value = key[0]
        if value is None:
            return iter(())
        lo = bisect.bisect_left(self._keys, value)
        hi = bisect.bisect_right(self._keys, value)
        return iter(self._rowids[lo:hi])

    def contains(self, key: tuple) -> bool:
        value = key[0]
        if value is None:
            return False
        i = bisect.bisect_left(self._keys, value)
        return i < len(self._keys) and self._keys[i] == value

    def range_scan(
        self,
        lo: Any = None,
        hi: Any = None,
        *,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[int]:
        """Row ids with key in the given range, in key order."""
        if lo is None:
            start = 0
        elif lo_inclusive:
            start = bisect.bisect_left(self._keys, lo)
        else:
            start = bisect.bisect_right(self._keys, lo)
        if hi is None:
            end = len(self._keys)
        elif hi_inclusive:
            end = bisect.bisect_right(self._keys, hi)
        else:
            end = bisect.bisect_left(self._keys, hi)
        return iter(self._rowids[start:end])

    def min_key(self) -> Any:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Any:
        return self._keys[-1] if self._keys else None

    @property
    def unique(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self._keys)

    def clear(self) -> None:
        self._keys.clear()
        self._rowids.clear()


Index = HashIndex | OrderedIndex


def rebuild(index: Index, rows: Iterable[tuple[int, tuple]], key_of) -> None:
    """Rebuild an index from scratch over ``(rowid, row)`` pairs.  Keys
    containing NULL are skipped, as on every other write path (SQL: NULL
    is distinct from every value, including NULL)."""
    index.clear()
    for rowid, row in rows:
        key = key_of(row, index.key_columns)
        if None not in key:
            index.insert(key, rowid)
