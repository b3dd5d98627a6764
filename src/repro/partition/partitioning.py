"""Hash partitioning of data and workload across cores.

H-Store divides the database horizontally across partitions — one per core —
and runs transactions serially within each partition (paper §3.1).  S-Store
inherits this for its §4.7 multi-core experiments: "S-Store is able to
partition an input stream onto multiple cores.  Each core runs TE's of the
complete workflow in a serial, single-sited fashion for the input stream
partition to which it is assigned."

:class:`PartitionMap` records, per table, which column routes rows, and maps
partitioning-key values to partition ids.  Routing uses a stable hash (not
Python's randomised ``hash``) so placement is deterministic across runs, and
the hash mixes a **type tag** per SQL type so distinct values of different
types (``None`` vs ``0``, ``True`` vs ``1``) do not systematically collapse
onto the same partition.  The benchmark's ``partition.skew_x`` (busiest
partition's rows × partitions / rows) reads 1.3–1.5 at two partitions: its
scenarios have few keys (``firehose``'s 16 put 11 on ``p001``), not a bad hash.

The map is the coordinator-side half of
:class:`~repro.partition.PartitionedDatabase`: the facade splits ingest
batches and routes keyed calls with it, while each worker process owns a
plain single-partition engine.
"""

from __future__ import annotations

import zlib
from typing import Any

from ..common.errors import SchemaError

#: Per-type salts mixed into :func:`stable_hash` so values of different SQL
#: types never share a hash *class* (``None``/``0``, ``False``/``0``,
#: ``True``/``1``/``2`` all used to collide).  Arbitrary odd constants.
_SALT_NONE = 0x7F4A7C15
_SALT_BOOL = 0x2545F491
_SALT_INT = 0x27D4EB2F
_SALT_FLOAT = 0x165667B1
_SALT_STR = 0x1B873593

_MASK = 0x7FFFFFFF  # results are non-negative 31-bit ints


def stable_hash(value: Any) -> int:
    """Deterministic non-negative hash of a SQL value.

    Stable across runs and processes (no ``PYTHONHASHSEED`` dependence),
    and type-tagged: values that compare equal across Python types
    (``True == 1``, ``0 == 0.0 == False``) still hash to *different*
    partitioning classes, because a partition key column has one declared
    type and cross-type collisions would silently hot-spot one partition.
    """
    if value is None:
        return _SALT_NONE
    if isinstance(value, bool):
        return (_SALT_BOOL ^ int(value)) & _MASK
    if isinstance(value, int):
        # murmur3 fmix64: full avalanche, so the partition (hash % n) sees
        # every input bit.  A plain odd-multiply preserves the low bits,
        # and real key streams are exactly the kind of patterned input
        # (all-even ids, strided sequences) that turns low-bit structure
        # into one hot partition.
        h = (value ^ _SALT_INT) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        return h & _MASK
    if isinstance(value, float):
        return (zlib.crc32(repr(value).encode("utf-8")) ^ _SALT_FLOAT) & _MASK
    if isinstance(value, str):
        return (zlib.crc32(value.encode("utf-8")) ^ _SALT_STR) & _MASK
    raise SchemaError(f"value {value!r} is not hashable for partitioning")


class PartitionMap:
    """Assigns rows and requests to partitions.

    ``partition_of(value)`` is the core routing primitive.  For the Linear
    Road workload the key is the x-way id; round-robin assignment
    (``value % n``) keeps contiguous x-ways spread evenly, matching the
    paper's "we distribute the x-ways evenly across partitions".

    A table with no registered partition key cannot be routed on a
    multi-partition map: :meth:`require_partition_key` raises
    :class:`SchemaError` (**strict mode**), so a misconfigured table fails
    loudly instead of funnelling all its traffic to one partition.
    """

    __slots__ = ("num_partitions", "_table_keys", "mode")

    def __init__(self, num_partitions: int = 1, *, mode: str = "hash"):
        if num_partitions < 1:
            raise SchemaError("need at least one partition")
        if mode not in ("hash", "round_robin"):
            raise SchemaError(f"unknown partitioning mode {mode!r}")
        self.num_partitions = num_partitions
        self.mode = mode
        self._table_keys: dict[str, str] = {}

    def set_partition_key(self, table: str, column: str) -> None:
        self._table_keys[table.lower()] = column.lower()

    def partition_key(self, table: str) -> str | None:
        return self._table_keys.get(table.lower())

    def require_partition_key(self, table: str) -> str:
        """The registered key column of ``table``; raises
        :class:`SchemaError` when the map is multi-partition and the table
        has none (strict-mode routing refuses to guess)."""
        key_col = self._table_keys.get(table.lower())
        if key_col is None and self.num_partitions > 1:
            raise SchemaError(
                f"table {table!r} has no partition key registered in a "
                f"{self.num_partitions}-partition map; register one with "
                f"set_partition_key() (or route with an explicit key)"
            )
        return key_col if key_col is not None else ""

    def partition_of(self, value: Any) -> int:
        """The partition of a key value.  A float with an integral value
        routes as that int, in both modes: a worker stores ``3.0`` in an
        INTEGER column as ``3``, and index equality matches ``3 == 3.0``
        (and ``0 == -0.0``), so keyed reads must route the twins alike.
        NaN, the infinities and non-integral floats keep the float hash."""
        if self.num_partitions == 1:
            return 0
        if type(value) is float and value.is_integer():
            value = int(value)
        if self.mode == "round_robin" and isinstance(value, int):
            return value % self.num_partitions
        return stable_hash(value) % self.num_partitions
