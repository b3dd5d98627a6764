"""Streams: time-varying tables ingested in atomic batches (paper §3.2.1).

*"S-Store implements a stream as a time-varying, H-Store table"* — a
:class:`Stream` wraps an ordinary :class:`~repro.storage.table.Table` of
:class:`~repro.storage.schema.TableKind.STREAM` whose schema is the user's
declared schema **extended** with two hidden metadata columns:

``__batch_id__``
    The atomic batch the tuple arrived in.  Batch ids are dense and
    strictly increasing per stream (starting at 1); a batch is the unit of
    both transactional ingest and trigger-driven downstream processing.
``__seq__``
    A per-stream arrival sequence number.  Monotonically increasing and
    never reused (aborted ingests leave gaps, like rowids), it gives
    windows a total arrival order even across batches.

The ingest contract (enforced by the runtime, surfaced as
:class:`~repro.common.errors.BatchOrderError`):

* batch ``last_committed + 1`` is applied immediately, as one transaction;
* a batch from the future (``> last_committed + 1``) is **queued** and
  applied — in order, each as its own transaction — once the gap fills;
* a batch at or before ``last_committed`` (or already queued) is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..common.types import ColumnType
from ..storage.schema import Column, TableKind, TableSchema
from ..storage.table import Table

#: Hidden metadata column names shared by streams and windows.
BATCH_COLUMN = "__batch_id__"
SEQ_COLUMN = "__seq__"

#: The metadata columns appended to a declared stream schema.
STREAM_METADATA = (
    Column(BATCH_COLUMN, ColumnType.BIGINT, nullable=False),
    Column(SEQ_COLUMN, ColumnType.BIGINT, nullable=False),
)


def stream_schema(declared: TableSchema) -> TableSchema:
    """The physical schema of a stream: declared columns + hidden metadata."""
    return declared.extended(STREAM_METADATA, kind=TableKind.STREAM)


@dataclass(frozen=True)
class Batch:
    """One committed atomic batch: the unit of dataflow in a workflow.

    ``rows`` are declared-width tuples (hidden metadata stripped), in
    arrival order — what a downstream stored procedure receives.
    """

    stream: str
    batch_id: int
    rows: tuple

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Batch({self.stream!r}, id={self.batch_id}, rows={len(self.rows)})"


@dataclass
class Stream:
    """One registered stream: its table, declared schema, and batch state."""

    declared: TableSchema
    table: Table
    #: highest batch id made durable by a committed transaction
    last_committed: int = 0
    #: next arrival sequence number (gaps allowed: aborts consume numbers)
    next_seq: int = 1
    #: out-of-order future batches waiting for the gap to fill,
    #: ``batch_id -> declared rows``, coerced by ``ingest`` before queueing
    pending: dict[int, Sequence[Any]] = field(default_factory=dict)
    #: garbage-collection low-watermark: rows of batches **below** this id
    #: have been reclaimed (every workflow subscriber consumed them); the
    #: horizon batch itself is retained so the newest consumed contents
    #: stay queryable
    gc_horizon: int = 0
    #: lifetime count of rows dropped by stream GC (``stats()`` surfaces it)
    reclaimed_rows: int = 0

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def expected_batch(self) -> int:
        """The only batch id that can be applied right now."""
        return self.last_committed + 1

    def next_auto_batch(self) -> int:
        """Default batch id for an ingest that does not name one: after the
        newest batch this stream has seen (committed or queued)."""
        newest = max(self.pending) if self.pending else self.last_committed
        return max(newest, self.last_committed) + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Stream({self.name!r}, last_batch={self.last_committed}, "
            f"pending={sorted(self.pending)})"
        )
