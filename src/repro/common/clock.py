"""The engine's event ledger, and simulated time as a function of it.

The paper's *relative* results are driven by counts of architectural
events — batch submissions, trigger firings, synchronous log writes, plan
compilations, index probes versus full scans — not by the absolute speed
of its 64-core Xeon.  Every engine here does its data work for real and
*counts* each such event in one :class:`EventLedger` (a plain ``+=`` on an
int slot; ``stats()["events"]``).  Simulated time, :func:`sim_time_us`, is
a pure function of those counts: deterministic and machine-independent,
it reproduces the paper's *shapes* (``benchmarks/paper_shapes.py``) and
is not a performance measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional


@dataclass
class CostModel:
    """Costs, in simulated microseconds, of the architectural events the
    engine counts in its :class:`EventLedger`.

    client_submit_us
        Asynchronous submission cost of one ingested atomic batch (the
        stream-injection path).
    txn_begin_us / txn_commit_us / txn_abort_us
        Transaction boundary costs charged by the engine's transactional
        front door: opening a transaction (explicit ``begin()`` or the
        implicit wrapper around an auto-commit statement), committing it,
        and aborting it (the abort additionally charges ``sql_row_us`` per
        undo-log record replayed, tallied as ``rows_undone`` events).
    sql_stmt_us / sql_row_us / index_probe_us
        Per-statement fixed cost, per-row scan/materialisation cost, and
        per-index-probe cost inside the EE.
    sql_plan_us / plan_cache_hit_us
        Cold lex+parse+plan cost of one statement versus the cost of a
        prepared-statement cache hit.  H-Store plans stored-procedure SQL
        at deployment time; the gap between these two is the compile-once
        advantage the plan cache buys on every repeated statement.
    ee_trigger_us / pe_trigger_us
        Firing one execution-engine / partition-engine trigger (§3.2.3).
    window_slide_us
        Native window slide bookkeeping (§3.2.2).
    log_write_us / log_group_commit_us
        A synchronous command-log write, and the amortised per-transaction
        cost when group commit is enabled (§3.1, §4.4).
    snapshot_row_us
        Per-row cost of writing or loading a checkpoint.
    """

    client_submit_us: float = 30.0
    txn_begin_us: float = 8.0
    txn_commit_us: float = 12.0
    txn_abort_us: float = 20.0
    sql_stmt_us: float = 5.0
    sql_row_us: float = 0.05
    index_probe_us: float = 0.5
    sql_plan_us: float = 75.0
    plan_cache_hit_us: float = 0.4
    ee_trigger_us: float = 3.0
    pe_trigger_us: float = 5.0
    window_slide_us: float = 4.0
    log_write_us: float = 400.0
    log_group_commit_us: float = 40.0
    snapshot_row_us: float = 0.2


#: Every event the ledger counts, and the ``CostModel`` field that prices
#: one occurrence (None: a tally only, free in simulated time).
EVENTS: dict[str, Optional[str]] = {
    "sql_stmt": "sql_stmt_us",
    "rows_scanned": "sql_row_us",
    "index_probes": "index_probe_us",
    "rows_inserted": "sql_row_us",
    "rows_updated": "sql_row_us",
    "rows_deleted": "sql_row_us",
    "rows_undone": "sql_row_us",
    "sql_plan": "sql_plan_us",
    "plan_cache_hit": "plan_cache_hit_us",
    "txn_begin": "txn_begin_us",
    "txn_commit": "txn_commit_us",
    "txn_abort": "txn_abort_us",
    "txn_implicit": None,  # auto-commit wrappers, also counted as txn_begin
    "procedure_call": None,
    "client_submit": "client_submit_us",
    "ee_trigger": "ee_trigger_us",
    "pe_trigger": "pe_trigger_us",
    "window_slide": "window_slide_us",
    "log_write": "log_write_us",
    "log_group_commit": "log_group_commit_us",
    "snapshot_row": "snapshot_row_us",
}


class EventLedger:
    """One int slot per event of :data:`EVENTS`, all starting at 0; the
    engine counts with ``events.txn_begin += 1``."""

    __slots__ = tuple(EVENTS)

    def __init__(self) -> None:
        for event in EVENTS:
            setattr(self, event, 0)

    def snapshot(self) -> dict[str, int]:
        """The non-zero tallies, in :data:`EVENTS` order."""
        return {event: n for event in EVENTS if (n := getattr(self, event))}


def sim_time_us(events: Mapping[str, int], cost: Optional[CostModel] = None) -> float:
    """Simulated microseconds of ``events`` (an :meth:`EventLedger.snapshot`):
    Σ count × price, at the default :class:`CostModel` unless ``cost`` is
    given."""
    cost = cost or CostModel()
    return sum((n * getattr(cost, EVENTS[e]) for e, n in events.items() if EVENTS[e]), 0.0)
