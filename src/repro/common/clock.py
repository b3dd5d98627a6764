"""Deterministic simulated time and the architectural cost model.

Why simulated time
==================
The paper's evaluation ran a Java/C++ engine on a 64-core Xeon; absolute
CPython wall-clock numbers cannot (and should not) be compared to that.  The
paper's *relative* results, however, are driven entirely by counts of
architectural events — batch submissions, trigger firings, synchronous log
writes, plan compilations, and index probes versus full scans.  This module
makes those events explicit:

* every engine in this repository does its data work for real (real tuples,
  real SQL, real logs), and
* every performance-relevant event *additionally* advances a deterministic
  :class:`SimClock` by an amount taken from a :class:`CostModel`.

Simulated time is deterministic and machine-independent, and — because
event counts are exact — reproduces the paper's *shapes*; it is not a
performance measurement.  It is read through ``stats()["sim_time_us"]``,
which ``benchmarks/paper_shapes.py`` turns into the §4.6/§4.7 figures.

The clock also tallies event counts, which the test suite asserts on
directly (e.g. "weak recovery wrote exactly one log record per workflow").

The clock is a *view over counters*: the events the engine produces per
statement (``sql_stmt``, rows scanned/written, index probes) are only
*counted* on the hot path — plain ``+=`` on int slots of the clock — and
priced (count × ``CostModel`` cost) when simulated time or the event
tallies are next read.  Nothing on the execution path reads them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass
class CostModel:
    """Costs, in simulated microseconds, of the architectural events the
    engine charges on its :class:`SimClock`.

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


#: Events counted in int slots of the clock and priced on read:
#: (event and slot name, ``CostModel`` field charged per occurrence).
TALLIED_EVENTS: tuple[tuple[str, str], ...] = (
    ("sql_stmt", "sql_stmt_us"),
    ("rows_scanned", "sql_row_us"),
    ("index_probes", "index_probe_us"),
    ("rows_inserted", "sql_row_us"),
    ("rows_updated", "sql_row_us"),
    ("rows_deleted", "sql_row_us"),
)


class SimClock:
    """A deterministic logical clock measured in microseconds.

    :meth:`charge` advances time by a named cost and tallies the event.
    Event tallies (:attr:`events`) let tests assert on exact architectural
    event counts independently of the cost table in use.

    The per-statement events of ``TALLIED_EVENTS`` bypass :meth:`charge`: the
    engine adds their counts onto the like-named int slots
    (``clock.rows_scanned += n``), and reading :attr:`now_us`,
    :attr:`events` or :attr:`charged_us` first folds the unpriced counts
    in at the cost table's current prices.  Event counts are exact either
    way; simulated time differs from eager charging only in float
    summation order.
    """

    __slots__ = (
        "cost", "_now_us", "_events", "_charged_us", *(event for event, _ in TALLIED_EVENTS)
    )

    def __init__(self, cost: CostModel | None = None):
        self.cost = cost if cost is not None else CostModel()
        self._now_us: float = 0.0
        self._events: Counter[str] = Counter()
        self._charged_us: Counter[str] = Counter()
        for event, _ in TALLIED_EVENTS:
            setattr(self, event, 0)

    def _priced(self) -> "SimClock":
        """Fold every counted-but-unpriced event into time and tallies."""
        for event, cost_field in TALLIED_EVENTS:
            n = getattr(self, event)
            if n:
                setattr(self, event, 0)
                self.charge(event, getattr(self.cost, cost_field) * n, count=n)
        return self

    @property
    def now_us(self) -> float:
        return self._priced()._now_us

    @property
    def events(self) -> Counter[str]:
        return self._priced()._events

    @property
    def charged_us(self) -> Counter[str]:
        return self._priced()._charged_us

    # -- charging -----------------------------------------------------------

    def charge(self, event: str, us: float, *, count: int = 1) -> None:
        """Advance the clock by ``us`` and record ``count`` ``event``s."""
        self._now_us += us
        self._events[event] += count
        self._charged_us[event] += us

    def charge_cost(self, event: str, *, count: int = 1) -> None:
        """Charge ``count`` occurrences of a named :class:`CostModel` field.

        ``event`` must be the name of a ``CostModel`` attribute without the
        ``_us`` suffix, e.g. ``charge_cost("pe_trigger")``.
        """
        unit = getattr(self.cost, f"{event}_us")
        self.charge(event, unit * count, count=count)

    def snapshot_events(self) -> Counter[str]:
        """A copy of the event tally (for before/after diffs in tests)."""
        return Counter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now_us={self.now_us:.1f}, events={sum(self.events.values())})"

