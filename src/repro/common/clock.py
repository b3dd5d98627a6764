"""Deterministic simulated time and the architectural cost model.

Why simulated time
==================
The paper's evaluation ran a Java/C++ engine on a 64-core Xeon; absolute
CPython wall-clock numbers cannot (and should not) be compared to that.  The
paper's *relative* results, however, are driven entirely by counts of
architectural events — client round trips, PE→EE dispatches, trigger firings,
synchronous log writes, KV-store round trips, micro-batch scheduling, and
index probes versus full scans.  This module makes those events explicit:

* every engine in this repository does its data work for real (real tuples,
  real SQL, real logs), and
* every performance-relevant event *additionally* advances a deterministic
  :class:`SimClock` by an amount taken from a :class:`CostModel`.

Throughput and latency reported by the benchmark harness are computed from
simulated time, so results are deterministic, machine-independent, and —
because event counts are exact — reproduce the paper's shapes faithfully.
``CostModel.calibrated()`` returns the cost table used for EXPERIMENTS.md;
the ablation benchmark sweeps these costs to show conclusions are robust.

The clock also tallies event counts, which the test suite asserts on
directly (e.g. "weak recovery wrote exactly one log record per workflow").

The clock is a *view over counters*: the events the engine produces per
statement (``sql_stmt``, rows scanned/written, index probes) are only
*counted* on the hot path — plain ``+=`` on int slots of the clock — and
priced (count × ``CostModel`` cost) when simulated time or the event
tallies are next read.  Nothing on the execution path reads them.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class CostModel:
    """Costs, in simulated microseconds, of the architectural events the
    paper's evaluation attributes performance differences to.

    H-Store / S-Store engine costs
    ------------------------------
    client_rtt_us
        One synchronous client↔PE round trip.  Paid when a client must wait
        for a transaction result before submitting the next request (the
        H-Store workflow pattern of §4.2/§4.5).
    client_submit_us
        Asynchronous submission cost of one request or one ingested atomic
        batch (the stream-injection path).
    txn_base_us
        Fixed per-transaction-execution overhead: scheduling, begin/commit
        bookkeeping.
    txn_begin_us / txn_commit_us / txn_abort_us
        Transaction boundary costs charged by the engine's transactional
        front door: opening a transaction (explicit ``begin()`` or the
        implicit wrapper around an auto-commit statement), committing it,
        and aborting it (the abort additionally charges ``sql_row_us`` per
        undo-log record replayed, tallied as ``rows_undone`` events).
    pe_ee_rtt_us
        One PE→EE dispatch of a batch of SQL statements (§4.1 calls these
        "execution batches").
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

    Comparison-system costs (§4.6)
    ------------------------------
    kv_rtt_us / kv_op_us
        Round trip to an external KV store (Redis for Spark, Memcached for
        Trident) and the server-side cost of one operation.
    spark_batch_overhead_us / spark_task_us / spark_row_us / rdd_create_us
        D-Stream micro-batch scheduling, per-task launch, per-row
        transformation cost, and creation of one immutable RDD + lineage node.
    storm_emit_us / storm_ack_us
        Per-tuple emit between bolts and the acker round trip that backs
        at-least-once semantics.
    trident_batch_us
        Per mini-batch exactly-once coordination cost in Trident.

    Multi-core (§4.7)
    -----------------
    partition_overhead_frac
        Fractional per-partition maintenance drag added for every partition
        beyond the first (the paper observes "about 5-10 percent drop-off
        per added core").
    """

    client_rtt_us: float = 550.0
    client_submit_us: float = 30.0
    txn_base_us: float = 30.0
    txn_begin_us: float = 8.0
    txn_commit_us: float = 12.0
    txn_abort_us: float = 20.0
    pe_ee_rtt_us: float = 25.0
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

    kv_rtt_us: float = 150.0
    kv_op_us: float = 2.0
    spark_batch_overhead_us: float = 50_000.0
    spark_task_us: float = 200.0
    spark_row_us: float = 0.5
    rdd_create_us: float = 20.0
    storm_emit_us: float = 8.0
    storm_ack_us: float = 12.0
    trident_batch_us: float = 1_000.0

    partition_overhead_frac: float = 0.07

    @classmethod
    def calibrated(cls) -> "CostModel":
        """The cost table used for all EXPERIMENTS.md numbers.

        Values are the dataclass defaults; this constructor exists so call
        sites document that they rely on the calibrated table.
        """
        return cls()

    @classmethod
    def free(cls) -> "CostModel":
        """A zero-cost model: the clock never advances.

        Used by correctness tests that do not care about simulated time.
        """
        zeroed = {f.name: 0.0 for f in dataclasses.fields(cls)}
        return cls(**zeroed)

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with selected costs replaced (for ablations)."""
        return dataclasses.replace(self, **overrides)


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

    The clock supports two operations: :meth:`charge`, which advances time by
    a named cost and tallies the event, and :meth:`advance_to`, used by
    workload drivers to model event arrival times.  Event tallies
    (:attr:`events`) let tests assert on exact architectural event counts
    independently of the cost table in use.

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

    def __init__(self, cost: CostModel | None = None, *, start_us: float = 0.0):
        self.cost = cost if cost is not None else CostModel.calibrated()
        self._now_us: float = float(start_us)
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

    def charge_cost(self, event: str, *, count: int = 1, scale: float = 1.0) -> None:
        """Charge ``count`` occurrences of a named :class:`CostModel` field.

        ``event`` must be the name of a ``CostModel`` attribute without the
        ``_us`` suffix, e.g. ``charge_cost("pe_trigger")``.
        """
        unit = getattr(self.cost, f"{event}_us")
        self.charge(event, unit * count * scale, count=count)

    # -- time arithmetic ----------------------------------------------------

    def advance_to(self, when_us: float) -> None:
        """Move the clock forward to ``when_us`` (idle time); never backward."""
        if when_us > self.now_us:
            self._now_us = when_us

    def advance(self, us: float) -> None:
        """Advance the clock by an unlabelled amount of idle time."""
        if us < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now_us += us

    @property
    def now_seconds(self) -> float:
        return self.now_us / 1_000_000.0

    def elapsed_since(self, t0_us: float) -> float:
        """Microseconds elapsed since an earlier reading of ``now_us``."""
        return self.now_us - t0_us

    def snapshot_events(self) -> Counter[str]:
        """A copy of the event tally (for before/after diffs in tests)."""
        return Counter(self.events)

    def reset(self) -> None:
        """Zero the clock and tallies (cost table is retained)."""
        self._now_us = 0.0
        self._events.clear()
        self._charged_us.clear()
        for event, _ in TALLIED_EVENTS:
            setattr(self, event, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now_us={self.now_us:.1f}, events={sum(self.events.values())})"


@dataclass
class Stopwatch:
    """Measures a span of simulated time on a :class:`SimClock`."""

    clock: SimClock
    start_us: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.start_us = self.clock.now_us

    def restart(self) -> None:
        self.start_us = self.clock.now_us

    @property
    def elapsed_us(self) -> float:
        return self.clock.now_us - self.start_us

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_us / 1_000_000.0

    def throughput_per_sec(self, completed: int) -> float:
        """``completed`` units per elapsed simulated second (0 if no time)."""
        secs = self.elapsed_seconds
        if secs <= 0.0:
            return 0.0
        return completed / secs
