"""Stored procedures: registration, pinned compile-once plans, txn semantics."""

import dataclasses

import pytest

from repro.common.clock import EVENTS, CostModel, sim_time_us
from repro.common.errors import (
    NoSuchProcedureError,
    ProcedureError,
    TransactionError,
    UserAbort,
)
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.sql.executor import ExecutionCounters
from repro.storage.schema import schema

VOTE_SELECT = "SELECT num_votes FROM votes WHERE contestant_id = ?"
VOTE_UPDATE = "UPDATE votes SET num_votes = num_votes + 1 WHERE contestant_id = ?"


def voter_db():
    db = Database()
    db.create_table(
        schema(
            "votes",
            ("contestant_id", T.INTEGER, False),
            ("num_votes", T.BIGINT, False),
            primary_key=["contestant_id"],
        )
    )
    db.executemany(
        "INSERT INTO votes (contestant_id, num_votes) VALUES (?, ?)",
        [(c, 0) for c in range(4)],
    )
    return db


def register_vote(db):
    @db.register_procedure("vote")
    def vote(ctx, contestant_id):
        ctx.execute(VOTE_UPDATE, (contestant_id,))
        return ctx.execute(VOTE_SELECT, (contestant_id,)).scalar()

    return vote


# -- registration and invocation ----------------------------------------------

def test_call_commits_and_returns_body_result():
    db = voter_db()
    register_vote(db)
    assert db.call("vote", 2) == 1
    assert db.call("vote", 2) == 2
    assert db.execute(VOTE_SELECT, (2,)).scalar() == 2
    assert db.stats()["transactions"]["procedure_calls"] == 2


def test_registration_forms():
    db = voter_db()
    db.register_procedure("direct", lambda ctx: "d")

    @db.register_procedure("named")
    def _named(ctx):
        return "n"

    @db.register_procedure
    def bare(ctx):
        return "b"

    assert db.call("direct") == "d"
    assert db.call("named") == "n"
    assert db.call("bare") == "b"
    assert db.call("BARE") == "b"  # names are case-insensitive


def test_duplicate_registration_rejected():
    db = voter_db()
    register_vote(db)
    with pytest.raises(ValueError, match="already registered"):
        db.register_procedure("vote", lambda ctx: None)


def test_unknown_procedure():
    db = voter_db()
    with pytest.raises(NoSuchProcedureError, match="nope"):
        db.call("nope")


def test_call_inside_open_transaction_rejected():
    db = voter_db()
    register_vote(db)
    with db.transaction():
        with pytest.raises(TransactionError, match="already open"):
            db.call("vote", 0)


# -- compile-once pinning -----------------------------------------------------

def test_procedure_plans_each_statement_exactly_once():
    db = voter_db()
    register_vote(db)
    plans_before = db.events.sql_plan
    db.call("vote", 0)  # cold: both statements planned here
    assert db.events.sql_plan - plans_before == 2
    hits_after_first = db.stats("plan_cache")["hits"]
    for i in range(50):
        db.call("vote", i % 4)
    # no replanning AND no plan-cache traffic: the pin table short-circuits
    assert db.events.sql_plan - plans_before == 2
    assert db.stats("plan_cache")["hits"] == hits_after_first


def test_pinned_statements_repin_after_schema_change():
    db = voter_db()
    register_vote(db)
    db.call("vote", 0)
    plans_before = db.events.sql_plan
    db.create_index("votes", "votes_by_count", ["num_votes"], ordered=True)
    assert db.call("vote", 0) == 2  # stale pins replaced, not misused
    assert db.events.sql_plan - plans_before == 2  # replanned once
    db.call("vote", 0)
    assert db.events.sql_plan - plans_before == 2  # pinned again


# -- transaction semantics ----------------------------------------------------

def test_exception_rolls_back_and_wraps():
    db = voter_db()

    @db.register_procedure("crash")
    def crash(ctx):
        ctx.execute(VOTE_UPDATE, (0,))
        raise KeyError("midway")

    with pytest.raises(ProcedureError, match="crash.*rolled back") as info:
        db.call("crash")
    assert isinstance(info.value.__cause__, KeyError)
    assert db.execute(VOTE_SELECT, (0,)).scalar() == 0  # write undone
    assert db.stats()["transactions"]["aborted"] == 1
    assert db.stats()["transactions"]["open"] is False


def test_ctx_abort_raises_user_abort_unwrapped():
    db = voter_db()

    @db.register_procedure("maybe_vote")
    def maybe_vote(ctx, contestant_id, allowed):
        ctx.execute(VOTE_UPDATE, (contestant_id,))
        if not allowed:
            ctx.abort("not allowed")
        return ctx.execute(VOTE_SELECT, (contestant_id,)).scalar()

    assert db.call("maybe_vote", 1, True) == 1
    with pytest.raises(UserAbort, match="not allowed"):
        db.call("maybe_vote", 1, False)
    assert db.execute(VOTE_SELECT, (1,)).scalar() == 1  # rollback held


def test_escaped_procedure_context_cannot_execute():
    # A ctx smuggled out of its db.call() scope must not become a
    # non-transactional side door after its transaction finished.
    db = voter_db()

    @db.register_procedure("leak")
    def leak(ctx):
        return ctx

    ctx = db.call("leak")
    with pytest.raises(TransactionError, match="not the database's current"):
        ctx.execute(VOTE_UPDATE, (0,))
    assert db.execute(VOTE_SELECT, (0,)).scalar() == 0
    # ... including while a different transaction is open
    with db.transaction():
        with pytest.raises(TransactionError, match="not the database's current"):
            ctx.execute(VOTE_UPDATE, (0,))


def test_procedure_context_query_helper():
    db = voter_db()

    @db.register_procedure("tally")
    def tally(ctx):
        return ctx.query("SELECT contestant_id, num_votes FROM votes ORDER BY contestant_id")

    rows = db.call("tally")
    assert rows[0] == {"contestant_id": 0, "num_votes": 0}
    assert len(rows) == 4


def test_stats_reports_pinned_statement_counts():
    db = voter_db()
    register_vote(db)
    assert db.stats()["procedures"] == {"vote": 0}
    db.call("vote", 0)
    assert db.stats()["procedures"] == {"vote": 2}


# -- the event ledger, and simulated time as a function of it ----------------

#: ``stats("events")`` at the three readings of :func:`scripted_voter_run`,
#: as the engine reported them before the ledger replaced the sim clock.
VOTER_EVENTS = [
    {"index_probes": 51, "plan_cache_hit": 1, "rows_inserted": 4, "rows_scanned": 55,
     "rows_updated": 26, "sql_plan": 4, "sql_stmt": 53, "txn_begin": 28, "txn_commit": 27},
    {"index_probes": 53, "plan_cache_hit": 3, "rows_inserted": 4, "rows_scanned": 57,
     "rows_undone": 1, "rows_updated": 28, "sql_plan": 4, "sql_stmt": 55,
     "txn_abort": 1, "txn_begin": 29, "txn_commit": 28},
    {"index_probes": 57, "plan_cache_hit": 3, "rows_inserted": 4, "rows_scanned": 65,
     "rows_undone": 1, "rows_updated": 32, "sql_plan": 6, "sql_stmt": 59,
     "txn_abort": 2, "txn_begin": 31, "txn_commit": 29},
]
#: simulated time of the last reading at the default costs, as reported then
VOTER_SIM_TIME_US = 1415.8
#: the two tallies that moved into the ledger from ``stats("transactions")``
#: (its ``implicit`` and ``procedure_calls``), at the same readings
VOTER_TXN_TALLIES = [
    {"txn_implicit": 2, "procedure_call": 25},
    {"txn_implicit": 2, "procedure_call": 26},
    {"txn_implicit": 4, "procedure_call": 26},
]

#: a cost table with a distinct price per field, so a misrouted event shows
ODD_COSTS = CostModel(**{
    f.name: 1.0 + i / 8 for i, f in enumerate(dataclasses.fields(CostModel))
})

#: the ``CostModel`` field pricing each event; None = a free tally
PRICE_FIELD = {
    "sql_stmt": "sql_stmt_us", "rows_scanned": "sql_row_us",
    "index_probes": "index_probe_us", "rows_inserted": "sql_row_us",
    "rows_updated": "sql_row_us", "rows_deleted": "sql_row_us",
    "rows_undone": "sql_row_us", "sql_plan": "sql_plan_us",
    "plan_cache_hit": "plan_cache_hit_us", "txn_begin": "txn_begin_us",
    "txn_commit": "txn_commit_us", "txn_abort": "txn_abort_us",
    "client_submit": "client_submit_us", "ee_trigger": "ee_trigger_us",
    "pe_trigger": "pe_trigger_us", "window_slide": "window_slide_us",
    "log_write": "log_write_us", "log_group_commit": "log_group_commit_us",
    "snapshot_row": "snapshot_row_us",
    "txn_implicit": None, "procedure_call": None,
}


def assert_priced_by_hand(events, cost=ODD_COSTS):
    """``sim_time_us`` is exactly Σ count × price, free tallies at 0."""
    by_hand = sum(
        n * getattr(cost, PRICE_FIELD[event])
        for event, n in events.items()
        if PRICE_FIELD[event] is not None
    )
    assert sim_time_us(events, cost) == pytest.approx(by_hand, rel=1e-12)


def scripted_voter_run():
    """Votes, an ad-hoc read, a mid-transaction ledger read, an aborted
    call, an ANALYZE and a failing statement; returns the mid-run
    ``stats("events")`` readings."""
    db = voter_db()
    register_vote(db)

    @db.register_procedure
    def vote_then_change_mind(ctx, contestant_id):
        ctx.execute(VOTE_UPDATE, (contestant_id,))
        ctx.abort("changed my mind")

    readings = []
    for i in range(25):
        db.call("vote", i % 4)
    db.execute("SELECT contestant_id FROM votes WHERE num_votes > 3")  # a scan
    with db.transaction():
        db.execute(VOTE_UPDATE, (1,))
        readings.append(db.stats("events"))  # mid-transaction
        db.execute(VOTE_UPDATE, (2,))
    with pytest.raises(UserAbort):
        db.call("vote_then_change_mind", 3)
    readings.append(db.stats("events"))
    db.analyze()
    with pytest.raises(Exception):
        db.execute("INSERT INTO votes (contestant_id, num_votes) VALUES (0, 0)")
    db.executemany(VOTE_UPDATE, [(c,) for c in range(4)])
    readings.append(db.stats("events"))
    return db, readings


def test_lazily_priced_clock_matches_eager_reference():
    # golden counts: every event the engine reported before the ledger is
    # bit-identical, and the only new keys are the two moved tallies
    assert PRICE_FIELD == EVENTS  # the engine prices every event as pinned here
    db, readings = scripted_voter_run()
    assert readings == [
        {**old, **moved} for old, moved in zip(VOTER_EVENTS, VOTER_TXN_TALLIES)
    ]
    times = [sim_time_us(events) for events in readings]
    assert times[0] < times[1] < times[2]
    assert db.stats("sim_time_us") == times[-1]
    assert times[-1] == pytest.approx(VOTER_SIM_TIME_US, rel=1e-9)
    for events in readings:
        assert_priced_by_hand(events)
        assert_priced_by_hand(events, CostModel())
    # stats() views of the same ledger
    events = readings[-1]
    assert db.stats("counters") == {
        k: events[k] for k in ExecutionCounters.__slots__ if k in events
    }
    assert db.stats("transactions") == {
        "begun": 31, "committed": 29, "aborted": 2, "implicit": 4,
        "procedure_calls": 26, "open": False,
    }


def test_caller_supplied_clock_prices_on_read():
    # counts are readable the moment they happen; simulated time is a pure
    # function of them, under any caller's cost table
    db = voter_db()
    db.execute(VOTE_SELECT, (1,))
    assert db.events.sql_stmt == 2  # the seeding batch + the read
    events = db.stats("events")
    assert events["sql_stmt"] == 2
    assert db.stats("events") == events  # reading prices nothing, moves nothing
    assert db.stats("sim_time_us") == sim_time_us(events) == sim_time_us(events, CostModel())
    free = CostModel(**{f.name: 0.0 for f in dataclasses.fields(CostModel)})
    assert sim_time_us(events, free) == 0.0
    assert sim_time_us(events, ODD_COSTS) != sim_time_us(events)
