"""Stored procedures: registration, pinned compile-once plans, txn semantics."""

import pytest

from repro.common.clock import TALLIED_EVENTS, CostModel, SimClock
from repro.common.errors import (
    NoSuchProcedureError,
    ProcedureError,
    TransactionError,
    UserAbort,
)
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.storage.schema import schema

VOTE_SELECT = "SELECT num_votes FROM votes WHERE contestant_id = ?"
VOTE_UPDATE = "UPDATE votes SET num_votes = num_votes + 1 WHERE contestant_id = ?"


def voter_db(clock=None):
    db = Database(clock=clock)
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
    plans_before = db.clock.events["sql_plan"]
    db.call("vote", 0)  # cold: both statements planned here
    assert db.clock.events["sql_plan"] - plans_before == 2
    hits_after_first = db.plan_cache.hits
    for i in range(50):
        db.call("vote", i % 4)
    # no replanning AND no plan-cache traffic: the pin table short-circuits
    assert db.clock.events["sql_plan"] - plans_before == 2
    assert db.plan_cache.hits == hits_after_first


def test_pinned_statements_repin_after_schema_change():
    db = voter_db()
    register_vote(db)
    db.call("vote", 0)
    plans_before = db.clock.events["sql_plan"]
    db.create_index("votes", "votes_by_count", ["num_votes"], ordered=True)
    assert db.call("vote", 0) == 2  # stale pins replaced, not misused
    assert db.clock.events["sql_plan"] - plans_before == 2  # replanned once
    db.call("vote", 0)
    assert db.clock.events["sql_plan"] - plans_before == 2  # pinned again


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


# -- the sim clock is a view over counters ------------------------------------


def _eager(event, cost_field):
    def charge_now(clock, n):
        if n:
            clock.charge(event, getattr(clock.cost, cost_field) * n, count=n)

    # ``clock.<event> += n`` reads 0, then sets n: price it on the spot
    return property(lambda clock: 0, charge_now)


#: The reference the lazily priced clock must agree with: every tally is
#: priced (count x cost) the moment it is added, never deferred.
EagerClock = type(
    "EagerClock",
    (SimClock,),
    {"__slots__": (), **{event: _eager(event, field) for event, field in TALLIED_EVENTS}},
)


def scripted_voter_run(clock):
    """Votes, an ad-hoc read, a mid-transaction clock read, an aborted
    call, an ANALYZE and a failing statement; returns the mid-run
    readings."""
    db = voter_db(clock=clock)
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
        readings.append((clock.now_us, dict(clock.events)))  # mid-transaction
        db.execute(VOTE_UPDATE, (2,))
    with pytest.raises(UserAbort):
        db.call("vote_then_change_mind", 3)
    readings.append((clock.now_us, dict(clock.events)))
    db.analyze()
    with pytest.raises(Exception):
        db.execute("INSERT INTO votes (contestant_id, num_votes) VALUES (0, 0)")
    db.executemany(VOTE_UPDATE, [(c,) for c in range(4)])
    readings.append((clock.now_us, dict(clock.events)))
    return db, readings


def test_lazily_priced_clock_matches_eager_reference():
    lazy_db, lazy = scripted_voter_run(SimClock(CostModel()))
    eager_db, eager = scripted_voter_run(EagerClock(CostModel()))
    assert len(lazy) == len(eager) == 3
    for (lazy_us, lazy_events), (eager_us, eager_events) in zip(lazy, eager):
        assert lazy_events == eager_events  # counts are exact
        assert lazy_us == pytest.approx(eager_us, rel=1e-9)  # summation order only
    assert lazy[0][0] < lazy[1][0] < lazy[2][0]
    assert lazy_db.clock.charged_us == pytest.approx(eager_db.clock.charged_us, rel=1e-9)
    # execution tallies stay apart from the clock's: ANALYZE's scan and the
    # undo replays are events, not statement counters
    assert lazy_db.stats()["counters"] == eager_db.stats()["counters"]
    events, counters = lazy_db.stats()["events"], lazy_db.stats()["counters"]
    assert events["rows_scanned"] == counters["rows_scanned"] + 4  # ANALYZE read 4 rows
    assert events["rows_undone"] == 1 and "rows_undone" not in counters
    # and time is exactly the priced events: nothing is charged twice or lost
    clock = lazy_db.clock
    assert clock.now_us == pytest.approx(sum(clock.charged_us.values()), rel=1e-9)
    for event, cost_field in TALLIED_EVENTS:
        assert clock.charged_us[event] == pytest.approx(
            clock.events[event] * getattr(clock.cost, cost_field), rel=1e-9
        )


def test_caller_supplied_clock_prices_on_read():
    clock = SimClock(CostModel())
    db = voter_db(clock=clock)
    db.execute(VOTE_SELECT, (1,))
    assert clock.sql_stmt > 0  # counted, not yet priced
    assert clock.events["sql_stmt"] == 2  # the seeding batch + the read
    assert clock.sql_stmt == 0  # folded in by the read
