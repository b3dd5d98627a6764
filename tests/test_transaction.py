"""Transaction life cycle, undo correctness, and boundary cost accounting."""

from collections import Counter
from decimal import Decimal

import pytest

from repro.common.clock import CostModel
from repro.common.errors import (
    ConstraintViolation,
    ProcedureError,
    RecoveryError,
    TransactionError,
)
from repro.common.types import ColumnType as T
from repro.engine import Database, Transaction, UndoLog
from repro.storage.schema import schema


def fresh_db():
    db = Database()
    db.create_table(
        schema(
            "accounts",
            ("id", T.BIGINT, False),
            ("owner", T.VARCHAR),
            ("balance", T.INTEGER, False),
            primary_key=["id"],
        )
    )
    db.create_index("accounts", "accounts_owner", ["owner"])
    db.executemany(
        "INSERT INTO accounts (id, owner, balance) VALUES (?, ?, ?)",
        [(i, f"o{i}", 100 * i) for i in range(5)],
    )
    return db


# -- life cycle ---------------------------------------------------------------

def test_commit_persists_writes():
    db = fresh_db()
    with db.transaction():
        db.execute("INSERT INTO accounts (id, owner, balance) VALUES (10, 'x', 7)")
        db.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 0")
    assert db.execute("SELECT balance FROM accounts WHERE id = 10").scalar() == 7
    assert db.execute("SELECT balance FROM accounts WHERE id = 0").scalar() == 1


def test_nested_begin_rejected():
    db = fresh_db()
    txn = db.begin()
    with pytest.raises(TransactionError, match="already open"):
        db.begin()
    with pytest.raises(TransactionError, match="already open"):
        with db.transaction():
            pass  # pragma: no cover
    txn.abort()


def test_finished_transaction_is_single_use():
    db = fresh_db()
    txn = db.begin()
    txn.commit()
    with pytest.raises(TransactionError, match="already committed"):
        txn.commit()
    with pytest.raises(TransactionError, match="already committed"):
        txn.abort()
    aborted = db.begin()
    aborted.abort()
    with pytest.raises(TransactionError, match="already aborted"):
        aborted.commit()


def test_ddl_inside_transaction_rejected():
    db = fresh_db()
    with db.transaction():
        with pytest.raises(TransactionError, match="CREATE TABLE"):
            db.create_table(schema("t2", ("a", T.INTEGER)))
        with pytest.raises(TransactionError, match="CREATE INDEX"):
            db.create_index("accounts", "accounts_bal", ["balance"])
        with pytest.raises(TransactionError, match="DROP INDEX"):
            db.drop_index("accounts", "accounts_owner")
        with pytest.raises(TransactionError, match="DROP TABLE"):
            db.drop_table("accounts")
    # outside the transaction DDL works again
    db.create_index("accounts", "accounts_bal", ["balance"])


def test_context_manager_aborts_on_exception_and_propagates():
    db = fresh_db()
    with pytest.raises(RuntimeError, match="boom"):
        with db.transaction():
            db.execute("DELETE FROM accounts WHERE id = 1")
            raise RuntimeError("boom")
    assert db.execute("SELECT count(*) FROM accounts").scalar() == 5
    assert db.stats()["transactions"]["aborted"] == 1


def test_manual_abort_inside_with_block():
    db = fresh_db()
    with db.transaction() as txn:
        db.execute("DELETE FROM accounts")
        txn.abort()  # exit must not commit (or double-abort)
    assert txn.state == Transaction.ABORTED
    assert db.execute("SELECT count(*) FROM accounts").scalar() == 5
    db.execute("SELECT 1")  # engine is reusable afterwards


# -- undo correctness ---------------------------------------------------------

def test_abort_restores_identical_snapshot_after_mixed_dml():
    db = fresh_db()
    before = db.catalog.snapshot()
    txn = db.begin()
    db.execute("INSERT INTO accounts (id, owner, balance) VALUES (20, 'new', 1)")
    db.execute("UPDATE accounts SET balance = balance * 3 WHERE id <= 2")
    db.execute("DELETE FROM accounts WHERE id = 3")
    db.execute("UPDATE accounts SET owner = 'zzz' WHERE id = 4")
    db.execute("DELETE FROM accounts WHERE id = 20")  # delete own insert
    txn.abort()
    after = db.catalog.snapshot()
    # byte-identical data: every table's (rowid, row) list is restored exactly
    assert {n: s["rows"] for n, s in after.items()} == {
        n: s["rows"] for n, s in before.items()
    }
    # ... while the rowid allocator only ever moves forward (no reuse),
    # so the aborted insert leaves next_rowid advanced past its rowid.
    assert after["accounts"]["next_rowid"] > before["accounts"]["next_rowid"]


def test_abort_without_inserts_restores_full_snapshot():
    # No new rowids allocated -> even the allocator matches byte-for-byte.
    db = fresh_db()
    before = db.catalog.snapshot()
    with pytest.raises(ZeroDivisionError):
        with db.transaction():
            db.execute("UPDATE accounts SET balance = -1 WHERE id >= 2")
            db.execute("DELETE FROM accounts WHERE id = 0")
            _ = 1 / 0
    assert db.catalog.snapshot() == before


def test_abort_restores_scan_arrival_order():
    db = fresh_db()
    order_before = [r[0] for r in db.execute("SELECT id FROM accounts")]
    with pytest.raises(ZeroDivisionError):
        with db.transaction():
            db.execute("DELETE FROM accounts WHERE id = 2")
            db.execute("INSERT INTO accounts (id, owner, balance) VALUES (9, 'q', 0)")
            _ = 1 / 0
    assert [r[0] for r in db.execute("SELECT id FROM accounts")] == order_before


def test_indexes_probe_correctly_after_abort():
    db = fresh_db()
    txn = db.begin()
    db.execute("DELETE FROM accounts WHERE id = 2")           # pk + owner index
    db.execute("INSERT INTO accounts (id, owner, balance) VALUES (30, 'o30', 5)")
    db.execute("UPDATE accounts SET owner = 'moved' WHERE id = 1")
    txn.abort()
    # restored row is findable through both indexes again
    assert db.execute("SELECT balance FROM accounts WHERE id = 2").scalar() == 200
    assert db.last_counters["index_probes"] == 1
    assert db.execute("SELECT id FROM accounts WHERE owner = 'o2'").scalar() == 2
    assert db.last_counters["index_probes"] == 1
    # aborted insert is gone from the pk index; aborted update is reversed
    assert len(db.execute("SELECT id FROM accounts WHERE id = 30")) == 0
    assert db.execute("SELECT id FROM accounts WHERE owner = 'moved'").rows == []
    assert db.execute("SELECT id FROM accounts WHERE owner = 'o1'").scalar() == 1


def test_rowids_never_reused_across_undo():
    db = fresh_db()
    table = db.catalog.table("accounts")
    txn = db.begin()
    db.execute("INSERT INTO accounts (id, owner, balance) VALUES (40, 'a', 0)")
    aborted_rowid = max(rowid for rowid, _row in table.scan())
    txn.abort()
    db.execute("INSERT INTO accounts (id, owner, balance) VALUES (41, 'b', 0)")
    new_rowid = max(rowid for rowid, _row in table.scan())
    assert new_rowid > aborted_rowid


def test_statement_failure_rolls_back_statement_not_transaction():
    db = fresh_db()
    txn = db.begin()
    db.execute("INSERT INTO accounts (id, owner, balance) VALUES (50, 'keep', 1)")
    with pytest.raises(ConstraintViolation):
        # row (51,...) inserts, then the duplicate id 0 fails: the whole
        # statement must be undone, the transaction must stay usable.
        db.execute(
            "INSERT INTO accounts (id, owner, balance) "
            "VALUES (51, 'gone', 2), (0, 'dup', 3)"
        )
    assert txn.is_active
    txn.commit()
    assert db.execute("SELECT count(*) FROM accounts WHERE id = 50").scalar() == 1
    assert db.execute("SELECT count(*) FROM accounts WHERE id = 51").scalar() == 0


def test_undo_log_protocol_and_replay_order():
    db = fresh_db()
    table = db.catalog.table("accounts")
    log = UndoLog()
    # unique-key swap is only undoable because replay is newest-first
    rows = {row[0]: rowid for rowid, row in table.scan()}
    old_a = table.update_row(rows[0], (0, "tmp", 0))
    log.on_update(table, rows[0], old_a)
    old_b = table.update_row(rows[1], (1, "o0", 100))  # takes o0 from row a
    log.on_update(table, rows[1], old_b)
    assert len(log) == 2
    assert log.rollback_to(0) == 2
    assert db.execute("SELECT id FROM accounts WHERE owner = 'o0'").scalar() == 0
    assert db.execute("SELECT id FROM accounts WHERE owner = 'o1'").scalar() == 1


# -- cost accounting ----------------------------------------------------------

def test_txn_boundary_costs_charged():
    db = fresh_db()
    cost = CostModel()
    t0 = db.stats("sim_time_us")
    with db.transaction():
        pass
    assert db.stats("sim_time_us") - t0 == pytest.approx(cost.txn_begin_us + cost.txn_commit_us)

    before = Counter(db.stats("events"))
    t1 = db.stats("sim_time_us")
    txn = db.begin()
    db.execute("DELETE FROM accounts WHERE id = 0")
    txn.abort()
    delta = Counter(db.stats("events")) - before
    assert delta["txn_begin"] == 1 and delta["txn_abort"] == 1
    assert delta["rows_undone"] == 1
    assert db.stats("sim_time_us") - t1 == pytest.approx(
        cost.txn_begin_us
        + cost.sql_plan_us            # cold plan for the DELETE
        + cost.sql_stmt_us
        + cost.index_probe_us         # pk probe
        + cost.sql_row_us             # the scanned row
        + cost.sql_row_us             # the deleted row
        + cost.sql_row_us             # the undone row
        + cost.txn_abort_us
    )


def test_abort_counts_rows_undone_per_record():
    db = fresh_db()
    txn = db.begin()
    db.execute("UPDATE accounts SET balance = 0")  # 5 updates
    txn.abort()
    assert db.events.rows_undone == 5


# -- one atomic step per entry point -------------------------------------------
#
# Every engine entry point runs as one atomic step.  This table is the
# place for new entry points and failure kinds: add a row, not a new test.

PUT = "INSERT INTO t (id, v) VALUES (?, ?)"


def atomicity_bootstrap(db):
    db.create_table(schema("t", ("id", T.BIGINT, False), ("v", T.BIGINT), primary_key=["id"]))
    db.create_stream(schema("feed", ("id", T.BIGINT), ("v", T.BIGINT)))

    @db.register_procedure
    def put(ctx, tag, rows):
        for row in rows:
            ctx.execute(PUT, tuple(row))
        if tag == "raise":
            raise RuntimeError("procedure body failed")

    def copy_feed(ctx, rows):
        for row in rows:
            ctx.execute(PUT, row)
            if row[1] < 0:
                raise RuntimeError("trigger body failed")

    db.create_ee_trigger("copy_feed", "feed", copy_feed)


#: (entry point, failure, action, expected exception, rows undone).  The
#: bulk path is INSERT-only and ingest rows are coerced to their declared
#: types, so neither can carry a JSON-unsafe value past the write.
ATOMICITY = [
    # ids 1 -> 11 moves, then 2 -> 12 collides with the seeded 12
    ("execute", "constraint", lambda db: db.execute("UPDATE t SET id = id + 10"),
     ConstraintViolation, 1),
    ("execute", "json_unsafe",
     lambda db: db.execute("UPDATE t SET v = v + 1 WHERE id = ?", (Decimal(1),)),
     RecoveryError, 1),
    # the bulk binder validates the batch before writing any row
    ("bulk_executemany", "constraint",
     lambda db: db.executemany(PUT, [(10, 0), (11, 0), (1, 0)]), ConstraintViolation, 0),
    ("row_executemany", "constraint",
     lambda db: db.executemany("UPDATE t SET id = ? WHERE id = ?", [(10, 1), (3, 2)]),
     ConstraintViolation, 1),
    ("row_executemany", "json_unsafe",
     lambda db: db.executemany("UPDATE t SET v = v + 1 WHERE id = ?", [(1,), (Decimal(2),)]),
     RecoveryError, 2),
    ("call", "constraint", lambda db: db.call("put", "ok", [[10, 0], [1, 0]]),
     ProcedureError, 1),
    # a call's arguments are checked before its transaction opens
    ("call", "json_unsafe", lambda db: db.call("put", Decimal(1), [[10, 0]]),
     RecoveryError, 0),
    ("call", "raises", lambda db: db.call("put", "raise", [[10, 0]]), ProcedureError, 1),
    ("call_in_txn", "constraint", lambda db: db.call_in_txn("put", "ok", [[10, 0], [1, 0]]),
     ProcedureError, 1),
    ("call_in_txn", "json_unsafe", lambda db: db.call_in_txn("put", Decimal(1), [[10, 0]]),
     RecoveryError, 1),
    ("call_in_txn", "raises", lambda db: db.call_in_txn("put", "raise", [[10, 0]]),
     ProcedureError, 1),
    # two stream rows plus the trigger's first insert
    ("ingest", "constraint", lambda db: db.ingest("feed", [(10, 0), (1, 0)]),
     ConstraintViolation, 3),
    ("ingest", "raises", lambda db: db.ingest("feed", [(10, -1)]), RuntimeError, 2),
]

#: procedures and ingests open their own transaction; call_in_txn needs one
SCOPES = {"call": ("implicit",), "ingest": ("implicit",), "call_in_txn": ("explicit",)}


@pytest.mark.parametrize(
    "action, exc, undone, scope",
    [
        pytest.param(action, exc, undone, scope, id=f"{entry}-{scope}-{failure}")
        for entry, failure, action, exc, undone in ATOMICITY
        for scope in SCOPES.get(entry, ("implicit", "explicit"))
    ],
)
def test_failed_step_leaves_no_trace(tmp_path, action, exc, undone, scope):
    def rows(db):  # aborted inserts still advance next_rowid (never reused)
        return {name: table["rows"] for name, table in db.catalog.snapshot().items()}

    db = Database(recovery_dir=tmp_path / "db", bootstrap=atomicity_bootstrap)
    db.executemany(PUT, [(1, 0), (2, 0), (3, 0), (12, 0)])
    txn = db.begin() if scope == "explicit" else None
    if txn is not None:
        db.execute("UPDATE t SET v = 7 WHERE id = 3")  # the step's savepoint is not 0
    before = rows(db)
    cmds = list(txn.log_cmds) if txn is not None else None
    undone_before = db.events.rows_undone
    with pytest.raises(exc):
        action(db)
    assert rows(db) == before
    assert db.events.rows_undone - undone_before == undone
    if txn is not None:
        assert txn.is_active and txn.log_cmds == cmds
        db.execute("UPDATE t SET v = 8 WHERE id = 2")
        txn.commit()
        assert db.query("SELECT id, v FROM t WHERE v > 0 ORDER BY id") == [
            {"id": 2, "v": 8}, {"id": 3, "v": 7}
        ]
    assert db.stats("transactions")["open"] is False
    db.flush_log()
    replayed = Database(
        recovery_dir=tmp_path / "db", bootstrap=atomicity_bootstrap, readonly=True
    )
    assert rows(replayed) == rows(db)
