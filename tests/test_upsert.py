"""The unique-key upsert: ``INSERT ... VALUES (row) ON CONFLICT (key) DO
UPDATE SET ... [RETURNING cols]``, and ``ctx.executemany`` inside procedures.

One probe of the unique index the conflict target names decides the path:
a visible row with that key gets the SET row, else the VALUES row is
inserted.  The expected counters are literals, so a path that probes
twice, or reads the row back with a second statement, fails here.
"""

import pytest

from repro.common.errors import (
    ConstraintViolation,
    ParseError,
    PlanningError,
    ProcedureError,
    StreamingError,
)
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.storage.schema import schema

BUMP = (
    "INSERT INTO seg (xway, seg, cars, total) VALUES (?, ?, 1, ?) "
    "ON CONFLICT (xway, seg) DO UPDATE SET cars = cars + 1, total = total + ? "
    "RETURNING cars, total"
)
CHARGE = (
    "INSERT INTO acct (vid, charged) VALUES (?, ?) "
    "ON CONFLICT (vid) DO UPDATE SET charged = charged + ?"
)


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        schema(
            "seg",
            ("xway", T.INTEGER, False),
            ("seg", T.INTEGER, False),
            ("cars", T.BIGINT, False),
            ("total", T.BIGINT, False),
            primary_key=["xway", "seg"],
        )
    )
    database.create_table(
        schema(
            "acct",
            ("vid", T.INTEGER, False),
            ("charged", T.BIGINT, False),
            ("tag", T.VARCHAR),
            primary_key=["vid"],
            unique_keys=[["tag"]],
        )
    )
    database.create_index("acct", "acct_charged", ["charged"])
    return database


def rows(db, table):
    return sorted(db.execute(f"SELECT * FROM {table}").rows)


def test_insert_path_then_update_path(db):
    first = db.execute(BUMP, (1, 2, 50, 50))
    assert (first.columns, first.rows, first.rowcount) == (("cars", "total"), [(1, 50)], 1)
    assert db.last_counters == {"index_probes": 1, "rows_inserted": 1}
    second = db.execute(BUMP, (1, 2, 30, 30))
    assert (second.rows, second.rowcount) == ([(2, 80)], 1)
    assert db.last_counters == {"index_probes": 1, "rows_scanned": 1, "rows_updated": 1}
    assert rows(db, "seg") == [(1, 2, 2, 80)]


def test_without_returning_reports_a_rowcount_only(db):
    result = db.execute(CHARGE, (7, 10, 10))
    assert (result.columns, result.rows, result.rowcount) == ((), [], 1)
    db.execute(CHARGE, (7, 10, 5))
    assert rows(db, "acct") == [(7, 15, None)]


def test_returning_reads_the_stored_row(db):
    # the stored row, coerced: a float total lands as an int in a BIGINT
    assert db.execute(BUMP, (0, 0, 4.0, 4.0)).rows == [(1, 4)]
    assert db.execute("INSERT INTO seg (xway, seg, cars, total) VALUES (0, 1, 9, 9) "
                      "ON CONFLICT (seg, xway) DO UPDATE SET total = 0 "
                      "RETURNING seg, xway, total").rows == [(1, 0, 9)]


def test_repeated_key_in_one_executemany_accumulates(db):
    before = db.stats("events").get("sql_stmt", 0)
    n = db.executemany(CHARGE, [(1, 10, 10), (2, 5, 5), (1, 7, 7), (1, 1, 1)])
    assert n == 4
    assert db.stats("events")["sql_stmt"] == before + 1  # one statement
    assert db.last_counters == {
        "index_probes": 4, "rows_scanned": 2, "rows_inserted": 2, "rows_updated": 2,
    }
    assert rows(db, "acct") == [(1, 18, None), (2, 5, None)]


def test_a_coerced_key_finds_the_stored_row(db):
    db.execute(CHARGE, (7, 10, 10))
    db.execute(CHARGE, ("7", 10, 1))  # '7' misses the probe, coerces to 7
    assert db.last_counters == {"index_probes": 2, "rows_scanned": 1, "rows_updated": 1}
    assert rows(db, "acct") == [(7, 11, None)]


def test_null_conflict_key_inserts_or_raises_as_insert_does(db):
    by_tag = ("INSERT INTO acct (vid, charged, tag) VALUES (?, ?, ?) "
              "ON CONFLICT (tag) DO UPDATE SET charged = charged + 1")
    db.execute(by_tag, (1, 0, None))
    db.execute(by_tag, (2, 0, None))  # NULL never conflicts: a second row
    db.execute(by_tag, (3, 0, "x"))
    db.execute(by_tag, (4, 0, "x"))  # conflicts on tag: row 3 counts up
    assert rows(db, "acct") == [(1, 0, None), (2, 0, None), (3, 1, "x")]
    for sql in (CHARGE, "INSERT INTO acct (vid, charged) VALUES (?, ?)"):
        with pytest.raises(ConstraintViolation, match="NOT NULL"):
            db.execute(sql, (None, 1, 1))
    assert len(rows(db, "acct")) == 3


@pytest.mark.parametrize(
    "target",
    ["xway", "xway, seg, cars", "cars", "nope", "xway, xway"],
)
def test_conflict_target_must_name_a_unique_index(db, target):
    with pytest.raises(PlanningError, match="PRIMARY KEY or UNIQUE index"):
        db.execute(f"INSERT INTO seg (xway, seg, cars, total) VALUES (1, 1, 1, 1) "
                   f"ON CONFLICT ({target}) DO UPDATE SET cars = 0")


def test_conflict_target_on_a_non_unique_index_is_refused(db):
    with pytest.raises(PlanningError, match="PRIMARY KEY or UNIQUE index"):
        db.execute("INSERT INTO acct (vid, charged) VALUES (1, 1) "
                   "ON CONFLICT (charged) DO UPDATE SET charged = 0")


def test_grammar_edges():
    with pytest.raises(ParseError, match="exactly one VALUES row"):
        Database().execute(
            "INSERT INTO t (a) VALUES (1), (2) ON CONFLICT (a) DO UPDATE SET a = 1"
        )
    with pytest.raises(ParseError, match="expected CONFLICT"):
        Database().execute("INSERT INTO t (a) VALUES (1) ON DUPLICATE KEY")
    # the contextual words reserve no column name
    db = Database()
    db.create_table(schema("w", ("conflict", T.INTEGER, False), ("do", T.INTEGER),
                           ("returning", T.INTEGER), primary_key=["conflict"]))
    sql = ("INSERT INTO w (conflict, do, returning) VALUES (?, ?, ?) "
           "ON CONFLICT (conflict) DO UPDATE SET do = do + returning "
           "RETURNING do, returning")
    assert db.execute(sql, (1, 2, 3)).rows == [(2, 3)]
    assert db.execute(sql, (1, 2, 3)).rows == [(5, 3)]
    assert db.execute("SELECT conflict, do FROM w WHERE returning = 3").rows == [(1, 5)]


def test_upsert_into_a_stream_is_refused():
    db = Database()
    db.create_stream(schema("s", ("k", T.INTEGER, False), ("v", T.INTEGER),
                            primary_key=["k"]))
    with pytest.raises(StreamingError, match="direct DML on stream"):
        db.execute("INSERT INTO s (k, v) VALUES (1, 1) "
                   "ON CONFLICT (k) DO UPDATE SET v = v + 1")


def test_set_violating_not_null_rolls_back_the_statement_only(db):
    with db.transaction():
        db.execute(CHARGE, (1, 10, 10))
        with pytest.raises(ConstraintViolation, match="NOT NULL"):
            db.execute("INSERT INTO acct (vid, charged) VALUES (?, ?) "
                       "ON CONFLICT (vid) DO UPDATE SET charged = NULL", (1, 5))
        with pytest.raises(ConstraintViolation, match="NOT NULL"):
            db.executemany(
                "INSERT INTO acct (vid, charged) VALUES (?, ?) "
                "ON CONFLICT (vid) DO UPDATE SET charged = NULL",
                [(2, 1), (1, 5)],  # row 2 is inserted, then the batch fails
            )
        db.execute(CHARGE, (1, 10, 1))  # the transaction is still usable
    assert rows(db, "acct") == [(1, 11, None)]


def test_explain_names_the_probed_index(db):
    assert db.explain(BUMP, (1, 1, 1, 1)) == {
        "kind": "insert",
        "table": "seg",
        "conflict": {"op": "IndexScan", "table": "seg", "index": "seg_pkey", "unique": True},
    }
    assert db.explain("INSERT INTO acct (vid, charged, tag) VALUES (1, 1, 'a') "
                      "ON CONFLICT (tag) DO UPDATE SET charged = 0")["conflict"]["index"] \
        == "acct_uniq0"
    assert rows(db, "seg") == []  # EXPLAIN never writes


def test_procedure_pins_one_plan_per_statement_and_batches_in_one_statement(db):
    @db.register_procedure
    def tally(ctx, charges):
        n = ctx.executemany(CHARGE, [(vid, amt, amt) for vid, amt in charges])
        cars, total = ctx.execute(BUMP, (0, 0, n, n)).rows[0]
        return n, cars, total

    plans = db.stats("events").get("sql_plan", 0)
    stmts = db.stats("events").get("sql_stmt", 0)
    assert db.call("tally", [(1, 5), (2, 5), (1, 5)]) == (3, 1, 3)
    assert db.call("tally", [(2, 1)]) == (1, 2, 4)
    assert db.stats("procedures")["tally"] == 2
    assert db.stats("events")["sql_plan"] == plans + 2
    assert db.stats("events")["sql_stmt"] == stmts + 4  # two per call
    assert rows(db, "acct") == [(1, 10, None), (2, 6, None)]


def test_ctx_executemany_failure_is_one_statement_rollback(db):
    @db.register_procedure
    def careful(ctx):
        ctx.execute(CHARGE, (9, 1, 1))
        try:
            ctx.executemany(CHARGE, [(1, 1, 1), (2, None, None)])
        except ConstraintViolation:
            pass  # both rows undone; the transaction goes on
        return ctx.executemany("UPDATE acct SET charged = charged + ? WHERE vid = ?",
                               [(1, 9), (1, 9)])

    assert db.call("careful") == 2  # no vectorized binder: one statement per row
    assert rows(db, "acct") == [(9, 3, None)]

    @db.register_procedure
    def broken(ctx):
        ctx.executemany(CHARGE, [(5, 1, 1), (6, None, None)])

    with pytest.raises(ProcedureError):
        db.call("broken")
    assert rows(db, "acct") == [(9, 3, None)]
