"""Point statements: a unique-key probe and nothing else.

Every ``SELECT``/``UPDATE``/``DELETE … WHERE key = ?`` whose access path is
a unique-index probe must give the same rows, rowcount, execution counters
and EXPLAIN tree as the generic scan pipeline does.  The expected values
are literals, so a faster path that probes twice, skips the visibility
test or forgets a counter fails here.
"""

import pytest

from repro.common.errors import ConstraintViolation
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.storage.schema import schema

PK_READ = "SELECT name, age FROM users WHERE id = ?"
MOVE_KEY = "UPDATE users SET id = ? WHERE id = ?"


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        schema(
            "users",
            ("id", T.BIGINT, False),
            ("name", T.VARCHAR),
            ("age", T.INTEGER),
            primary_key=["id"],
        )
    )
    database.create_index("users", "users_age", ["age"])
    database.create_table(
        schema(
            "segstat",
            ("xway", T.INTEGER, False),
            ("seg", T.INTEGER, False),
            ("cars", T.BIGINT, False),
            primary_key=["xway", "seg"],
        )
    )
    database.executemany(
        "INSERT INTO users VALUES (?, ?, ?)",
        [(i, f"u{i}", 20 + i % 3) for i in range(1, 21)],
    )
    database.executemany(
        "INSERT INTO segstat VALUES (?, ?, ?)",
        [(x, s, 10 * x + s) for x in range(2) for s in range(5)],
    )
    return database


def probe(table="users", index="users_pkey", seq_cost=20.0, est=1, actual=None):
    node = {
        "op": "IndexScan", "table": table, "index": index, "unique": True,
        "est_rows": est, "cost": 1.4,
        "considered": {"IndexScan": 1.4, "SeqScan": seq_cost}, "op_id": 0,
    }
    if actual is not None:
        node["actual_rows"] = actual
    return node


def select_plan(scan, actual):
    return {
        "kind": "select", "scan": scan, "joins": [],
        "estimated_rows": scan["est_rows"], "grouped": False, "distinct": False,
        "order_by": False, "post_join_filter": 0, "actual_rows": actual,
    }


def dml_plan(kind, est=1):
    return {
        "kind": kind, "table": "users", "scan": probe(est=est), "estimated_rows": est,
    }


def check(db, sql, params, rows, rowcount, counters, plan):
    result = db.execute(sql, params)
    assert result.rows == rows
    assert result.rowcount == rowcount
    assert dict(db.last_counters) == counters
    assert db.explain(sql, params) == plan


def users_state(db):
    """The rows at the keys the cases touch, and what each index finds."""
    table = db.catalog.table("users")
    return (
        db.execute("SELECT * FROM users WHERE id IN (7, 8, 100)").rows,
        sorted(table.index("users_age").lookup((21,))),
        [list(table.index("users_pkey").lookup((k,))) for k in (7, 8, 100)],
    )


ONE_ROW = {"index_probes": 1, "rows_scanned": 1}
UNTOUCHED = ([(7, "u7", 21), (8, "u8", 22)], [1, 4, 7, 10, 13, 16, 19], [[7], [8], []])


class TestSelect:
    def test_primary_key(self, db):
        check(db, PK_READ, (7,), [("u7", 21)], 1, ONE_ROW,
              select_plan(probe(actual=1), 1))

    def test_composite_key_in_any_order(self, db):
        check(db, "SELECT * FROM segstat WHERE seg = ? AND xway = ?", (3, 1),
              [(1, 3, 13)], 1, ONE_ROW,
              select_plan(probe("segstat", "segstat_pkey", 10.0, actual=1), 1))

    def test_residual_rejects_the_row(self, db):
        # the row is fetched (and counted as scanned) but not emitted
        check(db, "SELECT name FROM users WHERE id = ? AND age > ?", (7, 50),
              [], 0, ONE_ROW, select_plan(probe(est=0, actual=0), 0))

    def test_null_key_probes_but_reads_nothing(self, db):
        check(db, "SELECT name FROM users WHERE id = ?", (None,), [], 0,
              {"index_probes": 1}, select_plan(probe(actual=0), 0))

    def test_missing_key(self, db):
        check(db, "SELECT name FROM users WHERE id = ?", (999,), [], 0,
              {"index_probes": 1}, select_plan(probe(actual=0), 0))

    def test_staged_window_row_is_invisible(self):
        db = Database()
        db.create_stream(schema("votes", ("phone", T.BIGINT), ("contestant", T.INTEGER)))
        db.create_window("recent", "votes", size=4, slide=2)
        db.create_index("recent", "recent_phone", ["phone"], unique=True)
        db.ingest("votes", [(1, 1), (2, 1)])
        db.ingest("votes", [(3, 1)])  # below the slide: phone 3 stays staged
        sql = "SELECT contestant FROM recent WHERE phone = ?"
        check(db, sql, (1,), [(1,)], 1, ONE_ROW,
              select_plan(probe("recent", "recent_phone", 10.0, actual=1), 1))
        check(db, sql, (3,), [], 0, {"index_probes": 1},
              select_plan(probe("recent", "recent_phone", 10.0, actual=0), 0))


class TestWrite:
    def test_update_non_key_column(self, db):
        check(db, "UPDATE users SET name = ? WHERE id = ?", ("x", 7), [], 1,
              {**ONE_ROW, "rows_updated": 1}, dml_plan("update"))
        rows, by_age, by_pk = UNTOUCHED
        assert users_state(db) == ([(7, "x", 21), rows[1]], by_age, by_pk)

    def test_update_moves_key_to_free_value(self, db):
        check(db, MOVE_KEY, (100, 7), [], 1, {**ONE_ROW, "rows_updated": 1},
              dml_plan("update"))
        assert users_state(db) == (
            [(100, "u7", 21), (8, "u8", 22)],  # rowid order: the row kept its rowid
            [1, 4, 7, 10, 13, 16, 19],
            [[], [8], [7]],
        )

    def test_update_onto_existing_key_violates_and_changes_nothing(self, db):
        with pytest.raises(ConstraintViolation, match=r"duplicate key \(8,\) for index 'users_pkey'"):
            db.execute(MOVE_KEY, (8, 7))
        assert dict(db.last_counters) == {"rows_inserted": 10}  # the fixture's last batch
        assert db.explain(MOVE_KEY, (8, 7)) == dml_plan("update")
        assert users_state(db) == UNTOUCHED

    def test_update_with_null_key_touches_nothing(self, db):
        check(db, "UPDATE users SET age = age + 1 WHERE id = ?", (None,), [], 0,
              {"index_probes": 1}, dml_plan("update"))
        assert users_state(db) == UNTOUCHED

    def test_primary_key_delete(self, db):
        check(db, "DELETE FROM users WHERE id = ?", (7,), [], 1,
              {**ONE_ROW, "rows_deleted": 1}, dml_plan("delete"))
        assert users_state(db) == ([(8, "u8", 22)], [1, 4, 10, 13, 16, 19], [[], [8], []])

    def test_delete_rejected_by_residual(self, db):
        check(db, "DELETE FROM users WHERE id = ? AND age > ?", (7, 50), [], 0,
              ONE_ROW, dml_plan("delete", est=0))
        assert users_state(db) == UNTOUCHED

    def test_rollback_restores_snapshot_exactly(self, db):
        before = db.catalog.snapshot()
        with pytest.raises(RuntimeError, match="abandon"):
            with db.transaction():
                db.execute("UPDATE users SET name = ? WHERE id = ?", ("x", 7))
                db.execute(MOVE_KEY, (100, 7))
                db.execute("UPDATE users SET age = ? WHERE id = ?", (99, 4))
                with pytest.raises(ConstraintViolation):
                    db.execute(MOVE_KEY, (8, 100))
                db.execute("DELETE FROM users WHERE id = ?", (8,))
                db.execute(MOVE_KEY, (8, 100))  # the freed key is reusable
                db.execute("UPDATE segstat SET cars = cars + 1 WHERE xway = ? AND seg = ?", (0, 0))
                assert db.execute(PK_READ, (8,)).rows == [("x", 21)]
                raise RuntimeError("abandon")
        assert db.catalog.snapshot() == before
        assert users_state(db) == UNTOUCHED
        assert db.execute(PK_READ, (4,)).rows == [("u4", 21)]
