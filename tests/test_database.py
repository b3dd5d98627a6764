"""End-to-end SQL through the Database facade: caching, costs, lifecycle."""

from collections import Counter

import pytest

from repro.common.clock import CostModel, sim_time_us
from repro.common.errors import ConstraintViolation, NoSuchTableError
from repro.common.types import ColumnType as T
from repro.engine import Database, PlanCache
from repro.storage.schema import schema


def fresh_db():
    db = Database()
    db.create_table(
        schema(
            "users",
            ("id", T.BIGINT, False),
            ("name", T.VARCHAR),
            ("age", T.INTEGER),
            primary_key=["id"],
        )
    )
    return db


def load(db, n=10):
    db.executemany(
        "INSERT INTO users (id, name, age) VALUES (?, ?, ?)",
        ((i, f"u{i}", 20 + i) for i in range(n)),
    )


# -- end-to-end statements ----------------------------------------------------

def test_full_crud_cycle():
    db = fresh_db()
    load(db)
    assert db.execute("SELECT count(*) FROM users").scalar() == 10

    assert db.execute("UPDATE users SET age = age + 10 WHERE id < ?", (5,)).rowcount == 5
    assert db.execute("SELECT age FROM users WHERE id = 0").scalar() == 30

    assert db.execute("DELETE FROM users WHERE age >= ?", (30,)).rowcount == 5
    assert db.execute("SELECT count(*) FROM users").scalar() == 5

    rows = db.query("SELECT id, name FROM users ORDER BY id LIMIT 2")
    assert rows == [{"id": 5, "name": "u5"}, {"id": 6, "name": "u6"}]


def test_constraint_violation_propagates():
    db = fresh_db()
    load(db, 2)
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO users (id, name, age) VALUES (0, 'dup', 1)")


# -- prepared-statement cache -------------------------------------------------

def test_repeated_statement_planned_exactly_once():
    db = fresh_db()
    load(db)
    sql = "SELECT name FROM users WHERE id = ?"
    plans_before = db.events.sql_plan
    cache_before = db.stats("plan_cache")
    for i in range(100):
        db.execute(sql, (i % 10,))
    # one cold plan, 99 cache hits — re-lex/re-parse/re-plan never happened
    assert db.events.sql_plan - plans_before == 1
    assert db.events.plan_cache_hit == 99
    assert db.stats("plan_cache")["hits"] - cache_before["hits"] == 99
    assert db.stats("plan_cache")["misses"] - cache_before["misses"] == 1


def test_cache_hit_is_cheaper_than_cold_plan():
    db = fresh_db()
    load(db)
    sql = "SELECT name FROM users WHERE id = ?"
    t0 = db.stats("sim_time_us")
    db.execute(sql, (1,))
    cold = db.stats("sim_time_us") - t0
    t1 = db.stats("sim_time_us")
    db.execute(sql, (2,))
    warm = db.stats("sim_time_us") - t1
    assert warm < cold
    cost = CostModel()
    assert cold - warm == pytest.approx(cost.sql_plan_us - cost.plan_cache_hit_us)


def test_ddl_invalidates_cache():
    db = fresh_db()
    load(db)
    sql = "SELECT count(*) FROM users WHERE age = ?"
    db.execute(sql, (21,))
    assert sql in db.plan_cache
    db.create_index("users", "users_age", ["age"])
    assert sql not in db.plan_cache
    # replanned statement now uses the new index
    db.execute(sql, (21,))
    assert db.last_counters["index_probes"] == 1


def test_stale_prepared_statement_rejected_after_ddl():
    from repro.common.errors import PlanningError

    db = fresh_db()
    load(db, 3)
    stmt = db.prepare("SELECT name FROM users WHERE id = ?")
    db.drop_table("users")
    db.create_table(schema("users", ("other", T.VARCHAR)))  # different shape
    with pytest.raises(PlanningError, match="stale"):
        db.execute_prepared(stmt, (1,))
    # re-preparing through the facade works against the new schema
    assert db.execute("SELECT count(*) FROM users").scalar() == 0


def test_drop_index_invalidates_cache():
    db = fresh_db()
    load(db)
    sql = "SELECT name FROM users WHERE id = ?"
    db.execute(sql, (1,))
    assert db.last_counters["index_probes"] == 1   # pk IndexScan
    db.drop_index("users", "users_pkey")
    db.execute(sql, (1,))                          # replans, falls back cleanly
    assert db.last_counters["index_probes"] == 0
    assert db.last_counters["rows_scanned"] == 10  # SeqScan now


def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    cache.put("a", "plan-a")
    cache.put("b", "plan-b")
    assert cache.get("a") == "plan-a"  # touch a -> b becomes LRU
    cache.put("c", "plan-c")
    assert cache.get("b") is None      # evicted
    assert cache.get("a") == "plan-a"
    assert cache.get("c") == "plan-c"
    assert cache.evictions == 1
    assert cache.stats()["size"] == 2


def test_plan_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_database_lru_eviction_forces_replan():
    db = Database(plan_cache_size=2)
    db.create_table(schema("t", ("a", T.INTEGER)))
    db.execute("SELECT a FROM t")           # miss 1
    db.execute("SELECT a + 1 FROM t")       # miss 2
    db.execute("SELECT a + 2 FROM t")       # miss 3, evicts statement 1
    db.execute("SELECT a FROM t")           # miss 4 (was evicted)
    assert db.stats("plan_cache")["misses"] == 4
    assert db.plan_cache.evictions == 2


# -- cost accounting ----------------------------------------------------------

def test_execution_charges_follow_counters():
    db = fresh_db()
    load(db, 10)
    events_before = Counter(db.stats("events"))
    t0 = db.stats("sim_time_us")
    db.execute("SELECT name FROM users WHERE name = 'u3'")  # seq scan
    delta = Counter(db.stats("events")) - events_before
    cost = CostModel()
    assert delta["rows_scanned"] == 10
    assert delta["txn_begin"] == 1 and delta["txn_commit"] == 1
    expected = (
        cost.sql_plan_us  # cold plan
        + cost.txn_begin_us  # implicit single-statement transaction
        + cost.sql_stmt_us
        + 10 * cost.sql_row_us
        + cost.txn_commit_us
    )
    assert db.stats("sim_time_us") - t0 == pytest.approx(expected)
    assert sim_time_us(delta) == pytest.approx(expected)


def test_lifetime_counters_accumulate():
    db = fresh_db()
    load(db, 4)
    db.execute("SELECT * FROM users")
    db.execute("SELECT * FROM users")
    assert db.stats("counters")["rows_inserted"] == 4
    assert db.stats("counters")["rows_scanned"] == 8
    assert db.last_counters["rows_scanned"] == 4


def test_executemany_last_counters_aggregate_across_rows():
    # last_counters after a batch is the aggregate, not the final row's.
    db = fresh_db()
    n = db.executemany(
        "INSERT INTO users (id, name, age) VALUES (?, ?, ?)",
        ((i, f"u{i}", 20 + i) for i in range(7)),
    )
    assert n == 7
    assert db.last_counters["rows_inserted"] == 7


def test_failed_multirow_statement_leaves_no_partial_writes():
    # Statement-level atomicity via the implicit transaction: the first row
    # of the failing INSERT must be undone, not committed.
    db = fresh_db()
    load(db, 1)  # id 0 exists
    with pytest.raises(ConstraintViolation):
        db.execute(
            "INSERT INTO users (id, name, age) VALUES (5, 'a', 1), (0, 'dup', 2)"
        )
    assert db.execute("SELECT count(*) FROM users").scalar() == 1
    assert db.execute("SELECT count(*) FROM users WHERE id = 5").scalar() == 0


def test_stats_reports_schema_epoch_and_txn_counters():
    db = fresh_db()
    load(db, 2)                       # one implicit txn (the batch)
    db.execute("SELECT 1")            # another implicit txn
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO users (id, name, age) VALUES (0, 'dup', 1)")
    stats = db.stats()
    assert stats["schema_epoch"] == db.schema_epoch == 1  # one CREATE TABLE
    txns = stats["transactions"]
    assert txns["begun"] == 3
    assert txns["committed"] == 2
    assert txns["aborted"] == 1
    assert txns["implicit"] == 3
    assert txns["procedure_calls"] == 0
    assert txns["open"] is False


def test_resultset_is_iterable_sized_and_indexable():
    db = fresh_db()
    load(db, 3)
    result = db.execute("SELECT id, name FROM users ORDER BY id")
    assert len(result) == 3
    assert bool(result)
    assert [row[0] for row in result] == [0, 1, 2]
    assert result[1] == (1, "u1")
    empty = db.execute("SELECT id FROM users WHERE id = -1")
    assert not empty and len(empty) == 0


# -- misc ---------------------------------------------------------------------

def test_external_clock_shared():
    # a caller's CostModel prices the engine's ledger; the engine holds none
    db = Database()
    db.create_table(schema("t", ("a", T.INTEGER)))
    db.execute("INSERT INTO t VALUES (1)")
    events = db.stats("events")
    assert db.stats("sim_time_us") == sim_time_us(events) > 0
    slow_plans = CostModel(sql_plan_us=1000.0)
    assert sim_time_us(events, slow_plans) - sim_time_us(events) == pytest.approx(
        events["sql_plan"] * (1000.0 - CostModel().sql_plan_us)
    )


def test_drop_table():
    db = fresh_db()
    db.drop_table("users")
    with pytest.raises(NoSuchTableError):
        db.execute("SELECT 1 FROM users")
