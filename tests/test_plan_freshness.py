"""Plans that stay right after they are pinned or cached.

A stored procedure's statements are planned at first call — usually
against empty tables — and reused from then on.  These tests hold the two
halves of that contract together: a plan made on an empty table is
already the right one (row counts are floored at ``PLAN_MIN_ROWS`` for
costing), and a reused plan is re-made once a table it was costed against
leaves its row band (``PreparedStatement.fresh``, checked by the pin
table and the plan cache alike).
"""

import pytest

from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.sql.costing import PLAN_MIN_ROWS, PLAN_ROW_BAND
from repro.storage.schema import schema

POINT_SELECT = "SELECT v FROM kv WHERE k = ?"
POINT_UPDATE = "UPDATE kv SET v = v + 1 WHERE k = ?"
INSERT = "INSERT INTO kv (k, v) VALUES (?, ?)"


def kv_db() -> Database:
    db = Database()
    db.create_table(
        schema("kv", ("k", T.INTEGER, False), ("v", T.INTEGER, False), primary_key=["k"])
    )
    return db


def scan_op(db: Database, sql: str) -> str:
    return db.explain(sql, (1,))["scan"]["op"]


# -- (i) a plan made on an empty table is already the right plan ---------------


def test_procedure_first_called_on_empty_table_probes_forever():
    db = kv_db()

    @db.register_procedure
    def touch(ctx, k):
        ctx.execute(POINT_UPDATE, (k,))
        update = db.last_counters
        value = ctx.execute(POINT_SELECT, (k,)).scalar()
        return update, db.last_counters, value

    db.call("touch", 1)  # pins both plans while kv is empty
    db.executemany(INSERT, [(k, 0) for k in range(2000)])
    update, select, value = db.call("touch", 1234)
    assert value == 1
    assert update["rows_scanned"] <= 1 and update["index_probes"] == 1
    assert select["rows_scanned"] <= 1 and select["index_probes"] == 1
    assert scan_op(db, POINT_SELECT) == "IndexScan"
    assert scan_op(db, POINT_UPDATE) == "IndexScan"


def test_adhoc_statement_cached_on_empty_table_probes():
    db = kv_db()
    assert db.execute(POINT_SELECT, (1,)).rows == []  # cached while empty
    db.executemany(INSERT, [(k, k) for k in range(2000)])
    assert db.execute(POINT_SELECT, (1234,)).scalar() == 1234
    assert db.last_counters["rows_scanned"] <= 1
    assert db.last_counters["index_probes"] == 1
    assert scan_op(db, POINT_SELECT) == "IndexScan"


def test_unindexed_join_planned_on_empty_inputs_hashes():
    db = join_db()
    (join,) = db.explain(JOIN)["joins"]
    assert join["op"] == "HashJoin"
    # chosen on cost, not by the tie-break between all-zero candidates
    assert join["considered"]["hash"] < join["considered"]["bnl"]


# -- (ii) one freshness rule, checked where plans are reused -------------------

JOIN = "SELECT a.x, b.y FROM a JOIN b ON a.j = b.j"


def join_db() -> Database:
    db = Database()
    db.create_table(schema("a", ("j", T.INTEGER), ("x", T.INTEGER)))
    db.create_table(schema("b", ("j", T.INTEGER), ("y", T.INTEGER)))
    return db


def grow(db: Database, table: str, start: int, stop: int) -> None:
    db.executemany(f"INSERT INTO {table} VALUES (?, ?)", [(i, i) for i in range(start, stop)])


def band_crossings(rows: int) -> int:
    """How often a table growing from nothing to ``rows`` leaves its band."""
    planned, crossings = PLAN_MIN_ROWS, 0
    while rows > planned * PLAN_ROW_BAND:
        planned = planned * PLAN_ROW_BAND + 1
        crossings += 1
    return crossings


def test_pinned_join_replans_as_its_tables_grow():
    db = join_db()

    @db.register_procedure
    def joined(ctx):
        return len(ctx.execute(JOIN))

    grow(db, "a", 0, 3)
    grow(db, "b", 0, 3)
    assert db.call("joined") == 3  # first call: pinned at 3 x 3
    plans = db.events.sql_plan
    for size in (30, 300, 3000):
        grow(db, "a", db.catalog.table("a").row_count(), size)
        grow(db, "b", db.catalog.table("b").row_count(), size)
        assert db.call("joined") == size
    replans = db.events.sql_plan - plans
    # one plan per band crossing of either table, never one per call
    assert 1 <= replans <= 2 * band_crossings(3000)
    assert db.stats()["plan_cache"]["replans"] == replans
    # the plan cache shares the rule: EXPLAIN sees the plan the pin runs
    assert [j["op"] for j in db.explain(JOIN)["joins"]] == ["HashJoin"]
    assert db.events.sql_plan - plans == replans


def test_pinned_index_join_flips_to_hash_when_probing_stops_paying():
    # b.j holds ten distinct values, so each index probe fetches a tenth
    # of b: right for 3 rows, quadratic for 3,000
    db = join_db()
    db.create_index("b", "b_j", ["j"])

    @db.register_procedure
    def joined(ctx):
        return len(ctx.execute(JOIN))

    def fill(size: int) -> None:
        have = db.catalog.table("a").row_count()
        rows = [(i % 10, i) for i in range(have, size)]
        db.executemany("INSERT INTO a VALUES (?, ?)", rows)
        db.executemany("INSERT INTO b VALUES (?, ?)", rows)

    fill(3)
    assert db.call("joined") == 3
    assert db.last_counters["index_probes"] == 3  # index-nested-loop
    fill(3000)
    assert db.call("joined") == 3000 * 300
    assert db.last_counters["index_probes"] == 0
    assert db.last_counters["rows_scanned"] == 3000 + 3000  # each input once


def test_growth_from_empty_replans_a_bounded_number_of_times():
    db = kv_db()

    @db.register_procedure
    def get(ctx, k):
        return ctx.execute(POINT_SELECT, (k,)).scalar()

    db.call("get", 0)
    db.prepare(INSERT)  # an INSERT is costed against no table: planned once
    plans = db.events.sql_plan
    for k in range(2000):
        db.execute(INSERT, (k, k))
        assert db.call("get", k) == k
    assert band_crossings(2000) <= 5
    assert db.events.sql_plan - plans == band_crossings(2000)


def test_table_oscillating_inside_its_band_never_replans():
    db = kv_db()
    db.executemany(INSERT, [(k, k) for k in range(100)])

    @db.register_procedure
    def get(ctx, k):
        return ctx.execute(POINT_SELECT, (k,)).scalar()

    db.call("get", 0)  # planned at 100 rows: fresh from 25 to 400
    db.execute(POINT_SELECT, (0,))
    db.prepare("DELETE FROM kv WHERE k >= 30")
    plans = db.events.sql_plan
    pins = db.stats()["plan_cache"]["pin_hits"]
    for _ in range(5):  # a window sliding between 30 and 390 rows
        db.executemany(INSERT, [(k, k) for k in range(100, 390)])
        db.call("get", 0)
        db.execute(POINT_SELECT, (0,))
        db.execute("DELETE FROM kv WHERE k >= 30")
        db.call("get", 0)
        db.execute(POINT_SELECT, (0,))
    assert db.events.sql_plan == plans
    assert db.stats()["plan_cache"]["pin_hits"] == pins + 10
    assert db.stats()["plan_cache"]["replans"] == 0


def test_emptied_small_table_never_thrashes():
    # both sides of the comparison are floored: a table that was planned
    # small may empty and refill below 4 x PLAN_MIN_ROWS for ever
    db = kv_db()
    for sql in (POINT_SELECT, INSERT, "DELETE FROM kv"):
        db.prepare(sql)
    plans = db.events.sql_plan
    for _ in range(5):
        db.executemany(INSERT, [(k, k) for k in range(PLAN_ROW_BAND * PLAN_MIN_ROWS)])
        db.execute(POINT_SELECT, (0,))
        db.execute("DELETE FROM kv")
        db.execute(POINT_SELECT, (0,))
    assert db.events.sql_plan == plans


def test_shrinking_below_the_band_replans_too():
    db = kv_db()
    db.executemany(INSERT, [(k, k) for k in range(1000)])
    stmt = db.prepare(POINT_SELECT)
    db.execute("DELETE FROM kv WHERE k >= 200")
    assert db.prepare(POINT_SELECT) is not stmt  # 200 < 1000 / 4
    assert db.stats()["plan_cache"]["replans"] == 1


def test_stale_by_rows_statement_still_executes():
    # like stats staleness, leaving the row band means "possibly
    # suboptimal": an externally held statement is never rejected for it
    db = kv_db()
    stmt = db.prepare(POINT_SELECT)
    db.executemany(INSERT, [(k, k) for k in range(500)])
    assert not stmt.fresh(db.schema_epoch, db.table_stats.version)
    assert db.execute_prepared(stmt, (7,)).scalar() == 7


# -- the hit rate counts the lookups pins answer --------------------------------


def test_hit_rate_counts_pin_hits_without_touching_cache_hits():
    db = kv_db()
    db.execute(INSERT, (1, 0))

    @db.register_procedure
    def bump(ctx, k):
        ctx.execute(POINT_UPDATE, (k,))

    db.call("bump", 1)
    before = db.stats()["plan_cache"]
    for _ in range(98):
        db.call("bump", 1)
    after = db.stats()["plan_cache"]
    assert after["hits"] == before["hits"]  # pins cause no cache traffic
    assert after["pin_hits"] == before["pin_hits"] + 98
    assert after["hit_rate"] == pytest.approx(
        (after["hits"] + after["pin_hits"])
        / (after["hits"] + after["pin_hits"] + after["misses"])
    )
    assert after["hit_rate"] > 0.9
