"""Table statistics, the cost-based planner, ANALYZE, and EXPLAIN.

Covers the stats lifecycle (ANALYZE -> selectivities -> auto-refresh ->
stats-version plan-cache invalidation), the ``db.explain`` estimated-vs-
actual row accounting, the planner stats section, and the ``explain``
and ``analyze`` server/coordinator operations.
"""

import pytest

from repro.common.ops import bind, perform
from repro.common.types import ColumnType as T
from repro.engine.database import Database
from repro.engine.stats import StatsCatalog, analyze_table
from repro.partition import PartitionedDatabase
from repro.server import protocol
from repro.storage.schema import schema


def make_db(rows: int = 200) -> Database:
    db = Database()
    db.create_table(
        schema(
            "txns",
            ("id", T.BIGINT, False),
            ("amount", T.FLOAT),
            ("status", T.VARCHAR),
            ("bucket", T.BIGINT),
            primary_key=["id"],
        )
    )
    for i in range(rows):
        db.execute(
            "INSERT INTO txns (id, amount, status, bucket) VALUES (?, ?, ?, ?)",
            (i, float(i * 10 % 1000), ("ok", "flagged")[i % 10 == 0], i % 4),
        )
    return db


# -- ANALYZE entry points ----------------------------------------------------


def test_analyze_statement_returns_per_table_rows():
    db = make_db(50)
    result = db.execute("ANALYZE")
    assert result.rows == [("txns", 50)]
    assert db.table_stats.get("txns").analyzed_rows == 50


def test_analyze_single_table_statement():
    db = make_db(30)
    result = db.execute("ANALYZE txns")
    assert result.rows == [("txns", 30)]


def test_analyze_after_a_leading_comment_on_a_single_engine():
    """The single engine reads the verb from the lexer, as the partitioned
    one does: a leading comment does not hide ANALYZE, in process or
    served, and a malformed ANALYZE is a parse error on both shapes."""
    from repro.common.errors import ParseError
    from repro.server import ReproClient, ReproServer

    db = make_db(20)
    assert db.execute("-- c\nANALYZE txns").rows == [("txns", 20)]
    assert db.execute("-- c\nanalyze;").rows == [("txns", 20)]
    with ReproServer(db) as server, ReproClient(*server.address) as client:
        assert client.execute("-- c\nANALYZE").rows == [("txns", 20)]
    with pytest.raises(ParseError, match="ANALYZE"):
        db.execute("ANALYZE txns extra")


def test_analyze_api_bumps_stats_version():
    db = make_db(10)
    v0 = db.table_stats.version
    db.analyze()
    assert db.table_stats.version == v0 + 1
    db.analyze("txns")
    assert db.table_stats.version == v0 + 2


def test_analyze_charges_rows_scanned():
    db = make_db(40)
    before = db.events.rows_scanned
    db.analyze()
    assert db.events.rows_scanned - before == 40


# -- column statistics and selectivity ---------------------------------------


def test_analyze_table_collects_column_stats():
    db = make_db(100)
    stats = analyze_table(db.catalog.table("txns"))
    assert stats.analyzed_rows == 100
    assert stats.columns["bucket"].ndv == 4
    assert stats.columns["id"].min == 0
    assert stats.columns["id"].max == 99
    assert stats.columns["status"].ndv == 2


def test_eq_selectivity_uses_ndv():
    db = make_db(100)
    db.analyze()
    table = db.catalog.table("txns")
    # bucket has 4 distinct values -> eq selectivity 1/4
    assert db.table_stats.eq_selectivity(table, "bucket") == pytest.approx(0.25)
    # an unanalyzed catalog falls back to the default
    assert StatsCatalog().eq_selectivity(table, "bucket") == pytest.approx(0.1)


def test_range_selectivity_interpolates_min_max():
    db = make_db(100)
    db.analyze()
    info = db.explain("SELECT id FROM txns WHERE id > 74")
    # ids span 0..99, so > 74 covers ~one quarter of the table
    assert 15 <= info["estimated_rows"] <= 35
    assert info["actual_rows"] == 25


def test_estimates_respond_to_analyze():
    db = make_db(100)
    before = db.explain("SELECT id FROM txns WHERE bucket = 1")["estimated_rows"]
    db.analyze()
    after = db.explain("SELECT id FROM txns WHERE bucket = 1")["estimated_rows"]
    # default eq selectivity 0.1 -> 10 rows; with NDV=4 -> 25 rows
    assert before == pytest.approx(10, abs=2)
    assert after == pytest.approx(25, abs=2)


# -- auto refresh ------------------------------------------------------------


def test_auto_refresh_after_row_drift():
    db = make_db(10)
    db.table_stats.auto_refresh_floor = 16  # shrink the floor for the test
    db.analyze()
    assert db.table_stats.auto_refreshes == 0
    for i in range(1000, 1020):  # drift of 20 >= max(16, 0.5*10)
        db.execute(
            "INSERT INTO txns (id, amount, status, bucket) VALUES (?, ?, ?, ?)",
            (i, 1.0, "ok", 0),
        )
    db.prepare("SELECT id FROM txns WHERE bucket = 3")
    # the refresh fires on the first prepare after drift crosses the
    # threshold (the INSERTs themselves prepare, so it lands mid-loop)
    assert db.table_stats.auto_refreshes == 1
    assert db.table_stats.get("txns").analyzed_rows >= 10 + 16


def test_no_auto_refresh_without_initial_analyze():
    db = make_db(10)
    for i in range(1000, 1600):
        db.execute(
            "INSERT INTO txns (id, amount, status, bucket) VALUES (?, ?, ?, ?)",
            (i, 1.0, "ok", 0),
        )
    db.prepare("SELECT id FROM txns WHERE bucket = 3")
    assert db.table_stats.auto_refreshes == 0  # ANALYZE is the opt-in


# -- stale-plan regression: stats version must invalidate cached plans -------


def test_stats_refresh_invalidates_cached_plan():
    db = make_db(100)
    sql = "SELECT id FROM txns WHERE bucket = 1"
    first = db.prepare(sql)
    invalidations0 = db.plan_cache.stats()["stats_invalidations"]
    epoch0 = db.schema_epoch
    db.analyze()  # bumps the stats version, NOT the schema epoch
    second = db.prepare(sql)
    assert db.schema_epoch == epoch0
    assert second is not first, "stale plan served after a stats refresh"
    assert second.stats_version == db.table_stats.version
    assert db.plan_cache.stats()["stats_invalidations"] == invalidations0 + 1
    # the replaced plan reflects the refreshed statistics
    assert second.plan_info["estimated_rows"] != first.plan_info["estimated_rows"]


def test_stale_statement_still_executes():
    # stats staleness only means "possibly suboptimal" — unlike a schema
    # change, executing a pre-refresh statement must not be rejected
    db = make_db(20)
    sql = "SELECT id FROM txns WHERE bucket = 1"
    stmt = db.prepare(sql)
    db.analyze()
    rows = db.execute_prepared(stmt).rows
    assert rows == db.execute(sql).rows


def test_cache_hit_when_stats_unchanged():
    db = make_db(20)
    sql = "SELECT id FROM txns WHERE bucket = 1"
    db.prepare(sql)
    hits0 = db.plan_cache.stats()["hits"]
    db.prepare(sql)
    assert db.plan_cache.stats()["hits"] == hits0 + 1


# -- explain -----------------------------------------------------------------


def test_explain_reports_estimated_and_actual_rows():
    db = make_db(100)
    db.analyze()
    info = db.explain("SELECT id, amount FROM txns WHERE status = ?", ("flagged",))
    assert info["kind"] == "select"
    assert info["actual_rows"] == 10
    assert info["estimated_rows"] > 0
    scan = info["scan"]
    assert scan["op_id"] == 0
    assert scan["actual_rows"] == 10


def test_explain_join_includes_considered_costs():
    db = make_db(60)
    db.create_table(schema("buckets", ("num", T.BIGINT), ("label", T.VARCHAR)))
    for n in range(4):
        db.execute("INSERT INTO buckets (num, label) VALUES (?, ?)", (n, f"b{n}"))
    db.analyze()
    info = db.explain(
        "SELECT t.id, b.label FROM txns t JOIN buckets b ON t.bucket = b.num"
    )
    join = info["joins"][0]
    # inl appears only when the inner side has a usable index
    assert {"hash", "bnl"} <= set(join["considered"])
    assert join["op"] in ("HashJoin", "IndexNestedLoopJoin")
    assert join["actual_rows"] == 60


def test_explain_does_not_execute_dml():
    db = make_db(10)
    info = db.explain("DELETE FROM txns WHERE id >= 0")
    assert info["kind"] == "delete"
    assert "actual_rows" not in info
    assert db.execute("SELECT COUNT(*) FROM txns").rows == [(10,)]


def test_explain_does_not_disturb_later_queries():
    db = make_db(10)
    db.explain("SELECT id FROM txns WHERE bucket = 0")
    rows = db.execute("SELECT COUNT(*) FROM txns").rows
    assert rows == [(10,)]


# -- planner stats section ---------------------------------------------------


def test_planner_stats_section():
    db = make_db(30)
    db.create_table(schema("aux", ("ref", T.BIGINT)))
    db.execute("INSERT INTO aux (ref) VALUES (1)")
    db.analyze()
    db.execute("SELECT t.id FROM txns t JOIN aux a ON t.bucket = a.ref")
    section = db.stats("planner")
    assert section["plans_costed"] >= 1
    assert sum(section["joins"].values()) >= 1
    assert section["force_join"] is None
    assert len(section["stats"]["analyzed"]) == 2
    assert section["stats"]["version"] >= 1


# -- server protocol + partition ops ----------------------------------------


def test_protocol_explain_op():
    db = make_db(25)
    db.analyze()
    record = {"op": "explain", "sql": "SELECT id FROM txns WHERE bucket = ?",
              "params": [2]}
    info = perform(bind(db), record)
    assert info["kind"] == "select"
    assert info["actual_rows"] == 6


def test_protocol_rejects_unknown_op_still():
    assert "explain" in protocol.OPS


def test_partitioned_analyze_and_explain():
    def deploy(db, part):
        db.create_table(
            schema(
                "kv",
                ("k", T.BIGINT, False),
                ("v", T.VARCHAR),
                primary_key=["k"],
            )
        )

    pdb = PartitionedDatabase(
        2, deploy, partition_keys={"kv": "k"}, workers="inline"
    )
    with pdb:
        for i in range(40):
            pdb.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (i, f"v{i}"), key=i)
        analyzed = pdb.analyze()
        assert analyzed["kv"] == 40  # summed across both partitions
        info = pdb.explain("SELECT k FROM kv WHERE k >= 0")
        assert info["kind"] == "select"
        assert info["scan"]["op_id"] == 0
        # routed explain lands on the key's partition: fewer actual rows
        routed = pdb.explain("SELECT k FROM kv WHERE k >= 0", key=0)
        assert routed["actual_rows"] < 40
