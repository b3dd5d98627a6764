"""Differential testing of the join suite.

Every join strategy — cost-based default, forced hash,
block-nested-loop, and index-nested-loop — must produce the identical
row set for the same query.  The fixtures cover indexed and unindexed
equi-joins, LEFT OUTER joins, NULL join keys, residual ON conjuncts,
non-equi joins, comma/cross joins, and aggregates over joins.
"""

import gc
import time

import pytest

from repro.common.errors import PlanningError
from repro.common.types import ColumnType as T
from repro.engine.database import Database
from repro.sql.costing import JOIN_STRATEGIES
from repro.storage.schema import schema


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        schema(
            "dept",
            ("id", T.BIGINT, False),
            ("name", T.VARCHAR),
            ("budget", T.FLOAT),
            primary_key=["id"],
        )
    )
    database.create_table(
        schema(
            "emp",
            ("id", T.BIGINT, False),
            ("dept_ref", T.BIGINT),
            ("salary", T.FLOAT),
            ("name", T.VARCHAR),
            primary_key=["id"],
        )
    )
    # dept.id is indexed (primary key); emp.dept_ref is NOT indexed, so an
    # equi-join on it exercises the unindexed paths.
    for i in range(1, 9):
        database.execute(
            "INSERT INTO dept (id, name, budget) VALUES (?, ?, ?)",
            (i, f"dept-{i}", 1000.0 * i),
        )
    rows = []
    for i in range(1, 61):
        dept_ref = None if i % 13 == 0 else (i % 10) + 1  # refs 1..10: 9, 10 dangle
        rows.append((i, dept_ref, 100.0 * (i % 7), f"emp-{i}"))
    for row in rows:
        database.execute(
            "INSERT INTO emp (id, dept_ref, salary, name) VALUES (?, ?, ?, ?)", row
        )
    database.execute("ANALYZE")
    return database


QUERIES = [
    # unindexed equi-join (fraud-style shape)
    "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_ref = d.id",
    # equi-join written with the indexed side as inner
    "SELECT d.name, e.name FROM dept d JOIN emp e ON d.id = e.dept_ref",
    # residual ON conjunct alongside the equi key
    "SELECT e.id, d.id FROM emp e JOIN dept d"
    " ON e.dept_ref = d.id AND e.salary > d.budget / 20.0",
    # LEFT OUTER: dangling emp rows (dept_ref NULL or 9/10) must survive
    "SELECT e.id, d.name FROM emp e LEFT JOIN dept d ON e.dept_ref = d.id",
    # LEFT OUTER with residual ON condition
    "SELECT e.id, d.id FROM emp e LEFT JOIN dept d"
    " ON e.dept_ref = d.id AND d.budget > 3000.0",
    # non-equi join: hash is infeasible, planner must fall back
    "SELECT e.id, d.id FROM emp e JOIN dept d ON e.salary < d.budget / 10.0",
    # comma join with WHERE-clause join predicate
    "SELECT e.id, d.name FROM emp e, dept d"
    " WHERE e.dept_ref = d.id AND e.salary >= 200.0",
    # aggregate over a join
    "SELECT d.name, COUNT(*), SUM(e.salary) FROM emp e"
    " JOIN dept d ON e.dept_ref = d.id GROUP BY d.name",
    # three-way join
    "SELECT e.id, d.name, m.name FROM emp e"
    " JOIN dept d ON e.dept_ref = d.id"
    " JOIN emp m ON m.dept_ref = d.id AND m.id < e.id",
    # join with ORDER BY and WHERE filter
    "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_ref = d.id"
    " WHERE d.budget > 2000.0 ORDER BY e.id",
]


def run_all_strategies(db, sql, params=()):
    results = {}
    for strategy in (None, *JOIN_STRATEGIES):
        db.force_join = strategy
        rows = db.execute(sql, params).rows
        results[strategy or "cost"] = rows
    db.force_join = None
    return results


@pytest.mark.parametrize("sql", QUERIES)
def test_all_strategies_agree(db, sql):
    results = run_all_strategies(db, sql)
    baseline = sorted(results["cost"], key=repr)
    assert baseline, f"fixture query returned no rows: {sql}"
    for strategy, rows in results.items():
        assert sorted(rows, key=repr) == baseline, (
            f"strategy {strategy!r} diverged on {sql}"
        )


def test_every_costed_strategy_is_forceable(db):
    # what the cost model prices, force_join can pin — so the sweep above
    # differentially tests every algorithm the planner may pick
    for sql in QUERIES:
        for join in db.explain(sql)["joins"]:
            assert set(join["considered"]) <= set(JOIN_STRATEGIES), (sql, join)


def test_order_by_preserved_under_every_strategy(db):
    sql = (
        "SELECT e.id FROM emp e JOIN dept d ON e.dept_ref = d.id"
        " ORDER BY e.id DESC"
    )
    for strategy, rows in run_all_strategies(db, sql).items():
        ids = [r[0] for r in rows]
        assert ids == sorted(ids, reverse=True), f"{strategy} broke ORDER BY"


def test_null_keys_never_match(db):
    # emp rows with NULL dept_ref (13, 26, 39, 52) join to nothing
    sql = (
        "SELECT e.id FROM emp e JOIN dept d ON e.dept_ref = d.id"
        " WHERE e.id IN (13, 26, 39, 52)"
    )
    for strategy, rows in run_all_strategies(db, sql).items():
        assert rows == [], f"{strategy} matched a NULL join key"
    # ... but LEFT OUTER keeps them with NULL-padded dept columns
    sql = (
        "SELECT e.id, d.id FROM emp e LEFT JOIN dept d ON e.dept_ref = d.id"
        " WHERE e.id IN (13, 26)"
    )
    for strategy, rows in run_all_strategies(db, sql).items():
        assert sorted(rows) == [(13, None), (26, None)], strategy


def test_chosen_operators_match_forcing(db):
    sql = "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_ref = d.id"
    expected = {
        "hash": "HashJoin",
        "bnl": "BlockNestedLoopJoin",
        # dept.id is the primary-key index, so forcing inl uses it
        "inl": "IndexNestedLoopJoin",
    }
    for strategy, op in expected.items():
        db.force_join = strategy
        info = db.explain(sql)
        assert info["joins"][0]["op"] == op, (strategy, info["joins"][0])
    db.force_join = None


def test_cost_based_picks_hash_for_unindexed_equi_join(db):
    # join key on the *emp* side is unindexed when dept drives the probe:
    # swap so neither visible index applies and hash must win on cost
    db.create_table(schema("tags", ("emp_ref", T.BIGINT), ("label", T.VARCHAR)))
    for i in range(1, 61):
        db.execute(
            "INSERT INTO tags (emp_ref, label) VALUES (?, ?)",
            (i, f"label-{i % 5}",)
        )
    db.execute("ANALYZE")
    info = db.explain(
        "SELECT e.id, t.label FROM emp e JOIN tags t ON e.id + 0 = t.emp_ref"
    )
    assert info["joins"][0]["op"] == "HashJoin", info["joins"][0]
    considered = info["joins"][0]["considered"]
    assert considered["hash"] < considered["bnl"]


def test_non_equi_forced_hash_falls_back_to_bnl(db):
    sql = "SELECT e.id, d.id FROM emp e JOIN dept d ON e.salary < d.budget"
    db.force_join = "hash"
    info = db.explain(sql)
    assert info["joins"][0]["op"] == "BlockNestedLoopJoin"
    db.force_join = None


def test_inl_without_index_uses_nested_loop(db):
    # emp.dept_ref has no index, so inner=emp under forced inl has no
    # index path: the block-nested-loop operator runs instead
    db.force_join = "inl"
    sql = "SELECT d.id, e.id FROM dept d JOIN emp e ON d.id = e.dept_ref"
    info = db.explain(sql)
    assert info["joins"][0]["op"] == "BlockNestedLoopJoin"
    rows = db.execute(sql).rows
    db.force_join = None
    assert sorted(rows) == sorted(db.execute(sql).rows)


@pytest.mark.parametrize("strategy", ["quantum", "merge"])
def test_force_join_rejects_unknown_strategy(db, strategy):
    with pytest.raises(PlanningError):
        db.force_join = strategy


def test_force_join_change_invalidates_plan_cache(db):
    sql = "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_ref = d.id"
    db.execute(sql)
    db.force_join = "bnl"
    assert db.explain(sql)["joins"][0]["op"] == "BlockNestedLoopJoin"
    db.force_join = None


def test_force_join_change_replans_pinned_procedure_statements(db):
    """A procedure's pin table must not keep the previous strategy's plan,
    and the change must not stale an externally held prepared statement."""
    sql = "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_ref = d.id"
    db.register_procedure("roster", lambda ctx: ctx.execute(sql).rows)
    held = db.prepare("SELECT name FROM dept WHERE id = ?")
    expected = sorted(db.call("roster"))
    assert db.stats("planner")["joins"] == {"hash": 1, "inl": 0, "bnl": 0}
    db.force_join = "bnl"
    assert sorted(db.call("roster")) == expected
    assert db.stats("planner")["joins"] == {"hash": 1, "inl": 0, "bnl": 1}
    assert db.execute_prepared(held, (3,)).rows == [("dept-3",)]
    db.force_join = None


def test_hash_join_scans_inner_once(db):
    def scanned() -> int:
        return db.stats("counters").get("rows_scanned", 0)

    db.force_join = "bnl"
    before = scanned()
    db.execute("SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_ref = d.id")
    bnl_scanned = scanned() - before
    db.force_join = "hash"
    before = scanned()
    db.execute("SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_ref = d.id")
    hash_scanned = scanned() - before
    db.force_join = None
    # both materialise each side exactly once: 60 emp + 8 dept
    assert hash_scanned == 68
    assert bnl_scanned == 68


@pytest.mark.wallclock
def test_cost_picked_hash_join_beats_forced_bnl():
    # the fraud-style stream-to-table join on an unindexed key: 2,000
    # transactions against 150 customers joined on customers.cust_ref
    db = Database()
    db.create_table(schema(
        "customers", ("cust_pk", T.BIGINT, False), ("cust_ref", T.BIGINT, False),
        ("tier", T.VARCHAR), primary_key=["cust_pk"],
    ))
    db.create_table(schema(
        "txns", ("txn_id", T.BIGINT, False), ("cust_ref", T.BIGINT, False),
        ("amount", T.FLOAT), primary_key=["txn_id"],
    ))
    tiers = ("gold", "silver", "bronze")
    db.executemany(
        "INSERT INTO customers VALUES (?, ?, ?)",
        [(i, i, tiers[i % 3]) for i in range(150)],
    )
    db.executemany(
        "INSERT INTO txns VALUES (?, ?, ?)",
        [(i, i * 7919 % 150, float(i * 31 % 1000)) for i in range(2_000)],
    )
    db.execute("ANALYZE")
    sql = (
        "SELECT t.txn_id, c.tier, t.amount FROM txns t "
        "JOIN customers c ON c.cust_ref = t.cust_ref WHERE t.amount > 500.0"
    )

    def best_of_3() -> float:
        db.execute(sql)  # plan outside the timed runs
        best = float("inf")
        for _ in range(3):
            gc.collect()
            start = time.perf_counter()
            db.execute(sql)
            best = min(best, time.perf_counter() - start)
        return best

    assert db.explain(sql)["joins"][0]["op"] == "HashJoin"
    hash_s = best_of_3()
    db.force_join = "bnl"
    assert db.explain(sql)["joins"][0]["op"] == "BlockNestedLoopJoin"
    bnl_s = best_of_3()
    assert hash_s < bnl_s
