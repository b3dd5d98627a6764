"""Planner tests: access-path selection asserted through execution counters.

The counters come from :class:`ExecutionContext`: ``index_probes`` counts
index lookups, ``rows_scanned`` counts rows the scan actually visited.  A
point query must do 1 probe and visit 1 row — not the full table.
"""

import pytest

from repro.common.errors import PlanningError
from repro.common.types import ColumnType as T
from repro.sql.executor import ExecutionContext, IndexRangeScan, IndexScan, SeqScan
from repro.sql.costing import split_conjuncts
from repro.sql.planner import prepare
from repro.sql.parser import parse_expression
from repro.storage.catalog import Catalog
from repro.storage.schema import schema

N = 100


@pytest.fixture
def catalog():
    cat = Catalog()
    users = cat.create_table(
        schema(
            "users",
            ("id", T.BIGINT, False),
            ("grp", T.INTEGER, False),
            ("score", T.FLOAT),
            ("name", T.VARCHAR),
            primary_key=["id"],
        )
    )
    users.create_index("users_grp_ord", ["grp"], ordered=True)
    for i in range(N):
        users.insert((i, i % 10, float(i), f"u{i}"))
    orders = cat.create_table(
        schema("orders", ("oid", T.BIGINT, False), ("uid", T.BIGINT), ("amt", T.FLOAT),
               primary_key=["oid"])
    )
    for i in range(10):
        orders.insert((i, i % 5, 10.0 * i))
    return cat


def run(catalog, sql, params=()):
    ctx = ExecutionContext(catalog, params)
    result = prepare(sql, catalog).execute(ctx)
    return result, ctx.counters


# -- access-path selection ---------------------------------------------------

def test_point_query_uses_index_one_probe_one_row(catalog):
    result, counters = run(catalog, "SELECT name FROM users WHERE id = ?", (42,))
    assert result.rows == [("u42",)]
    assert counters["index_probes"] == 1
    assert counters["rows_scanned"] == 1  # not the full table


def test_unindexed_predicate_falls_back_to_seqscan(catalog):
    result, counters = run(catalog, "SELECT id FROM users WHERE name = ?", ("u42",))
    assert result.rows == [(42,)]
    assert counters["index_probes"] == 0
    assert counters["rows_scanned"] == N


def test_range_predicate_uses_ordered_index(catalog):
    result, counters = run(
        catalog, "SELECT id FROM users WHERE grp >= ? AND grp <= ?", (3, 4)
    )
    assert len(result) == 20
    assert counters["index_probes"] == 1
    assert counters["rows_scanned"] == 20


def test_between_uses_ordered_index(catalog):
    result, counters = run(catalog, "SELECT id FROM users WHERE grp BETWEEN 3 AND 4")
    assert len(result) == 20
    assert counters["index_probes"] == 1
    assert counters["rows_scanned"] == 20


def test_half_open_range(catalog):
    result, counters = run(catalog, "SELECT id FROM users WHERE grp > 8")
    assert len(result) == 10
    assert counters["index_probes"] == 1


def test_equality_plus_residual_uses_index(catalog):
    # pk equality chooses IndexScan; the extra predicate becomes residual
    result, counters = run(
        catalog, "SELECT id FROM users WHERE id = ? AND score > ?", (42, 100.0)
    )
    assert result.rows == []
    assert counters["index_probes"] == 1
    assert counters["rows_scanned"] == 1


def test_planner_emits_expected_scan_nodes(catalog):
    from repro.sql.costing import PlanEnv, choose_scan
    from repro.sql.expressions import Scope

    users = catalog.table("users")
    scope = Scope()
    scope.add_source("users", users.schema)
    arity = users.schema.arity()

    def scan_for(where_sql):
        return choose_scan(
            parse_expression(where_sql), users, scope, arity, PlanEnv(None, None)
        )[0]

    assert isinstance(scan_for("id = ?"), IndexScan)
    assert isinstance(scan_for("grp < ?"), IndexRangeScan)
    assert isinstance(scan_for("name = ?"), SeqScan)
    assert isinstance(scan_for("score > 1.0"), SeqScan)  # no ordered index on score
    assert isinstance(scan_for("id = ? OR id = ?"), SeqScan)  # OR is not sargable


def test_null_key_probe_returns_empty(catalog):
    result, counters = run(catalog, "SELECT id FROM users WHERE id = ?", (None,))
    assert result.rows == []


def test_split_conjuncts_preserves_order():
    exprs = split_conjuncts(parse_expression("a = 1 AND b = 2 AND c = 3"))
    assert len(exprs) == 3


# -- DML access paths ---------------------------------------------------------

def test_update_by_pk_uses_index(catalog):
    result, counters = run(catalog, "UPDATE users SET score = ? WHERE id = ?", (999.0, 42))
    assert result.rowcount == 1
    assert counters["index_probes"] == 1
    assert counters["rows_scanned"] == 1
    assert counters["rows_updated"] == 1
    check, _ = run(catalog, "SELECT score FROM users WHERE id = 42")
    assert check.scalar() == 999.0


def test_delete_by_range_uses_ordered_index(catalog):
    result, counters = run(catalog, "DELETE FROM users WHERE grp >= 8")
    assert result.rowcount == 20
    assert counters["index_probes"] == 1
    assert counters["rows_deleted"] == 20
    left, _ = run(catalog, "SELECT count(*) FROM users")
    assert left.scalar() == N - 20


def test_update_moving_row_within_scanned_index_is_safe(catalog):
    # Materialise-then-mutate: shifting grp into the scanned range must not
    # double-visit rows even though the scan's index is being rewritten.
    result, _ = run(catalog, "UPDATE users SET grp = grp + 1 WHERE grp >= 5")
    assert result.rowcount == 50


# -- projection, ordering, aggregation ---------------------------------------

def test_projection_aliases_and_result_columns(catalog):
    result, _ = run(catalog, "SELECT id AS user_id, score * 2 AS dbl FROM users WHERE id = 1")
    assert result.columns == ("user_id", "dbl")
    assert result.rows == [(1, 2.0)]
    assert result.column("dbl") == [2.0]


def test_order_by_expression_alias_and_ordinal(catalog):
    by_expr, _ = run(catalog, "SELECT id FROM users WHERE id < 3 ORDER BY score DESC")
    assert by_expr.rows == [(2,), (1,), (0,)]
    by_alias, _ = run(catalog, "SELECT score AS s, id FROM users WHERE id < 3 ORDER BY s DESC")
    assert [r[1] for r in by_alias.rows] == [2, 1, 0]
    by_ordinal, _ = run(catalog, "SELECT id FROM users WHERE id < 3 ORDER BY 1 DESC")
    assert by_ordinal.rows == [(2,), (1,), (0,)]


def test_limit_offset(catalog):
    result, _ = run(catalog, "SELECT id FROM users ORDER BY id LIMIT ? OFFSET ?", (3, 5))
    assert result.rows == [(5,), (6,), (7,)]
    with pytest.raises(PlanningError):
        run(catalog, "SELECT id FROM users LIMIT ?", (-1,))


def test_limit_without_order_stops_scanning_early(catalog):
    result, counters = run(catalog, "SELECT id FROM users LIMIT 1")
    assert len(result) == 1
    assert counters["rows_scanned"] == 1  # not the whole table
    result, counters = run(catalog, "SELECT id FROM users WHERE grp = 3 LIMIT 2")
    assert len(result) == 2
    assert counters["rows_scanned"] < N  # stopped at the second match
    # ORDER BY still requires (and pays for) the full scan
    _, counters = run(catalog, "SELECT id FROM users ORDER BY score LIMIT 1")
    assert counters["rows_scanned"] == N


def test_aggregates_global_and_grouped(catalog):
    result, _ = run(catalog, "SELECT count(*), min(id), max(id), avg(score) FROM users")
    assert result.rows == [(N, 0, N - 1, sum(range(N)) / N)]
    grouped, _ = run(
        catalog,
        "SELECT grp, count(*) AS n, sum(score) FROM users GROUP BY grp "
        "HAVING count(*) > 0 ORDER BY grp LIMIT 2",
    )
    assert grouped.rows[0][0] == 0 and grouped.rows[0][1] == 10
    assert grouped.columns == ("grp", "n", "sum")


def test_global_aggregate_on_empty_input_yields_one_row(catalog):
    result, _ = run(catalog, "SELECT count(*), sum(score) FROM users WHERE id = -1")
    assert result.rows == [(0, None)]


def test_grouped_query_rejects_naked_columns(catalog):
    with pytest.raises(PlanningError, match="GROUP BY"):
        run(catalog, "SELECT name, count(*) FROM users GROUP BY grp")
    with pytest.raises(PlanningError, match="GROUP BY"):
        run(catalog, "SELECT grp, count(*) FROM users GROUP BY grp HAVING score > 1")


def test_having_rejects_select_alias_with_context(catalog):
    # standard SQL: HAVING sees group columns/aggregates, not output aliases
    with pytest.raises(PlanningError, match="HAVING.*'n'"):
        run(catalog, "SELECT grp, count(*) n FROM users GROUP BY grp HAVING n > 1")
    ok, _ = run(
        catalog,
        "SELECT grp, count(*) n FROM users GROUP BY grp HAVING count(*) > 1 ORDER BY grp",
    )
    assert len(ok) == 10


def test_group_by_matches_qualified_and_unqualified_spellings(catalog):
    # GROUP BY g covers t.g (and vice versa): matching is by resolved slot
    a, _ = run(catalog, "SELECT users.grp FROM users GROUP BY grp ORDER BY users.grp")
    b, _ = run(catalog, "SELECT grp FROM users u GROUP BY u.grp ORDER BY 1")
    assert a.rows == b.rows == [(g,) for g in range(10)]
    c, _ = run(
        catalog,
        "SELECT grp + 1, count(*) FROM users u GROUP BY u.grp + 1 ORDER BY 1 LIMIT 2",
    )
    assert c.rows == [(1, 10), (2, 10)]


def test_aggregate_in_where_rejected(catalog):
    with pytest.raises(PlanningError):
        run(catalog, "SELECT id FROM users WHERE count(*) > 1")


def test_distinct(catalog):
    result, _ = run(catalog, "SELECT DISTINCT grp FROM users ORDER BY grp")
    assert result.rows == [(g,) for g in range(10)]


def test_count_distinct(catalog):
    result, _ = run(catalog, "SELECT count(DISTINCT grp) FROM users")
    assert result.scalar() == 10


# -- joins --------------------------------------------------------------------

def test_inner_join(catalog):
    result, _ = run(
        catalog,
        "SELECT u.id, o.amt FROM users u JOIN orders o ON o.uid = u.id "
        "WHERE u.id < 2 ORDER BY u.id, o.amt",
    )
    assert result.rows == [(0, 0.0), (0, 50.0), (1, 10.0), (1, 60.0)]


def test_left_join_pads_nulls(catalog):
    result, _ = run(
        catalog,
        "SELECT u.id, o.oid FROM users u LEFT JOIN orders o ON o.uid = u.id "
        "WHERE u.id BETWEEN 4 AND 5 ORDER BY u.id, o.oid",
    )
    assert (5, None) in result.rows
    assert (4, 4) in result.rows and (4, 9) in result.rows


def test_equi_join_uses_inner_table_index(catalog):
    # ON u.id = o.uid: users is inner with a pk index on id -> one index
    # probe per order row instead of a 100-row scan per order row.
    result, counters = run(
        catalog,
        "SELECT o.oid, u.name FROM orders o JOIN users u ON u.id = o.uid ORDER BY o.oid",
    )
    assert len(result) == 10
    assert counters["index_probes"] == 10          # one per outer (order) row
    assert counters["rows_scanned"] == 10 + 10     # orders seqscan + probed users
    # same rows with the tables swapped: no index on orders.uid, so the
    # cost model picks a hash join — inner table scanned once to build,
    # not once per outer row as the legacy nested loop did.
    swapped, swapped_counters = run(
        catalog,
        "SELECT o.oid, u.name FROM users u JOIN orders o ON u.id = o.uid ORDER BY o.oid",
    )
    assert swapped.rows == result.rows
    assert swapped_counters["rows_scanned"] == 100 + 10  # users seqscan + orders build


def test_left_index_join_pads_nulls(catalog):
    result, counters = run(
        catalog,
        "SELECT o.oid, u.name FROM orders o LEFT JOIN users u ON u.id = o.uid + 1000",
    )
    assert len(result) == 10
    assert all(name is None for _oid, name in result.rows)
    assert counters["index_probes"] == 10  # probes still happen, all miss


def test_insert_select_arity_mismatch_caught_at_plan_time(catalog):
    # must fail even though the source SELECT would return zero rows
    with pytest.raises(PlanningError):
        prepare(
            "INSERT INTO orders (oid, uid) SELECT id FROM users WHERE id = -1",
            catalog,
        )


def test_join_pushes_base_predicate_into_scan(catalog):
    ctx = ExecutionContext(catalog, (3,))
    stmt = prepare(
        "SELECT u.id, o.oid FROM users u JOIN orders o ON o.uid = u.id WHERE u.id = ?",
        catalog,
    )
    stmt.execute(ctx)
    # u.id = ? probed the users pk instead of scanning 100 users; the join
    # itself seq-scans orders once (10 rows) for the single outer row.
    assert ctx.counters["index_probes"] == 1
    assert ctx.counters["rows_scanned"] == 1 + 10


def test_order_by_ambiguous_output_name_rejected(catalog):
    with pytest.raises(PlanningError):
        run(
            catalog,
            "SELECT u.id, o.oid AS id FROM users u JOIN orders o ON o.uid = u.id "
            "ORDER BY id",
        )
    # qualified or ordinal forms still work
    ok, _ = run(
        catalog,
        "SELECT u.id, o.oid AS id FROM users u JOIN orders o ON o.uid = u.id "
        "WHERE u.id = 0 ORDER BY 2",
    )
    assert [r[1] for r in ok.rows] == [0, 5]


def test_insert_explicit_null_takes_column_default(catalog):
    # column subset: unmentioned columns default (to NULL here)
    prepare("INSERT INTO orders (oid) VALUES (?)", catalog).execute(
        ExecutionContext(catalog, (500,))
    )
    result, _ = run(catalog, "SELECT uid, amt FROM orders WHERE oid = 500")
    assert result.rows == [(None, None)]


def test_select_without_from_honours_where_and_limit(catalog):
    hit, _ = run(catalog, "SELECT 1 WHERE 1 = 1")
    assert hit.rows == [(1,)]
    miss, _ = run(catalog, "SELECT 1 WHERE 1 = 2")
    assert miss.rows == []
    unknown, _ = run(catalog, "SELECT 1 WHERE ? = 1", (None,))
    assert unknown.rows == []  # NULL predicate -> not satisfied
    # a false WHERE suppresses the select list entirely (no eager 1/0)
    guarded, _ = run(catalog, "SELECT 1 / 0 WHERE 1 = 2")
    assert guarded.rows == []
    limited, _ = run(catalog, "SELECT 1 LIMIT 0")
    assert limited.rows == []
    offset, _ = run(catalog, "SELECT 1 LIMIT 5 OFFSET 1")
    assert offset.rows == []


# -- errors -------------------------------------------------------------------

def test_unknown_table_and_column_raise_at_plan_time(catalog):
    with pytest.raises(Exception):
        prepare("SELECT 1 FROM nope", catalog)
    with pytest.raises(PlanningError):
        prepare("SELECT nope FROM users", catalog)


def test_missing_parameters_rejected_at_execute(catalog):
    stmt = prepare("SELECT id FROM users WHERE id = ?", catalog)
    with pytest.raises(PlanningError):
        stmt.execute(ExecutionContext(catalog, ()))


def test_insert_arity_checked_at_plan_time(catalog):
    from repro.common.errors import NoSuchColumnError

    with pytest.raises(PlanningError):
        prepare("INSERT INTO users (id, grp) VALUES (1, 2, 3)", catalog)
    with pytest.raises(NoSuchColumnError):
        prepare("INSERT INTO users (id, nope) VALUES (1, 2)", catalog)
