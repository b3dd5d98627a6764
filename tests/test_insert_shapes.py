"""INSERT shapes and grouped aggregates, pinned to literal results.

Every INSERT shape — a column list out of schema order with defaults,
multi-row VALUES, INSERT ... SELECT (a self-insert included) and both
``executemany`` binders — builds its rows in one generated frame per row,
and grouping builds its key and all aggregate inputs the same way.  The
expected rows, rowcounts and ``last_counters`` below are literals, so a
change to how rows are built cannot move them unnoticed.  The values
were captured before INSERT rows became generated frames.
"""

import pytest

from repro.common.errors import ExpressionError, PlanningError
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.storage.schema import Column, TableSchema


@pytest.fixture
def db():
    d = Database()
    d.create_table(TableSchema("acct", [
        Column("id", T.BIGINT, False),
        Column("owner", T.VARCHAR, True, "nobody"),
        Column("balance", T.INTEGER, False, 100),
        Column("note", T.VARCHAR),
    ], primary_key=["id"]))
    d.create_table(TableSchema("log", [
        Column("k", T.BIGINT, False),
        Column("v", T.INTEGER, True, 7),
    ]))
    return d


def insert_accounts(db):
    """Accounts 1-4, through a column list and a multi-row VALUES."""
    db.execute("INSERT INTO acct (note, id) VALUES (?, ?)", ("n1", 1))
    db.execute(
        "INSERT INTO acct (balance, id, owner) VALUES (5, 2, 'ann'), (?, 3, ?), (?*2, ?, NULL)",
        (6, "bob", 21, 4),
    )


def insert_many_accounts(db):
    """Accounts 10-14, through both ``executemany`` binders."""
    db.executemany(
        "INSERT INTO acct VALUES (?, ?, ?, ?)", [(10, "x", 1, None), (11, None, 2, "y")]
    )
    db.executemany(
        "INSERT INTO acct (id, note) VALUES (?, ?)", [(12, "a"), (13, "b"), (14, None)]
    )


def test_column_list_out_of_schema_order_takes_defaults(db):
    rs = db.execute("INSERT INTO acct (note, id) VALUES (?, ?)", ("n1", 1))
    assert rs.rowcount == 1
    assert db.last_counters == {"rows_inserted": 1}
    assert db.execute("SELECT * FROM acct").rows == [(1, "nobody", 100, "n1")]


def test_multi_row_values(db):
    db.execute("INSERT INTO acct (note, id) VALUES (?, ?)", ("n1", 1))
    rs = db.execute(
        "INSERT INTO acct (balance, id, owner) VALUES (5, 2, 'ann'), (?, 3, ?), (?*2, ?, NULL)",
        (6, "bob", 21, 4),
    )
    assert rs.rowcount == 3
    assert db.last_counters == {"rows_inserted": 3}
    assert db.execute("SELECT * FROM acct ORDER BY id").rows == [
        (1, "nobody", 100, "n1"), (2, "ann", 5, None), (3, "bob", 6, None),
        (4, "nobody", 42, None),
    ]


def test_insert_select_with_a_column_list_and_a_self_insert(db):
    insert_accounts(db)
    rs = db.execute("INSERT INTO log (v, k) SELECT balance, id FROM acct WHERE id >= ?", (2,))
    assert rs.rowcount == 3
    assert db.last_counters == {"rows_scanned": 4, "rows_inserted": 3}
    rs = db.execute("INSERT INTO log (k) SELECT id * 10 FROM acct WHERE owner = 'nobody'")
    assert rs.rowcount == 2
    assert db.last_counters == {"rows_scanned": 4, "rows_inserted": 2}
    assert db.execute("SELECT k, v FROM log ORDER BY k").rows == [
        (2, 5), (3, 6), (4, 42), (10, 7), (40, 7),
    ]
    # the SELECT is materialised before the first write
    rs = db.execute("INSERT INTO log SELECT k + 100, v FROM log")
    assert rs.rowcount == 5
    assert db.last_counters == {"rows_scanned": 5, "rows_inserted": 5}
    assert db.execute("SELECT k, v FROM log ORDER BY k").rows == [
        (2, 5), (3, 6), (4, 42), (10, 7), (40, 7),
        (102, 5), (103, 6), (104, 42), (110, 7), (140, 7),
    ]


def test_executemany_full_width_and_partial_column_lists(db):
    n = db.executemany(
        "INSERT INTO acct VALUES (?, ?, ?, ?)", [(10, "x", 1, None), (11, None, 2, "y")]
    )
    assert n == 2
    assert db.last_counters == {"rows_inserted": 2}
    n = db.executemany(
        "INSERT INTO acct (id, note) VALUES (?, ?)", [(12, "a"), (13, "b"), (14, None)]
    )
    assert n == 3
    assert db.last_counters == {"rows_inserted": 3}
    assert db.execute("SELECT * FROM acct WHERE id >= 10 ORDER BY id").rows == [
        (10, "x", 1, None), (11, "nobody", 2, "y"), (12, "nobody", 100, "a"),
        (13, "nobody", 100, "b"), (14, "nobody", 100, None),
    ]


def test_too_few_parameters_is_a_planning_error_and_writes_nothing(db):
    sql = "INSERT INTO acct (id, note) VALUES (?, ?)"
    message = "statement requires 2 parameter\\(s\\), got 1"
    with pytest.raises(PlanningError, match=message):
        db.execute(sql, (20,))
    with pytest.raises(PlanningError, match=message):
        db.executemany(sql, [(21, "ok"), (22,)])
    assert db.execute("SELECT count(*) FROM acct").rows == [(0,)]


def test_group_by_with_several_aggregates(db):
    insert_accounts(db)
    insert_many_accounts(db)
    rs = db.execute(
        "SELECT owner, COUNT(*), COUNT(note), SUM(balance), MIN(balance), MAX(id), "
        "AVG(balance) FROM acct GROUP BY owner ORDER BY owner"
    )
    assert rs.rows == [
        ("ann", 1, 0, 5, 5, 2, 5.0), ("bob", 1, 0, 6, 6, 3, 6.0),
        ("nobody", 6, 4, 444, 2, 14, 74.0), ("x", 1, 0, 1, 1, 10, 1.0),
    ]
    assert db.last_counters == {"rows_scanned": 9}
    rs = db.execute(
        "SELECT COUNT(*), COUNT(note), SUM(balance), MIN(balance), AVG(balance), "
        "COUNT(DISTINCT owner) FROM acct"
    )
    assert rs.rows == [(9, 4, 456, 1, 50.666666666666664, 4)]
    assert db.last_counters == {"rows_scanned": 9}


def test_aggregates_over_empty_input(db):
    insert_accounts(db)
    insert_many_accounts(db)
    rs = db.execute("SELECT COUNT(*), SUM(balance), MAX(note) FROM acct WHERE id < 0")
    assert rs.rows == [(0, None, None)]  # a global aggregate still yields a row
    assert db.last_counters == {"rows_scanned": 9}
    rs = db.execute("SELECT owner, COUNT(*), SUM(balance) FROM acct WHERE id < 0 GROUP BY owner")
    assert (rs.rows, rs.rowcount) == ([], 0)
    assert db.last_counters == {"rows_scanned": 9}


def test_insert_values_are_evaluated_in_column_order(db):
    """The row builder evaluates schema column order, as UPDATE's SET list
    does: ``id`` (the type error) before ``note`` (the division by zero),
    whatever order the column list names them in."""
    with pytest.raises(ExpressionError, match="type error"):
        db.execute("INSERT INTO acct (note, id) VALUES (1 / 0, 'x' + 1)")
    assert db.execute("SELECT count(*) FROM acct").rows == [(0,)]
