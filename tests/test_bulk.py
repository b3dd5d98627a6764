"""Vectorized bulk paths: differential equivalence with the row-at-a-time
paths (identical physical state on commit and after abort), compact range
undo records, batch atomicity, and stream garbage collection."""

import pytest

from repro.common.errors import ConstraintViolation, NoSuchRowError
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.storage.schema import schema
from repro.storage.table import Table


def make_table():
    t = Table(
        schema(
            "items",
            ("id", T.BIGINT, False),
            ("grp", T.INTEGER, False),
            ("val", T.FLOAT),
            ("name", T.VARCHAR),
            primary_key=["id"],
            unique_keys=[["name"]],
        )
    )
    t.create_index("items_grp_ord", ["grp"], ordered=True)
    return t


def rows_for(n, start=0):
    return [(start + i, (start + i) % 3, float(i) / 2.0, f"n{start + i}") for i in range(n)]


def physical_state(table):
    """Everything the differential tests compare: rows+rowids+arrival order
    (snapshot_state) and the full contents of every index."""
    snap = table.snapshot_state()
    indexes = {}
    for name, index in table.indexes.items():
        entries = []
        for _rowid, row in table.scan():
            key = table.schema.key_of(row, index.key_columns)
            if None not in key:
                entries.append((key, sorted(index.lookup(key))))
        indexes[name] = sorted(entries)
    return snap, indexes


# -- storage layer -------------------------------------------------------------


def test_insert_many_matches_row_at_a_time_exactly():
    row_t, bulk_t = make_table(), make_table()
    data = rows_for(50)
    for values in data:
        row_t.insert(values)
    rowids = bulk_t.insert_many(data)
    assert list(rowids) == list(range(1, 51))  # contiguous, arrival order
    assert physical_state(row_t) == physical_state(bulk_t)


def test_insert_many_coerces_and_applies_defaults():
    t = make_table()
    t.insert_many([("7", "1", "2.5", "a")])  # strings coerced per column type
    assert t.get(1) == (7, 1, 2.5, "a")


def test_insert_many_duplicate_against_existing_leaves_table_unchanged():
    t = make_table()
    t.insert_many(rows_for(5))
    before = physical_state(t)
    next_rowid = t.snapshot_state()["next_rowid"]
    with pytest.raises(ConstraintViolation):
        t.insert_many([(100, 0, 0.0, "x"), (3, 1, 1.0, "y")])  # id 3 exists
    assert physical_state(t) == before
    # the failed batch consumed no rowids (checked before any mutation)
    assert t.snapshot_state()["next_rowid"] == next_rowid


def test_insert_many_intra_batch_duplicate_leaves_table_unchanged():
    t = make_table()
    before = physical_state(t)
    with pytest.raises(ConstraintViolation):
        t.insert_many([(1, 0, 0.0, "a"), (2, 1, 1.0, "b"), (1, 2, 2.0, "c")])
    assert physical_state(t) == before


def test_insert_many_null_keys_not_indexed_but_rows_stored():
    t = make_table()
    t.insert_many([(1, 0, 0.0, None), (2, 1, 1.0, None)])  # NULL unique key twice
    assert t.row_count() == 2
    assert len(t.index("items_uniq0")) == 0  # NULL never indexes


def test_delete_many_and_delete_range_maintain_indexes():
    t = make_table()
    t.insert_many(rows_for(10))
    t.delete_many([2, 4, 6])  # ids 1, 3, 5
    assert t.row_count() == 7
    assert list(t.index("items_pkey").lookup((2,))) == [3]  # id 2 at rowid 3
    assert list(t.index("items_pkey").lookup((1,))) == []  # id 1 was deleted
    # range undo primitive: drop the tail the bulk insert appended; rows
    # and indexes match a table that never saw the batch (the rowid cursor
    # legitimately differs: consumed rowids are never reused)
    t2 = make_table()
    t2.insert_many(rows_for(4))
    rowids = t2.insert_many(rows_for(3, start=100))
    assert t2.delete_range(rowids.start, len(rowids)) == 3
    reference = make_table()
    reference.insert_many(rows_for(4))
    t2_snap, t2_indexes = physical_state(t2)
    ref_snap, ref_indexes = physical_state(reference)
    assert t2_snap["rows"] == ref_snap["rows"]
    assert t2_indexes == ref_indexes


def test_delete_many_unknown_rowid_deletes_nothing():
    t = make_table()
    t.insert_many(rows_for(3))
    before = physical_state(t)
    with pytest.raises(NoSuchRowError):
        t.delete_many([1, 99])
    assert physical_state(t) == before


def test_delete_many_duplicate_rowid_deletes_nothing():
    t = make_table()
    t.insert_many(rows_for(3))
    before = physical_state(t)
    with pytest.raises(NoSuchRowError, match="duplicate"):
        t.delete_many([2, 2])
    assert physical_state(t) == before  # rows AND indexes untouched


def test_ordered_index_bulk_insert_keeps_range_scans_sorted():
    t = make_table()
    t.insert_many(rows_for(30))
    t.insert_many(rows_for(30, start=100))
    idx = t.index("items_grp_ord")
    keys = [t.get(r)[1] for r in idx.range_scan()]
    assert keys == sorted(keys)
    assert len(keys) == 60


# -- engine layer: executemany bulk path ---------------------------------------


def engine_db():
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


INSERT_USERS = "INSERT INTO users (id, name, age) VALUES (?, ?, ?)"


def user_rows(n):
    return [(i, f"u{i}", 20 + i) for i in range(n)]


def test_executemany_bulk_matches_per_row_execute_on_commit():
    bulk, perrow = engine_db(), engine_db()
    bulk.executemany(INSERT_USERS, user_rows(40))
    with perrow.transaction():
        for params in user_rows(40):
            perrow.execute(INSERT_USERS, params)
    assert (
        bulk.catalog.table("users").snapshot_state()
        == perrow.catalog.table("users").snapshot_state()
    )
    assert bulk.events.rows_inserted == perrow.events.rows_inserted == 40
    assert bulk.last_counters["rows_inserted"] == 40


def test_executemany_bulk_abort_restores_identical_state():
    bulk, perrow = engine_db(), engine_db()
    for db in (bulk, perrow):
        db.executemany(INSERT_USERS, user_rows(5))
    txn = bulk.begin()
    bulk.executemany(INSERT_USERS, user_rows(30)[5:])
    txn.abort()
    txn = perrow.begin()
    for params in user_rows(30)[5:]:
        perrow.execute(INSERT_USERS, params)
    txn.abort()
    # identical physical state after abort: rows, rowids (both paths consumed
    # the same 25 rowids), and arrival order
    assert (
        bulk.catalog.table("users").snapshot_state()
        == perrow.catalog.table("users").snapshot_state()
    )


def test_executemany_records_one_compact_undo_entry():
    db = Database()
    db.create_table(
        schema("t", ("id", T.BIGINT, False), primary_key=["id"])
    )
    txn = db.begin()
    db.executemany("INSERT INTO t (id) VALUES (?)", [(i,) for i in range(100)])
    assert len(txn.undo) == 1  # one range record for 100 rows
    txn.abort()
    assert db.events.rows_undone == 100  # counted per row undone
    assert db.execute("SELECT count(*) FROM t").scalar() == 0


def test_executemany_midbatch_violation_is_atomic():
    db = engine_db()
    db.executemany(INSERT_USERS, [(0, "u0", 20)])
    with pytest.raises(ConstraintViolation):
        db.executemany(INSERT_USERS, [(1, "a", 1), (0, "dup", 2), (2, "b", 3)])
    assert db.execute("SELECT count(*) FROM users").scalar() == 1
    # inside an explicit transaction the batch is one statement with its own
    # savepoint: the whole batch rolls back, the transaction stays usable
    with db.transaction():
        with pytest.raises(ConstraintViolation):
            db.executemany(INSERT_USERS, [(5, "e", 5), (0, "dup", 6)])
        db.execute(INSERT_USERS, (9, "ok", 9))
    assert db.query("SELECT id FROM users ORDER BY id") == [{"id": 0}, {"id": 9}]


def test_executemany_fallback_batch_is_atomic_in_explicit_txn():
    # UPDATE has no vectorized binder; the per-row fallback must still give
    # the whole batch one savepoint — a mid-batch failure rolls back the
    # rows already applied, leaving the transaction usable
    db = engine_db()
    db.executemany(INSERT_USERS, user_rows(3))
    with db.transaction():
        with pytest.raises(ConstraintViolation):
            db.executemany(
                "UPDATE users SET id = ? WHERE id = ?",
                [(100, 0), (1, 2)],  # second row collides with existing id 1
            )
        assert db.execute("SELECT count(*) FROM users WHERE id = 100").scalar() == 0
        db.execute("UPDATE users SET age = 99 WHERE id = 0")
    assert db.query("SELECT id, age FROM users ORDER BY id") == [
        {"id": 0, "age": 99}, {"id": 1, "age": 21}, {"id": 2, "age": 22},
    ]


def test_multirow_values_insert_uses_bulk_path():
    db = engine_db()
    db.execute("INSERT INTO users (id, name, age) VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)")
    assert db.execute("SELECT count(*) FROM users").scalar() == 3
    txn = db.begin()
    db.execute("INSERT INTO users (id, name, age) VALUES (4, 'd', 4), (5, 'e', 5)")
    assert len(txn.undo) == 1  # one range record for the two-row VALUES list
    txn.abort()
    assert db.execute("SELECT count(*) FROM users").scalar() == 3


def test_insert_select_uses_bulk_path_and_rolls_back():
    db = engine_db()
    db.create_table(
        schema(
            "archive",
            ("id", T.BIGINT, False),
            ("name", T.VARCHAR),
            ("age", T.INTEGER),
            primary_key=["id"],
        )
    )
    db.executemany(INSERT_USERS, user_rows(8))
    txn = db.begin()
    db.execute("INSERT INTO archive (id, name, age) SELECT id, name, age FROM users")
    assert len(txn.undo) == 1
    txn.abort()
    assert db.execute("SELECT count(*) FROM archive").scalar() == 0
    db.execute("INSERT INTO archive (id, name, age) SELECT id, name, age FROM users")
    # same row contents in the same arrival order (rowids differ: the
    # aborted bulk insert consumed rowids, which are never reused)
    assert [row for _rid, row in db.catalog.table("archive").snapshot_state()["rows"]] == [
        row for _rid, row in db.catalog.table("users").snapshot_state()["rows"]
    ]


def test_executemany_column_subset_applies_defaults():
    # an in-order *prefix* of the columns must not take the full-width fast
    # path: unmentioned trailing columns get their defaults (here NULL)
    db = engine_db()
    db.executemany("INSERT INTO users (id, name) VALUES (?, ?)", [(1, "a"), (2, "b")])
    assert db.query("SELECT id, name, age FROM users ORDER BY id") == [
        {"id": 1, "name": "a", "age": None},
        {"id": 2, "name": "b", "age": None},
    ]
    # non-prefix subsets and permuted column lists route through the
    # generic binder and land values in the right slots
    db.executemany("INSERT INTO users (age, id) VALUES (?, ?)", [(30, 3)])
    assert db.query("SELECT id, name, age FROM users WHERE id = 3") == [
        {"id": 3, "name": None, "age": 30}
    ]


def test_executemany_parameter_arity_checked_per_row():
    from repro.common.errors import PlanningError

    db = engine_db()
    with pytest.raises(PlanningError, match="parameter"):
        db.executemany(INSERT_USERS, [(1, "a", 1), (2, "b")])
    assert db.execute("SELECT count(*) FROM users").scalar() == 0


# -- streaming layer: bulk ingest + garbage collection -------------------------


def stream_db():
    db = Database()
    db.create_stream(schema("s", ("v", T.INTEGER)))
    db.create_table(schema("sink", ("v", T.INTEGER)))
    return db


def test_ingest_bulk_apply_preserves_rows_metadata_and_order():
    db = stream_db()
    db.ingest("s", [(3,), (1,), (2,)])
    db.ingest("s", [(9,)])
    assert db.execute("SELECT v, __batch_id__, __seq__ FROM s").rows == [
        (3, 1, 1), (1, 1, 2), (2, 1, 3), (9, 2, 4),
    ]


def test_aborted_ingest_rolls_back_bulk_insert():
    db = stream_db()

    def explode(ctx, rows):
        raise RuntimeError("boom")

    db.create_ee_trigger("bomb", "s", explode)
    before = db.catalog.table("s").snapshot_state()["rows"]
    with pytest.raises(Exception, match="boom"):
        db.ingest("s", [(1,), (2,), (3,)])
    # the bulk insert was fully undone (rowids consumed, as per-row would)
    assert db.catalog.table("s").snapshot_state()["rows"] == before
    assert db.streaming.streams["s"].last_committed == 0


def test_drain_reclaims_fully_consumed_batches():
    db = stream_db()

    @db.register_procedure
    def consume(ctx, batch):
        for (v,) in batch.rows:
            ctx.execute("INSERT INTO sink (v) VALUES (?)", (v,))

    db.create_workflow("w", [("s", "consume")])
    for b in range(1, 11):
        db.ingest("s", [(b,), (b * 10,)])
    st = db.stats()["streaming"]
    # only the newest consumed batch is resident; the rest were reclaimed
    assert st["streams"]["s"]["rows"] == 2
    assert st["streams"]["s"]["rows_reclaimed"] == 18
    assert st["scheduler"]["rows_reclaimed"] == 18
    # the logical stream state is untouched by GC
    assert db.streaming.streams["s"].last_committed == 10
    assert db.execute("SELECT count(*) FROM sink").scalar() == 20
    # ingest continues normally after reclamation
    db.ingest("s", [(99,)])
    assert db.execute("SELECT v FROM s WHERE __batch_id__ = 11").rows == [(99,)]


def test_gc_runs_after_each_delivery_not_when_the_queue_empties():
    """GC runs right after each delivery commits, so what a later delivery
    sees resident follows from the delivery order alone — which the command
    log records — and not from when the queue happens to empty."""
    db = stream_db()
    resident = {}

    @db.register_procedure
    def consume(ctx, batch):
        rows = ctx.execute("SELECT DISTINCT __batch_id__ FROM s").rows
        resident[batch.batch_id] = sorted(b for (b,) in rows)

    db.create_workflow("w", [("s", "consume")])
    db.ingest("s", [(3,)], batch_id=3)
    db.ingest("s", [(2,)], batch_id=2)
    assert resident == {}  # both wait for batch 1
    db.ingest("s", [(1,)], batch_id=1)  # one drain delivers 1, 2 and 3
    assert resident == {1: [1, 2, 3], 2: [1, 2, 3], 3: [2, 3]}


def test_reclaimed_total_is_the_per_stream_sum_across_a_checkpoint():
    """The scheduler's ``rows_reclaimed`` is the sum of the streams'
    counters: a checkpoint carries only those, and restore ignores the
    top-level total an older file may hold."""
    def consuming_db():
        db = stream_db()
        db.register_procedure("consume", lambda ctx, batch: None)
        db.create_workflow("w", [("s", "consume")])
        return db

    db = consuming_db()
    for b in range(1, 6):
        db.ingest("s", [(b,), (b * 10,)])
    state = db.streaming.persistent_state()
    assert "rows_reclaimed" not in state
    assert state["streams"]["s"]["reclaimed_rows"] == 8
    restored = consuming_db()
    restored.streaming.restore_persistent_state({**state, "rows_reclaimed": 999})
    assert restored.stats()["streaming"]["scheduler"]["rows_reclaimed"] == 8


def test_unconsumed_batches_are_never_reclaimed():
    db = stream_db()
    calls = []

    @db.register_procedure
    def flaky(ctx, batch):
        if not calls:
            calls.append(batch.batch_id)
            raise RuntimeError("transient")
        ctx.execute("INSERT INTO sink (v) VALUES (?)", (batch.rows[0][0],))

    db.create_workflow("w", [("s", "flaky")])
    with pytest.raises(Exception, match="transient"):
        db.ingest("s", [(1,)])
    # delivery failed: the batch is not consumed, so nothing is reclaimed
    assert db.stats()["streaming"]["streams"]["s"]["rows"] == 1
    assert db.stats()["streaming"]["streams"]["s"]["rows_reclaimed"] == 0
    db.drain()  # retry succeeds; batch 1 is now the horizon and is retained
    assert db.stats()["streaming"]["streams"]["s"]["rows"] == 1


def test_streams_without_subscribers_keep_all_rows():
    db = stream_db()
    for b in range(1, 6):
        db.ingest("s", [(b,)])
    db.drain()
    assert db.stats()["streaming"]["streams"]["s"]["rows"] == 5
    assert db.stats()["streaming"]["streams"]["s"]["rows_reclaimed"] == 0
