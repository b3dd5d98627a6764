"""Streams, hidden metadata, batch ordering, EE triggers, and windows."""

import pytest

from repro.common.errors import (
    BatchOrderError,
    ConstraintViolation,
    SchemaError,
    StreamingError,
    TransactionError,
    WindowVisibilityError,
)
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.storage.schema import TableKind, schema
from repro.streaming.runtime import StreamingRuntime


def fresh_db():
    return Database()


def votes_db():
    db = fresh_db()
    db.create_stream(schema("votes", ("phone", T.BIGINT), ("contestant", T.INTEGER)))
    return db


# -- streams and hidden metadata ----------------------------------------------


def test_create_stream_extends_schema_with_hidden_columns():
    db = votes_db()
    table = db.catalog.table("votes")
    assert table.schema.kind is TableKind.STREAM
    assert table.schema.column_names() == (
        "phone", "contestant", "__batch_id__", "__seq__",
    )
    assert table.schema.declared_columns() == ("phone", "contestant")
    assert table.schema.hidden_columns() == ("__batch_id__", "__seq__")


def test_select_star_hides_metadata_but_explicit_reference_works():
    db = votes_db()
    db.ingest("votes", [(100, 1), (101, 2)])
    result = db.execute("SELECT * FROM votes")
    assert result.columns == ("phone", "contestant")
    assert result.rows == [(100, 1), (101, 2)]
    meta = db.execute("SELECT __batch_id__, __seq__ FROM votes")
    assert meta.rows == [(1, 1), (1, 2)]


def test_stats_lists_declared_columns_only():
    db = votes_db()
    tables = db.stats()["tables"]
    assert tables["votes"]["columns"] == ["phone", "contestant"]
    assert tables["votes"]["kind"] == "STREAM"


def test_declared_schema_may_not_use_reserved_prefix():
    db = fresh_db()
    with pytest.raises(SchemaError, match="reserved"):
        db.create_stream(schema("bad", ("__x__", T.INTEGER)))


def test_create_table_rejects_stream_kind_schema():
    db = fresh_db()
    with pytest.raises(SchemaError, match="create_stream"):
        db.create_table(schema("s", ("v", T.INTEGER), kind=TableKind.STREAM))


def test_create_table_rejects_reserved_prefix_columns():
    # SELECT * / stats() hide '__'-prefixed columns everywhere, so a user
    # column by that name would silently vanish — reject it at DDL time.
    db = fresh_db()
    with pytest.raises(SchemaError, match="reserved"):
        db.create_table(schema("t", ("a", T.INTEGER), ("__b", T.INTEGER)))


def test_ingest_accepts_dict_rows_and_applies_defaults():
    db = fresh_db()
    db.create_stream(
        schema("ev", ("k", T.INTEGER, False), ("note", T.VARCHAR))
    )
    db.ingest("ev", [{"k": 1}, {"k": 2, "note": "hi"}])
    assert db.execute("SELECT k, note FROM ev").rows == [(1, None), (2, "hi")]


def test_ingest_rejects_wrong_arity_rows_atomically():
    db = votes_db()
    with pytest.raises(SchemaError, match="expects 2"):
        db.ingest("votes", [(1, 2), (3, 4, 5)])
    assert db.execute("SELECT count(*) FROM votes").scalar() == 0
    assert db.streaming.streams["votes"].last_committed == 0


# -- direct DML rejection (streams and windows are ingest-only) ----------------


def test_direct_dml_on_stream_rejected_with_ingest_hint():
    db = votes_db()
    for sql in (
        "INSERT INTO votes (phone, contestant) VALUES (1, 1)",
        "UPDATE votes SET contestant = 2",
        "DELETE FROM votes",
    ):
        with pytest.raises(StreamingError, match=r"db\.ingest"):
            db.execute(sql)


def test_direct_dml_on_window_rejected():
    db = votes_db()
    db.create_window("recent", "votes", size=4, slide=2)
    with pytest.raises(StreamingError, match="streaming layer"):
        db.execute("DELETE FROM recent")


def test_stream_reads_are_unrestricted():
    db = votes_db()
    db.ingest("votes", [(1, 1)])
    assert db.execute("SELECT count(*) FROM votes").scalar() == 1
    with db.transaction():
        assert db.execute("SELECT phone FROM votes").rows == [(1,)]


def test_rejected_dml_leaves_enclosing_transaction_usable():
    db = votes_db()
    db.create_table(schema("t", ("v", T.INTEGER)))
    with db.transaction():
        db.execute("INSERT INTO t (v) VALUES (1)")
        with pytest.raises(StreamingError):
            db.execute("DELETE FROM votes")
        db.execute("INSERT INTO t (v) VALUES (2)")
    assert db.execute("SELECT count(*) FROM t").scalar() == 2


# -- batch ordering ------------------------------------------------------------


def test_batch_ids_autoincrement_and_report_applied():
    db = votes_db()
    assert db.ingest("votes", [(1, 1)]) == [1]
    assert db.ingest("votes", [(2, 1)]) == [2]
    assert db.streaming.streams["votes"].last_committed == 2


def test_stale_or_duplicate_batch_rejected():
    db = votes_db()
    db.ingest("votes", [(1, 1)], batch_id=1)
    with pytest.raises(BatchOrderError, match="not after"):
        db.ingest("votes", [(2, 1)], batch_id=1)
    with pytest.raises(BatchOrderError, match="not after"):
        db.ingest("votes", [(2, 1)], batch_id=0)


def test_future_batch_queued_until_gap_fills():
    db = votes_db()
    assert db.ingest("votes", [(3, 3)], batch_id=3) == []      # queued
    assert db.ingest("votes", [(2, 2)], batch_id=2) == []      # queued
    assert db.execute("SELECT count(*) FROM votes").scalar() == 0
    # batch 1 fills the gap: all three apply, in batch-id order
    assert db.ingest("votes", [(1, 1)], batch_id=1) == [1, 2, 3]
    assert db.execute("SELECT phone, __batch_id__ FROM votes").rows == [
        (1, 1), (2, 2), (3, 3),
    ]
    assert db.streaming.streams["votes"].pending == {}


def test_queued_batch_id_cannot_be_submitted_twice():
    db = votes_db()
    db.ingest("votes", [(5, 1)], batch_id=5)
    with pytest.raises(BatchOrderError, match="already queued"):
        db.ingest("votes", [(5, 2)], batch_id=5)


def test_queued_batch_rows_validated_at_submission_time():
    # A malformed future batch must fail *now*, not poison the later
    # gap-filling ingest that would apply it.
    db = votes_db()
    with pytest.raises(SchemaError, match="expects 2"):
        db.ingest("votes", [(1, 2, 3)], batch_id=2)
    assert db.streaming.streams["votes"].pending == {}
    assert db.ingest("votes", [(1, 1)], batch_id=1) == [1]


def test_failed_gap_fill_batch_can_be_retried_by_reingest():
    db = fresh_db()
    db.create_stream(schema("keyed", ("k", T.INTEGER, False), primary_key=["k"]))
    db.ingest("keyed", [(1,)], batch_id=1)
    # queue batch 3 whose rows will violate the stream's key once applied
    db.ingest("keyed", [(1,)], batch_id=3)
    with pytest.raises(ConstraintViolation):
        db.ingest("keyed", [(2,)], batch_id=2)  # gap-fill of 3 fails
    assert db.streaming.streams["keyed"].last_committed == 2
    assert sorted(db.streaming.streams["keyed"].pending) == [3]
    # explicit re-ingest of the stuck batch replaces it and applies
    assert db.ingest("keyed", [(3,)], batch_id=3) == [3]
    assert db.streaming.streams["keyed"].pending == {}
    assert db.execute("SELECT k FROM keyed").rows == [(1,), (2,), (3,)]


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "recovery_dir"])
def test_ingest_coerces_each_row_once_and_counts_alike_in_both_modes(
    monkeypatch, tmp_path, durable
):
    def bootstrap(db):
        db.create_stream(schema("votes", ("phone", T.BIGINT), ("contestant", T.INTEGER)))

    if durable:
        db = Database(recovery_dir=tmp_path / "db", bootstrap=bootstrap)
    else:
        db = fresh_db()
        bootstrap(db)
    calls = []
    coerce = StreamingRuntime._coerce_declared

    def counting(self, stream, raw):
        calls.append(raw)
        return coerce(self, stream, raw)

    monkeypatch.setattr(StreamingRuntime, "_coerce_declared", counting)
    assert db.ingest("votes", [(2, 1), (3, 1), (4, 1)], batch_id=2) == []
    assert db.ingest("votes", [(1, 1)], batch_id=1) == [1, 2]
    assert len(calls) == 4  # the queued batch is not coerced again when applied
    before = db.stats("events")
    with pytest.raises(SchemaError, match="expects 2"):
        db.ingest("votes", [(5, 1, 9)])
    after = db.stats("events")
    changed = {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
    assert changed == {"client_submit": 1}


def test_ingest_rejected_inside_open_transaction():
    db = votes_db()
    with db.transaction():
        with pytest.raises(TransactionError, match="ctx.emit"):
            db.ingest("votes", [(1, 1)])


def test_aborted_ingest_is_atomic_and_batch_id_reusable():
    db = fresh_db()
    db.create_stream(
        schema("keyed", ("k", T.INTEGER, False), primary_key=["k"])
    )
    with pytest.raises(ConstraintViolation):
        db.ingest("keyed", [(1,), (2,), (1,)])  # dup key on 3rd row
    assert db.execute("SELECT count(*) FROM keyed").scalar() == 0
    assert db.streaming.streams["keyed"].last_committed == 0
    # the failed batch id was never committed, so it can be retried
    assert db.ingest("keyed", [(1,), (2,)]) == [1]


# -- EE triggers ---------------------------------------------------------------


def test_ee_trigger_fires_in_ingesting_transaction():
    db = votes_db()
    db.create_table(schema("audit", ("phone", T.BIGINT), ("batch", T.BIGINT)))

    def on_votes(ctx, rows):
        for phone, _contestant in rows:
            ctx.execute(
                "INSERT INTO audit (phone, batch) VALUES (?, ?)",
                (phone, ctx.batch_id),
            )

    db.create_ee_trigger("audit_votes", "votes", on_votes)
    fires_before = db.events.ee_trigger
    db.ingest("votes", [(100, 1), (101, 2)])
    db.ingest("votes", [(102, 1)])
    assert db.execute("SELECT phone, batch FROM audit").rows == [
        (100, 1), (101, 1), (102, 2),
    ]
    # one firing per batch-insert statement
    assert db.events.ee_trigger - fires_before == 2


def test_failing_ee_trigger_aborts_whole_ingest():
    db = votes_db()
    db.create_table(schema("audit", ("phone", T.BIGINT)))

    def explode(ctx, rows):
        ctx.execute("INSERT INTO audit (phone) VALUES (?)", (rows[0][0],))
        raise RuntimeError("trigger failure")

    db.create_ee_trigger("boom", "votes", explode)
    with pytest.raises(RuntimeError, match="trigger failure"):
        db.ingest("votes", [(100, 1)])
    # everything rolled back: stream rows, trigger writes, watermark
    assert db.execute("SELECT count(*) FROM votes").scalar() == 0
    assert db.execute("SELECT count(*) FROM audit").scalar() == 0
    assert db.streaming.streams["votes"].last_committed == 0


def test_ee_trigger_emit_cascades_within_one_transaction():
    db = votes_db()
    db.create_stream(schema("loud", ("phone", T.BIGINT)))

    def forward(ctx, rows):
        ctx.emit("loud", [(phone,) for phone, _c in rows])

    db.create_ee_trigger("forward", "votes", forward)
    db.ingest("votes", [(100, 1), (101, 2)])
    assert db.execute("SELECT phone FROM loud").rows == [(100,), (101,)]
    assert db.streaming.streams["loud"].last_committed == 1


def test_ee_trigger_requires_stream_and_unique_name():
    db = votes_db()
    db.create_window("w", "votes", size=2, slide=1)
    from repro.common.errors import TriggerError

    with pytest.raises(StreamingError, match="not a STREAM"):
        db.create_ee_trigger("t", "w", lambda ctx, rows: None)
    db.create_ee_trigger("t", "votes", lambda ctx, rows: None)
    with pytest.raises(TriggerError, match="already exists"):
        db.create_pe_trigger("t", "votes", lambda d, b: None)


# -- PE triggers ---------------------------------------------------------------


def test_pe_trigger_fires_after_commit_with_batch():
    db = votes_db()
    seen = []

    def on_commit(d, batch):
        # runs outside any transaction: free to start its own
        assert d.stats()["transactions"]["open"] is False
        seen.append((batch.stream, batch.batch_id, batch.rows))

    db.create_pe_trigger("watch", "votes", on_commit)
    db.ingest("votes", [(100, 1)])
    db.ingest("votes", [(101, 2)])
    assert seen == [("votes", 1, ((100, 1),)), ("votes", 2, ((101, 2),))]
    assert db.events.pe_trigger == 2


def test_aborted_ingest_fires_no_pe_triggers():
    db = fresh_db()
    db.create_stream(schema("keyed", ("k", T.INTEGER, False), primary_key=["k"]))
    seen = []
    db.create_pe_trigger("watch", "keyed", lambda d, b: seen.append(b.batch_id))
    with pytest.raises(ConstraintViolation):
        db.ingest("keyed", [(1,), (1,)])
    assert seen == []
    assert db.events.pe_trigger == 0
    assert db.stats()["streaming"]["scheduler"]["pending_deliveries"] == 0


# -- windows -------------------------------------------------------------------


def test_tuple_window_slides_and_evicts():
    db = votes_db()
    db.create_window("recent", "votes", size=4, slide=2)
    db.ingest("votes", [(1, 1)])
    # one staged tuple: below the slide threshold, nothing visible
    assert db.execute("SELECT count(*) FROM recent").scalar() == 0
    db.ingest("votes", [(2, 1)])
    assert db.execute("SELECT phone FROM recent").rows == [(1,), (2,)]
    db.ingest("votes", [(3, 1), (4, 1), (5, 1)])
    # slide activated (3, 4); 5 stays staged; size 4 keeps 1..4
    assert db.execute("SELECT phone FROM recent").rows == [(1,), (2,), (3,), (4,)]
    db.ingest("votes", [(6, 1)])
    # (5, 6) activate; eviction drops (1, 2)
    assert db.execute("SELECT phone FROM recent").rows == [(3,), (4,), (5,), (6,)]
    assert db.events.window_slide == 3


@pytest.mark.parametrize(
    "unit, size, slide, batch_sizes, visible, slides, updated, deleted",
    [
        ("rows", 2, 1, [5], [3, 4], 5, 5, 3),
        ("rows", 3, 2, [7, 1, 4], [9, 10, 11], 6, 12, 9),
        ("batches", 3, 2, [1, 1, 1, 1, 1], [1, 2, 3], 2, 4, 1),
    ],
)
def test_multi_slide_absorb_pins_contents_and_writes(
    unit, size, slide, batch_sizes, visible, slides, updated, deleted
):
    # one absorb may slide several times and evict rows it just activated
    db = votes_db()
    db.create_window("w", "votes", size=size, slide=slide, unit=unit)
    phone = 0
    for n in batch_sizes:
        db.ingest("votes", [(phone + i, 0) for i in range(n)])
        phone += n
    assert [r[0] for r in db.execute("SELECT phone FROM w ORDER BY phone").rows] == visible
    events = db.stats("events")
    assert (events["window_slide"], events["rows_updated"], events["rows_deleted"]) == (
        slides, updated, deleted,
    )


def test_tuple_window_with_large_slide_keeps_all_activated_rows():
    # slide > size/2 must not evict freshly activated rows (negative
    # eviction excess is "nothing to evict", not a slice from the front)
    db = votes_db()
    db.create_window("big", "votes", size=10, slide=6)
    db.ingest("votes", [(i, 0) for i in range(6)])
    assert db.execute("SELECT count(*) FROM big").scalar() == 6
    db.ingest("votes", [(i, 0) for i in range(6, 12)])
    # second slide: 12 active, evict the oldest 2 down to size 10
    assert db.execute("SELECT phone FROM big").rows == [
        (i,) for i in range(2, 12)
    ]


def test_emit_conflicting_with_queued_ingest_batches_rejected():
    db = votes_db()
    db.create_stream(schema("side", ("v", T.INTEGER)))
    db.ingest("side", [(9,)], batch_id=9)  # queued future batch

    @db.register_procedure
    def pusher(ctx):
        ctx.emit("side", [(1,)], batch_id=9)

    from repro.common.errors import ProcedureError

    with pytest.raises(ProcedureError, match="queued ingest batches"):
        db.call("pusher")
    # the queued batch is still intact and applies once the gap fills
    assert sorted(db.streaming.streams["side"].pending) == [9]


def test_batch_window_keeps_last_n_batches():
    db = votes_db()
    db.create_window("by_batch", "votes", size=2, slide=1, unit="batches")
    db.ingest("votes", [(1, 1), (2, 1)])
    db.ingest("votes", [(3, 1)])
    db.ingest("votes", [(4, 1), (5, 1)])
    # window = batches {2, 3}
    assert db.execute("SELECT phone, __batch_id__ FROM by_batch").rows == [
        (3, 2), (4, 3), (5, 3),
    ]


def test_window_spec_validation():
    db = votes_db()
    with pytest.raises(SchemaError, match="unit"):
        db.create_window("w1", "votes", size=2, slide=1, unit="years")
    with pytest.raises(SchemaError, match="exceed"):
        db.create_window("w2", "votes", size=2, slide=3)
    with pytest.raises(SchemaError, match=">= 1"):
        db.create_window("w3", "votes", size=0, slide=0)


def test_window_drops_source_key_constraints():
    # A window holds several batches, so a per-batch key is not unique
    # across its contents: the window schema must drop the stream's keys.
    db = fresh_db()
    db.create_stream(schema("keyed", ("k", T.INTEGER, False), primary_key=["k"]))
    window = db.create_window("wk", "keyed", size=4, slide=1, unit="batches")
    assert window.table.schema.primary_key == ()
    assert window.table.schema.unique_keys == ()
    assert window.table.indexes == {}
    db.ingest("keyed", [(1,)])
    assert db.execute("SELECT k FROM wk").rows == [(1,)]


def test_owned_window_visible_only_inside_owner():
    db = votes_db()

    @db.register_procedure
    def counter(ctx):
        return ctx.execute("SELECT count(*) FROM mine").scalar()

    @db.register_procedure
    def snoop(ctx):
        return ctx.execute("SELECT count(*) FROM mine").scalar()

    db.create_window("mine", "votes", size=2, slide=1, owner="counter")
    assert db.call("counter") == 0
    with pytest.raises(WindowVisibilityError, match="ad-hoc SQL"):
        db.execute("SELECT count(*) FROM mine")
    with pytest.raises(Exception, match="counter"):
        db.call("snoop")


def test_window_owner_must_be_registered():
    db = votes_db()
    with pytest.raises(StreamingError, match="not a registered"):
        db.create_window("w", "votes", size=2, slide=1, owner="ghost")


def test_ingest_rejected_while_owned_window_has_no_delivery_path():
    # An owned window only advances via deliveries of its source stream to
    # its owner; ingesting while no workflow subscribes the owner would
    # silently bypass the window forever — fail fast instead.
    db = votes_db()
    db.register_procedure("agg", lambda ctx, batch: None)
    db.create_window("mine", "votes", size=2, slide=1, owner="agg")
    with pytest.raises(StreamingError, match="not subscribed"):
        db.ingest("votes", [(1, 1)])
    assert db.execute("SELECT count(*) FROM votes").scalar() == 0
    # wiring the owner into a workflow makes the same ingest legal
    db.create_workflow("w", [("votes", "agg")])
    assert db.ingest("votes", [(1, 1)]) == [1]
    assert db.call("agg", None) is None  # owner can read its window
    assert db.streaming.windows["mine"].counts() == {
        "active_rows": 1, "staged_rows": 0,
    }


def test_drop_stream_with_dependents_rejected_then_cascades_manually():
    db = votes_db()
    db.create_window("recent", "votes", size=2, slide=1)
    with pytest.raises(StreamingError, match="referenced by"):
        db.drop_table("votes")
    db.drop_table("recent")
    db.drop_table("votes")
    assert not db.catalog.has_table("votes")
    assert "votes" not in db.streaming.streams
