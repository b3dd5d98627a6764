"""Workflow DAGs: validation, exactly-once batch-ordered delivery, retry."""

import pytest

from repro.common.errors import UserAbort, WorkflowError
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.storage.schema import schema


def fresh_db():
    return Database()


# -- definition-time validation -----------------------------------------------


def test_workflow_validates_streams_and_procedures():
    db = fresh_db()
    db.create_stream(schema("s1", ("v", T.INTEGER)))
    db.register_procedure("p", lambda ctx, batch: None)
    with pytest.raises(WorkflowError, match="not\\b.*registered|not registered"):
        db.create_workflow("w1", [("s1", "ghost")])
    with pytest.raises(Exception, match="nope"):
        db.create_workflow("w2", [("nope", "p")])
    with pytest.raises(WorkflowError, match="at least one edge"):
        db.create_workflow("w3", [])
    with pytest.raises(WorkflowError, match="bad workflow edge"):
        db.create_workflow("w4", [("s1",)])


def test_workflow_rejects_cycles():
    db = fresh_db()
    db.create_stream(schema("a", ("v", T.INTEGER)))
    db.create_stream(schema("b", ("v", T.INTEGER)))
    db.register_procedure("p1", lambda ctx, batch: None)
    db.register_procedure("p2", lambda ctx, batch: None)
    with pytest.raises(WorkflowError, match="cyclic"):
        db.create_workflow("loop", [("a", "p1", "b"), ("b", "p2", "a")])


def test_jointly_cyclic_workflows_rejected():
    # Two individually acyclic workflows must not close a loop together —
    # a joint cycle would re-trigger deliveries forever.
    db = fresh_db()
    db.create_stream(schema("a", ("v", T.INTEGER)))
    db.create_stream(schema("b", ("v", T.INTEGER)))
    db.register_procedure("p1", lambda ctx, batch: ctx.emit("b", list(batch.rows)))
    db.register_procedure("p2", lambda ctx, batch: ctx.emit("a", list(batch.rows)))
    db.create_workflow("w1", [("a", "p1", "b")])
    with pytest.raises(WorkflowError, match="cycle across workflows"):
        db.create_workflow("w2", [("b", "p2", "a")])


def test_duplicate_subscription_rejected_across_workflows():
    db = fresh_db()
    db.create_stream(schema("s1", ("v", T.INTEGER)))
    db.register_procedure("p", lambda ctx, batch: None)
    db.create_workflow("w1", [("s1", "p")])
    with pytest.raises(WorkflowError, match="already subscribed"):
        db.create_workflow("w2", [("s1", "p")])
    with pytest.raises(WorkflowError, match="already exists"):
        db.create_workflow("w1", [("s1", "p")])


# -- delivery semantics --------------------------------------------------------


def _linear_pipeline(db):
    """raw --ingest_votes--> votes --count_votes--> counts --rank--> leaderboard.

    Returns the per-stage invocation logs (batch ids, in order).
    """
    db.create_stream(schema("raw", ("phone", T.BIGINT), ("contestant", T.INTEGER)))
    db.create_stream(schema("votes", ("phone", T.BIGINT), ("contestant", T.INTEGER)))
    db.create_stream(schema("counts", ("contestant", T.INTEGER), ("n", T.INTEGER)))
    db.create_table(
        schema(
            "leaderboard",
            ("contestant", T.INTEGER, False),
            ("total", T.INTEGER, False),
            primary_key=["contestant"],
        )
    )
    seen = {"ingest_votes": [], "count_votes": [], "rank": []}

    @db.register_procedure
    def ingest_votes(ctx, batch):
        seen["ingest_votes"].append(batch.batch_id)
        ctx.emit("votes", [(p, c) for p, c in batch.rows if 0 <= c <= 2])

    @db.register_procedure
    def count_votes(ctx, batch):
        seen["count_votes"].append(batch.batch_id)
        counts = ctx.execute(
            "SELECT contestant, count(*) AS n FROM recent GROUP BY contestant"
        )
        ctx.emit("counts", list(counts))

    @db.register_procedure
    def rank(ctx, batch):
        seen["rank"].append(batch.batch_id)
        for contestant, n in batch.rows:
            updated = ctx.execute(
                "UPDATE leaderboard SET total = ? WHERE contestant = ?",
                (n, contestant),
            )
            if updated.rowcount == 0:
                ctx.execute(
                    "INSERT INTO leaderboard (contestant, total) VALUES (?, ?)",
                    (contestant, n),
                )

    # sliding tuple window over votes, owned by the aggregate stage
    db.create_window("recent", "votes", size=4, slide=2, owner="count_votes")
    db.create_workflow(
        "voter",
        [
            ("raw", "ingest_votes", "votes"),
            ("votes", "count_votes", "counts"),
            ("counts", "rank", None),
        ],
    )
    return seen


def _raw_batch(b):
    return [(100 + b, b % 3), (200 + b, (b + 1) % 3)]


def test_three_stage_dag_processes_batches_in_order_exactly_once():
    db = fresh_db()
    seen = _linear_pipeline(db)
    for b in range(1, 11):
        assert db.ingest("raw", _raw_batch(b)) == [b]
    expected = list(range(1, 11))
    assert seen == {
        "ingest_votes": expected, "count_votes": expected, "rank": expected,
    }
    # batch ids flow through the DAG unchanged
    assert db.streaming.streams["votes"].last_committed == 10
    assert db.streaming.streams["counts"].last_committed == 10
    # window after batch 10 = votes of batches 9..10; rank overwrote totals
    assert db.query("SELECT contestant, total FROM leaderboard ORDER BY contestant") == [
        {"contestant": 0, "total": 1},
        {"contestant": 1, "total": 2},
        {"contestant": 2, "total": 1},
    ]
    stats = db.stats()["streaming"]
    assert stats["scheduler"]["pending_deliveries"] == 0
    assert stats["scheduler"]["delivered"] == 30  # 3 stages x 10 batches
    assert stats["trigger_fires"]["pe"] == 30
    assert db.stats()["transactions"]["aborted"] == 0


def test_end_to_end_demo_abort_retry_rolls_back_window_and_reprocesses():
    """The PR's acceptance demo: 10 batches through a 3-node DAG with an
    injected abort in the middle (window-aggregate) stage."""
    db = fresh_db()
    seen = _linear_pipeline(db)
    window_table = db.catalog.table("recent")

    # arm a one-shot abort inside the aggregate stage for batch 5
    original = db._procedures["count_votes"].fn
    armed = {"on": True}

    def sabotaged(ctx, batch):
        if batch.batch_id == 5 and armed["on"]:
            armed["on"] = False
            ctx.abort("injected failure in stage 2")
        return original(ctx, batch)

    db._procedures["count_votes"].fn = sabotaged

    # an EE trigger so both trigger classes show up in the fire counts
    db.create_table(schema("audit", ("batch", T.BIGINT)))
    db.create_ee_trigger(
        "audit_raw", "raw",
        lambda ctx, rows: ctx.execute(
            "INSERT INTO audit (batch) VALUES (?)", (ctx.batch_id,)
        ),
    )

    for b in range(1, 5):
        db.ingest("raw", _raw_batch(b))

    # rowids consumed by the aborted attempt are never reused, so compare
    # physical row contents (data + arrival order), not the rowid cursor
    pre_abort_window = window_table.snapshot_state()["rows"]
    with pytest.raises(UserAbort, match="injected failure"):
        db.ingest("raw", _raw_batch(5))
    # stage 2's transaction rolled back: its window advance is undone ...
    assert window_table.snapshot_state()["rows"] == pre_abort_window
    # ... the batch stayed queued, and nothing downstream ran for batch 5
    assert db.stats()["streaming"]["scheduler"]["pending_deliveries"] == 1
    assert seen["count_votes"] == [1, 2, 3, 4]
    assert seen["rank"] == [1, 2, 3, 4]

    # retry: the delivery reruns, the window re-advances, the DAG resumes
    assert db.drain() == 2  # count_votes(5) then rank(5)
    assert window_table.snapshot_state()["rows"] != pre_abort_window
    for b in range(6, 11):
        db.ingest("raw", _raw_batch(b))

    expected = list(range(1, 11))
    assert seen == {
        "ingest_votes": expected, "count_votes": expected, "rank": expected,
    }
    stats = db.stats()
    streaming = stats["streaming"]
    # exactly-once: every stage saw each batch once, despite the retry
    assert streaming["scheduler"]["delivered"] == 30
    assert streaming["scheduler"]["retries"] == 1
    assert stats["transactions"]["aborted"] == 1
    # trigger fire counts match the dataflow: one EE firing per raw batch,
    # one PE firing per (batch, subscription) — retries are not re-fired
    assert streaming["trigger_fires"]["ee"] == 10
    assert streaming["trigger_fires"]["pe"] == 30
    assert db.execute("SELECT count(*) FROM audit").scalar() == 10
    assert db.query("SELECT contestant, total FROM leaderboard ORDER BY contestant") == [
        {"contestant": 0, "total": 1},
        {"contestant": 1, "total": 2},
        {"contestant": 2, "total": 1},
    ]


def test_abort_in_first_stage_leaves_upstream_committed_and_retries():
    db = fresh_db()
    seen = _linear_pipeline(db)
    original = db._procedures["ingest_votes"].fn
    armed = {"on": True}

    def flaky(ctx, batch):
        if armed["on"]:
            armed["on"] = False
            raise RuntimeError("transient")
        return original(ctx, batch)

    db._procedures["ingest_votes"].fn = flaky
    with pytest.raises(Exception, match="transient"):
        db.ingest("raw", _raw_batch(1))
    # the raw batch itself committed; only the delivery failed
    assert db.execute("SELECT count(*) FROM raw").scalar() == 2
    assert db.execute("SELECT count(*) FROM votes").scalar() == 0
    db.drain()
    assert db.execute("SELECT count(*) FROM votes").scalar() == 2
    assert seen["ingest_votes"] == [1]


def test_out_of_order_ingest_delivers_in_batch_order():
    db = fresh_db()
    seen = _linear_pipeline(db)
    db.ingest("raw", _raw_batch(2), batch_id=2)  # queued
    assert seen["ingest_votes"] == []
    db.ingest("raw", _raw_batch(1), batch_id=1)  # applies 1 then 2
    assert seen["ingest_votes"] == [1, 2]
    assert seen["rank"] == [1, 2]


def test_window_not_visible_outside_owner_in_workflow():
    from repro.common.errors import WindowVisibilityError

    db = fresh_db()
    _linear_pipeline(db)
    db.ingest("raw", _raw_batch(1))
    with pytest.raises(WindowVisibilityError, match="count_votes"):
        db.execute("SELECT count(*) FROM recent")


def test_procedure_call_emission_triggers_downstream():
    """db.call drains workflow deliveries caused by the call's emissions."""
    db = fresh_db()
    db.create_stream(schema("s", ("v", T.INTEGER)))
    db.create_table(schema("sink", ("v", T.INTEGER)))
    got = []

    @db.register_procedure
    def producer(ctx, n):
        ctx.emit("s", [(n,)])

    @db.register_procedure
    def consumer(ctx, batch):
        got.append(batch.batch_id)
        for (v,) in batch.rows:
            ctx.execute("INSERT INTO sink (v) VALUES (?)", (v,))

    db.create_workflow("w", [("s", "consumer")])
    db.call("producer", 7)
    assert got == [1]
    assert db.execute("SELECT v FROM sink").rows == [(7,)]
