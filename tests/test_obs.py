"""The observability layer: histograms, registry, tracer, the engine's
span taxonomy, cross-process trace stitching, and tracetool rendering."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import ExpressionError
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.obs import (
    BUCKET_BOUNDS_US,
    DISABLED,
    LatencyHistogram,
    MetricsRegistry,
    NOOP_SPAN,
    Observability,
    Tracer,
    observability,
    read_jsonl,
    write_jsonl,
)
from repro.partition import PartitionedDatabase
from repro.server import ReproClient, ReproServer
from repro.storage.schema import schema

REPO = Path(__file__).resolve().parent.parent


def fresh_db(**kw):
    return Database(**kw)


def stream_db(**kw):
    db = fresh_db(**kw)
    db.create_stream(schema("s", ("v", T.INTEGER)))
    return db


# -- LatencyHistogram ---------------------------------------------------------


def test_histogram_observe_and_percentiles():
    hist = LatencyHistogram()
    for us in (10, 20, 30, 40, 1000):
        hist.observe(us)
    assert hist.count == 5
    assert hist.sum_us == 1100
    assert hist.min_us == 10
    assert hist.max_us == 1000
    # percentiles are bucket-interpolated but clamped to observed min/max
    assert hist.min_us <= hist.percentile(0.50) <= hist.max_us
    assert hist.percentile(0.99) <= hist.max_us
    assert hist.percentile(1.0) == hist.max_us


def test_histogram_single_sample_reports_itself_exactly():
    hist = LatencyHistogram()
    hist.observe(123.0)
    assert hist.percentile(0.50) == 123.0
    assert hist.percentile(0.99) == 123.0


def test_histogram_empty_and_negative():
    hist = LatencyHistogram()
    assert hist.percentile(0.99) == 0.0
    assert hist.mean_us == 0.0
    hist.observe(-5.0)  # clock weirdness clamps to zero, never raises
    assert hist.min_us == 0.0


def test_histogram_merge_is_exact_for_counts_and_bounds():
    a, b = LatencyHistogram(), LatencyHistogram()
    for us in (5, 15, 80):
        a.observe(us)
    for us in (1, 3000):
        b.observe(us)
    a.merge(b.snapshot())
    assert a.count == 5
    assert a.sum_us == 5 + 15 + 80 + 1 + 3000
    assert a.min_us == 1
    assert a.max_us == 3000
    # bucket counts added as vectors
    assert sum(a.counts) == 5


def test_histogram_merged_classmethod_and_from_snapshot():
    a, b = LatencyHistogram(), LatencyHistogram()
    a.observe(10)
    b.observe(100)
    merged = LatencyHistogram.merged([a.snapshot(), b.snapshot()])
    assert merged.count == 2
    clone = LatencyHistogram.from_snapshot(a.snapshot())
    assert clone.count == 1 and clone.min_us == 10


def test_histogram_merge_rejects_foreign_bucket_layout():
    hist = LatencyHistogram()
    with pytest.raises(ValueError, match="buckets"):
        hist.merge({"count": 1, "buckets": [0] * 5})


def test_bucket_layout_is_powers_of_two():
    assert BUCKET_BOUNDS_US[0] == 1
    assert BUCKET_BOUNDS_US[-1] == 2 ** 26
    assert len(BUCKET_BOUNDS_US) == 27


# -- MetricsRegistry ----------------------------------------------------------


def test_registry_counters_gauges_histograms():
    # event counts live in the engine's ledger (stats("events")), so the
    # registry holds gauges and histograms only
    reg = MetricsRegistry()
    assert not hasattr(reg, "inc")
    reg.gauge("depth", 7)
    reg.gauge("live", lambda: 42)  # callables re-evaluate at snapshot
    reg.observe("txn", 100.0)
    snap = reg.snapshot()
    assert set(snap) == {"gauges", "histograms"}
    assert snap["gauges"] == {"depth": 7, "live": 42}
    assert snap["histograms"]["txn"]["count"] == 1


def test_registry_merge_snapshots_semantics():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("rows", 10)
    b.gauge("rows", 5)
    a.gauge("mode", "full")  # non-numeric: last writer wins
    b.gauge("mode", "metrics")
    a.gauge("up", True)  # bools are not summed
    b.gauge("up", True)
    a.observe("txn", 50.0)
    b.observe("txn", 150.0)
    merged = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot(), {}])
    assert set(merged) == {"gauges", "histograms"}
    assert merged["gauges"]["rows"] == 15
    assert merged["gauges"]["mode"] == "metrics"
    assert merged["gauges"]["up"] is True
    assert merged["histograms"]["txn"]["count"] == 2
    assert merged["histograms"]["txn"]["min_us"] == 50.0
    assert merged["histograms"]["txn"]["max_us"] == 150.0


# -- Tracer -------------------------------------------------------------------


def test_spans_nest_and_share_a_trace():
    tracer = Tracer(process="t")
    with tracer.start("outer") as outer:
        with tracer.start("inner") as inner:
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id
    spans = tracer.drain()
    assert [s["name"] for s in spans] == ["inner", "outer"]  # finish order
    assert all(s["process"] == "t" for s in spans)
    assert all(s["duration_us"] >= 0 for s in spans)


def test_detached_spans_do_not_become_parents():
    tracer = Tracer()
    with tracer.start("root") as root:
        detached = tracer.start("rpc", detached=True)
        with tracer.start("child") as child:
            # the stacked root, not the detached rpc span, is the parent
            assert child.parent_id == root.span_id
        detached.finish()
    assert detached.parent_id == root.span_id


def test_ring_is_bounded_and_counts_drops():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.start(f"s{i}").finish()
    assert len(tracer.spans()) == 4
    stats = tracer.stats()
    assert stats == {"buffered": 4, "capacity": 4, "emitted": 10, "dropped": 6}
    assert [s["name"] for s in tracer.drain()] == ["s6", "s7", "s8", "s9"]
    assert tracer.spans() == []


def test_activate_adopts_remote_parent():
    upstream, downstream = Tracer(process="up"), Tracer(process="down")
    with upstream.start("request") as remote:
        ctx = remote.context()
    with downstream.activate(ctx):
        with downstream.start("work") as span:
            assert span.trace_id == remote.trace_id
            assert span.parent_id == remote.span_id


@pytest.mark.parametrize(
    "ctx", [None, "garbage", {}, {"trace_id": 7, "span_id": "x"}, {"trace_id": "t"}]
)
def test_activate_malformed_context_is_a_noop(ctx):
    tracer = Tracer()
    with tracer.activate(ctx):
        with tracer.start("solo") as span:
            assert span.parent_id is None  # new trace root


def test_finish_is_idempotent_and_records_errors():
    tracer = Tracer()
    span = tracer.start("once")
    span.finish(ok=True)
    first = span.duration_us
    span.finish(ok=False)  # ignored
    assert span.duration_us == first
    assert tracer.drain()[0]["tags"] == {"ok": True}
    with pytest.raises(RuntimeError):
        with tracer.start("boom"):
            raise RuntimeError("x")
    assert tracer.drain()[0]["tags"] == {"error": "RuntimeError"}


def test_metrics_only_mode_feeds_histograms_without_buffering():
    obs = Observability(tracing=False)
    with obs.span("txn"):
        pass
    assert obs.tracer.spans() == []
    assert obs.tracer.emitted == 1
    assert obs.metrics.snapshot()["histograms"]["txn"]["count"] == 1


def test_write_and_read_jsonl_roundtrip(tmp_path):
    tracer = Tracer()
    tracer.start("a").finish()
    tracer.start("b").finish()
    path = tmp_path / "spans.jsonl"
    assert write_jsonl(str(path), tracer.drain()) == 2
    back = read_jsonl(str(path))
    assert {s["name"] for s in back} == {"a", "b"}


# -- the obs= facade ----------------------------------------------------------


def test_observability_normaliser():
    assert observability(None) is DISABLED
    assert observability("off") is DISABLED
    assert observability(DISABLED) is DISABLED
    metrics_only = observability("metrics", process="p000")
    assert metrics_only.enabled and not metrics_only.tracing
    assert metrics_only.tracer.process == "p000"
    full = observability("full")
    assert full.enabled and full.tracing
    inst = Observability()
    assert observability(inst) is inst
    with pytest.raises(ValueError, match="obs must be"):
        observability("loud")


def test_disabled_is_inert():
    assert DISABLED.enabled is False
    assert DISABLED.span("x") is NOOP_SPAN
    assert NOOP_SPAN.set(a=1) is NOOP_SPAN
    assert NOOP_SPAN.context() is None
    with DISABLED.span("x"):
        pass
    DISABLED.observe("x", 1.0)
    assert DISABLED.stats_section() == {"enabled": False}


# -- engine span taxonomy -----------------------------------------------------


def test_database_traces_txn_and_procedure_spans():
    db = fresh_db(obs="full")
    db.create_table(schema("t", ("v", T.INTEGER)))

    @db.register_procedure
    def put(ctx, v):
        ctx.execute("INSERT INTO t (v) VALUES (?)", (v,))

    db.call("put", 1)
    spans = db.obs.tracer.drain()
    names = [s["name"] for s in spans]
    assert "procedure" in names and "txn" in names
    txn = next(s for s in spans if s["name"] == "txn")
    assert txn["tags"]["outcome"] == "commit"
    proc = next(s for s in spans if s["name"] == "procedure")
    assert txn["parent_id"] == proc["span_id"]  # txn nests under the call


def test_database_ingest_spans_cover_triggers_and_delivery():
    db = stream_db(obs="full")
    db.create_table(schema("sink", ("v", T.INTEGER)))
    db.create_ee_trigger(
        "audit", "s",
        lambda ctx, rows: ctx.execute("INSERT INTO sink (v) VALUES (?)", (len(rows),)),
    )

    @db.register_procedure
    def absorb(ctx, batch):
        pass

    db.create_workflow("w", [("s", "absorb")])
    db.create_pe_trigger("watch", "s", lambda d, b: None)
    db.ingest("s", [(1,), (2,)])
    names = [s["name"] for s in db.obs.tracer.drain()]
    for expected in ("ingest", "txn", "trigger.ee", "delivery", "trigger.pe"):
        assert expected in names, f"missing {expected} in {names}"


def join_db(xs=(1, 2, 5), **kw):
    db = fresh_db(**kw)
    db.create_table(schema("a", ("x", T.INTEGER)))
    db.create_table(schema("b", ("y", T.INTEGER)))
    for x in xs:
        db.execute("INSERT INTO a (x) VALUES (?)", (x,))
    for y in range(50):
        db.execute("INSERT INTO b (y) VALUES (?)", (y,))
    db.force_join = "hash"
    return db


def test_engine_span_tree():
    db = stream_db(obs="full")
    db.create_table(schema("sink", ("v", T.INTEGER)))
    db.create_ee_trigger(
        "audit", "s",
        lambda ctx, rows: ctx.execute("INSERT INTO sink (v) VALUES (?)", (len(rows),)),
    )

    @db.register_procedure
    def absorb(ctx, batch):
        ctx.execute("INSERT INTO sink (v) VALUES (?)", (len(batch.rows),))

    db.create_workflow("w", [("s", "absorb")])
    db.obs.tracer.drain()
    db.ingest("s", [(1,), (2,)])
    spans = db.obs.tracer.drain()
    (ingest,) = [s for s in spans if s["name"] == "ingest"]
    under_ingest = {s["name"]: s for s in spans if s["parent_id"] == ingest["span_id"]}
    assert sorted(under_ingest) == ["delivery", "txn"]
    (trigger,) = [s for s in spans if s["name"] == "trigger.ee"]
    assert trigger["parent_id"] == under_ingest["txn"]["span_id"]
    # a workflow delivery is delivery ⊃ txn, with no procedure span
    delivery_id = under_ingest["delivery"]["span_id"]
    assert [s["name"] for s in spans if s["parent_id"] == delivery_id] == ["txn"]
    assert "procedure" not in {s["name"] for s in spans}
    # the trigger's cold INSERT compiles; the body's same text hits the cache
    (compile_,) = [s for s in spans if s["name"] == "plan.compile"]
    assert compile_["parent_id"] == trigger["span_id"]

    db = join_db(obs="full")
    db.obs.tracer.drain()
    # the smaller side builds: the 3-row outer `a` here, the 3-row inner
    # `a` when it is joined second
    for sql, side in (
        ("SELECT a.x, b.y FROM a JOIN b ON b.y = a.x", "outer"),
        ("SELECT a.x, b.y FROM b JOIN a ON a.x = b.y", "inner"),
    ):
        assert len(db.execute(sql).rows) == 3
        joins = [s for s in db.obs.tracer.drain() if s["name"].startswith("join.")]
        assert sorted((s["name"], s["tags"]["side"]) for s in joins) == [
            ("join.build", side), ("join.probe", side),
        ]
    db.execute("SELECT a.x, b.y FROM a JOIN b ON b.y = a.x LIMIT 1")
    probe = next(s for s in db.obs.tracer.drain() if s["name"] == "join.probe")
    assert "error" not in probe["tags"]  # a LIMIT that stops the probe early


def test_failed_hash_join_build_leaves_no_open_span():
    db = join_db((1, 2, 0), obs="full")
    db.obs.tracer.drain()
    with pytest.raises(ExpressionError):
        db.execute("SELECT a.x, b.y FROM a JOIN b ON b.y = 10 / a.x")
    assert db.obs.tracer._stack() == []
    build = next(s for s in db.obs.tracer.drain() if s["name"] == "join.build")
    assert build["tags"]["side"] == "outer"
    assert build["tags"]["error"] == "ExpressionError"
    db.execute("SELECT x FROM a")
    spans = db.obs.tracer.drain()
    # the next statement's spans are roots again
    assert sorted((s["name"], s["parent_id"]) for s in spans) == [
        ("plan.compile", None), ("txn", None),
    ]


def test_obs_section_backs_stats():
    db = stream_db(obs="full")
    db.ingest("s", [(1,)])
    section = db.stats(section="obs")
    assert section["enabled"] is True and section["tracing"] is True
    assert section["histograms"]["txn"]["count"] >= 1
    assert section["spans"]["emitted"] >= 2
    # and the same section rides the full snapshot
    assert db.stats()["obs"]["histograms"]["txn"]["count"] >= 1


def test_disabled_database_reports_disabled_section():
    db = stream_db()
    db.ingest("s", [(1,)])
    assert db.stats(section="obs") == {"enabled": False}


def test_group_commit_log_spans(tmp_path):
    db = stream_db(recovery_dir=str(tmp_path), group_commit=1, obs="full")
    db.ingest("s", [(1,)])
    spans = db.obs.tracer.drain()
    fsync = [s for s in spans if s["name"] == "log.fsync"]
    assert fsync and fsync[0]["tags"]["records"] >= 1
    hists = db.stats(section="obs")["histograms"]
    assert hists["log.buffer_wait"]["count"] >= 1


# -- partitioned: merged sections and stitched worker spans -------------------


def part_deploy(db, part):
    db.create_stream(schema("feed", ("k", T.INTEGER), ("v", T.INTEGER)))


def test_partitioned_obs_merges_worker_histograms():
    with PartitionedDatabase(
        2, part_deploy, partition_keys={"feed": "k"}, workers="inline", obs="full"
    ) as pdb:
        pdb.ingest("feed", [(k, k) for k in range(8)])
        section = pdb.stats(section="obs")
        assert section["enabled"] is True
        # both partitions ran a txn; the merged histogram sees them all
        assert section["histograms"]["txn"]["count"] >= 2
        assert section["spans"]["emitted"] > 0


def test_partitioned_trace_spans_stitch_coord_and_workers():
    with PartitionedDatabase(
        2, part_deploy, partition_keys={"feed": "k"}, workers="inline", obs="full"
    ) as pdb:
        pdb.ingest("feed", [(k, k) for k in range(8)])
        spans = pdb.trace_spans()
    processes = {s["process"] for s in spans}
    assert {"coord", "p000", "p001"} <= processes
    ingest_root = next(s for s in spans if s["name"] == "coord.ingest")
    same_trace = [s for s in spans if s["trace_id"] == ingest_root["trace_id"]]
    names = {s["name"] for s in same_trace}
    assert {"coord.ingest", "ingest.split", "rpc.ingest", "worker.ingest",
            "ingest", "txn"} <= names


def test_partitioned_disabled_obs_section():
    with PartitionedDatabase(
        2, part_deploy, partition_keys={"feed": "k"}, workers="inline"
    ) as pdb:
        assert pdb.stats(section="obs") == {"enabled": False}
        assert pdb.trace_spans() == []


# -- end to end: client -> server -> workers -> tracetool ---------------------


def test_stitched_trace_renders_with_tracetool(tmp_path):
    with PartitionedDatabase(
        2,
        part_deploy,
        partition_keys={"feed": "k"},
        workers="inline",
        recovery_dir=str(tmp_path / "wal"),
        group_commit=1,
        obs="full",
    ) as pdb:
        with ReproServer(pdb, port=0) as server:
            with ReproClient(*server.address, obs="full") as client:
                client.ingest("feed", [(k, k) for k in range(8)])
                spans = client.trace_spans()
        spans += pdb.trace_spans()

    trace_ids = {s["trace_id"] for s in spans}
    assert len(trace_ids) == 1, f"trace broke into {len(trace_ids)} pieces"
    names = {s["name"] for s in spans}
    assert {"client.ingest", "server.request", "coord.ingest", "rpc.ingest",
            "worker.ingest", "ingest", "txn", "log.fsync"} <= names

    path = tmp_path / "trace.jsonl"
    write_jsonl(str(path), spans)
    out = subprocess.run(
        [sys.executable, str(REPO / "tools" / "tracetool.py"), str(path), "--all"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    for stage in ("client.ingest", "server.request", "worker.ingest", "log.fsync"):
        assert stage in out.stdout
    # one tree: the client root renders first at depth zero
    assert "└─ client.ingest" in out.stdout or "├─ client.ingest" in out.stdout


def test_server_queue_wait_histogram_populates():
    db = stream_db(obs="full")
    with ReproServer(db, port=0) as server:
        with ReproClient(*server.address) as client:
            client.ingest("s", [(1,)])
            section = client.stats(section="obs")
    assert section["histograms"]["server.queue_wait"]["count"] >= 1
