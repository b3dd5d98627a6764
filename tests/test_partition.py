"""The partitioned facade: routing, pipelined ingest, ordered commit,
fault-torn protocols, and per-partition durable recovery.

Most tests use ``workers="inline"`` — the same dispatch and hop codec
as process workers, minus the fork cost — so the matrix stays
fast.  A small set of tests runs real worker processes end-to-end
(including kill-and-recover); they are the ones whose behaviour could
differ across a process boundary.
"""

import pytest

from repro.common.errors import (
    BatchOrderError,
    ConstraintViolation,
    PartitionError,
    SchemaError,
    TransactionError,
)
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.partition import PartitionInfo, PartitionedDatabase
from repro.server import ReproClient, ReproServer
from repro.storage.schema import schema

ACCOUNTS = 16
PARTITION_KEYS = {"feed": "acct", "bal": "acct"}


def deploy(db, part):
    """The deployment: a keyed input stream feeding a keyed balance table
    through a one-stage workflow, plus single- and cross-partition
    procedures.  Seeds only the balance rows this partition owns."""
    db.create_stream(schema("feed", ("acct", T.INTEGER), ("amt", T.INTEGER)))
    db.create_table(
        schema(
            "bal",
            ("acct", T.INTEGER, False),
            ("total", T.BIGINT, False),
            primary_key=["acct"],
        )
    )
    db.executemany(
        "INSERT INTO bal (acct, total) VALUES (?, ?)",
        ((a, 0) for a in range(ACCOUNTS) if part.owns(a)),
    )

    @db.register_procedure
    def absorb(ctx, batch):
        for acct, amt in batch.rows:
            ctx.execute("UPDATE bal SET total = total + ? WHERE acct = ?", (amt, acct))

    db.create_workflow("flow", [("feed", "absorb")])

    @db.register_procedure
    def deposit(ctx, acct, amt):
        ctx.execute("UPDATE bal SET total = total + ? WHERE acct = ?", (amt, acct))

    @db.register_procedure
    def bump_all(ctx, delta):
        ctx.execute("UPDATE bal SET total = total + ?", (delta,))

    @db.register_procedure
    def fail(ctx):
        raise ValueError("boom")


def make_pdb(n=2, *, workers="inline", **kwargs):
    return PartitionedDatabase(
        n, deploy, partition_keys=PARTITION_KEYS, workers=workers, **kwargs
    )


def single_reference(feed_batches, xp_deltas=()):
    """The same workload on one plain Database; returns sorted bal rows."""
    db = Database(bootstrap=lambda db: deploy(db, PartitionInfo(0, 1)))
    for batch in feed_batches:
        db.ingest("feed", batch)
    for delta in xp_deltas:
        db.call("bump_all", delta)
    rows = db.execute("SELECT acct, total FROM bal").rows
    return sorted(rows)


# ---------------------------------------------------------------------------
# Routing and ingest
# ---------------------------------------------------------------------------


def test_ingest_splits_by_partition_column():
    with make_pdb(4) as pdb:
        applied = pdb.ingest("feed", [(a, 10) for a in range(ACCOUNTS)])
        # every partition owns some of 16 keys and applied its own batch 1
        assert len(applied) >= 2
        assert all(ids == [1] for ids in applied.values())
        pdb.drain()
        assert pdb.merged_table_rows("bal") == [(a, 10) for a in range(ACCOUNTS)]


def test_per_partition_batch_id_sequences_advance_independently():
    with make_pdb(2) as pdb:
        # route two batches to only one partition's keys, then one to all
        own0 = [a for a in range(ACCOUNTS) if PartitionInfo(0, 2).owns(a)]
        pdb.ingest("feed", [(own0[0], 1)])
        pdb.ingest("feed", [(own0[1], 1)])
        applied = pdb.ingest("feed", [(a, 1) for a in range(ACCOUNTS)])
        # partition 0 is two batches ahead of partition 1
        assert applied[0] == [3]
        assert applied[1] == [1]


def test_explicit_batch_id_rejected_on_multi_partition():
    with make_pdb(2) as pdb:
        with pytest.raises(BatchOrderError, match="own batch-id sequence"):
            pdb.ingest("feed", [(1, 1)], batch_id=7)


def test_ingest_unkeyed_stream_raises_in_strict_mode():
    def lookup_deploy(db, part):
        db.create_stream(schema("nokey", ("x", T.INTEGER)))

    with PartitionedDatabase(2, lookup_deploy, workers="inline") as pdb:
        with pytest.raises(SchemaError, match="no partition key"):
            pdb.ingest("nokey", [(1,)])


def test_ingest_mapping_rows_route_by_name():
    with make_pdb(2) as pdb:
        pdb.ingest("feed", [{"acct": a, "amt": 3} for a in range(ACCOUNTS)])
        pdb.drain()
        assert pdb.merged_table_rows("bal") == [(a, 3) for a in range(ACCOUNTS)]


def test_short_row_in_a_split_batch_raises_the_single_engine_schema_error():
    def keyed_last(db, part):
        db.create_stream(schema("s", ("a", T.INTEGER), ("k", T.INTEGER)))

    single = Database(bootstrap=lambda db: keyed_last(db, PartitionInfo(0, 1)))
    with pytest.raises(SchemaError) as want:
        single.ingest("s", [(1,)])
    with PartitionedDatabase(
        2, keyed_last, partition_keys={"s": "k"}, workers="inline"
    ) as pdb:
        with pytest.raises(SchemaError) as got:
            pdb.ingest("s", [(1,)])
        assert str(got.value) == str(want.value) == "table 's' expects 2 values, got 1"
        assert pdb.ingest("s", [(1, 2)])  # nothing was posted; the batch after it lands


@pytest.mark.parametrize("mode", ["hash", "round_robin"])
def test_split_routes_every_row_where_partition_of_puts_its_key(mode):
    # equal keys of different types route apart (1, 1.0 and True at n=3;
    # 0.0 and -0.0 too), so a per-batch memo keyed by value alone mixes
    # them up; rows keep their input order inside a bucket
    nan = float("nan")
    keys = [True, 1, 1.0, False, 0, None, "1", nan, 0.0, -0.0, 2, 1, True, "1", -0.0]
    rows = []
    for i, key in enumerate(keys):
        rows.append((key, i))
        rows.append([key, i])
        rows.append({"ACCT": key, "amt": i} if i % 2 else {"acct": key, "amt": i})
    with make_pdb(3, mode=mode) as pdb:
        part_of = pdb.partition_map.partition_of
        want: dict[int, list] = {}
        for row in rows:
            key = row[0] if not isinstance(row, dict) else row.get("acct", row.get("ACCT"))
            want.setdefault(part_of(key), []).append(row)
        got = pdb._split_batch("feed", rows)
        assert [pid for pid, _sub in got] == sorted(want)
        for pid, sub in got:
            # repr, since nan != nan; a tuple row may arrive as a list
            assert [repr(dict(r) if isinstance(r, dict) else list(r)) for r in sub] == [
                repr(dict(r) if isinstance(r, dict) else list(r)) for r in want[pid]
            ]
        with pytest.raises(SchemaError, match="not hashable"):
            pdb._split_batch("feed", rows + [([1], 99)])
        with pytest.raises(SchemaError, match="not hashable"):
            pdb._split_batch("feed", [({"a": 1}, 0)])


def test_pipelined_ingest_matches_waited_ingest():
    batches = [[(a, b + 1) for a in range(ACCOUNTS)] for b in range(10)]
    with make_pdb(2) as fast, make_pdb(2) as slow:
        for batch in batches:
            fast.ingest("feed", batch, wait=False)
        fast.barrier()
        fast.drain()
        for batch in batches:
            slow.ingest("feed", batch)
        slow.drain()
        assert fast.merged_table_rows("bal") == slow.merged_table_rows("bal")


def test_keyed_call_routes_to_one_partition():
    with make_pdb(4) as pdb:
        pdb.call("deposit", 5, 100, key=5)
        assert pdb.execute("SELECT total FROM bal WHERE acct = 5", key=5).scalar() == 100
        stats = pdb.stats()
        assert stats["routing"]["single_partition_calls"] == 1
        assert stats["routing"].get("cross_partition_txns", 0) == 0
        # exactly one partition holds the updated row
        holders = [
            pid
            for pid, snap in pdb.snapshot().items()
            if any(vals == [5, 100] for _rid, vals in snap["bal"]["rows"])
        ]
        assert len(holders) == 1


def test_fanout_select_unions_partitions():
    with make_pdb(4) as pdb:
        rs = pdb.execute("SELECT acct, total FROM bal")
        assert sorted(rs.rows) == [(a, 0) for a in range(ACCOUNTS)]
        assert pdb.stats()["routing"]["fanout_selects"] == 1


def test_unkeyed_insert_is_refused():
    with make_pdb(2) as pdb:
        with pytest.raises(PartitionError, match="INSERT"):
            pdb.execute("INSERT INTO bal (acct, total) VALUES (99, 0)")


def test_leading_comment_does_not_change_statement_routing():
    """Classification reads the lexer's first token, not ``sql.split()[0]``:
    a ``--`` comment used to turn both statements into a "DDL broadcast"
    that returned only the last partition's rows / rowcount."""
    with make_pdb(2) as pdb:
        rs = pdb.execute("-- every account\nSELECT acct FROM bal")
        assert sorted(r[0] for r in rs.rows) == list(range(ACCOUNTS))
        assert pdb.routing["fanout_selects"] == 1

        changed = pdb.execute("-- one ordered-commit transaction\nUPDATE bal SET total = 7")
        assert changed.rowcount == ACCOUNTS
        assert pdb.routing["cross_partition_txns"] == 1
        assert pdb.routing["cross_partition_commits"] == 1
        assert "broadcast_statements" not in pdb.routing
        assert pdb.merged_table_rows("bal") == [(a, 7) for a in range(ACCOUNTS)]


def test_analyze_statement_matches_single_engine_on_every_shape():
    """``execute("ANALYZE")`` is ``analyze()``: per-table totals summed
    across partitions, not the last partition's counts."""
    single = Database(bootstrap=lambda db: deploy(db, PartitionInfo(0, 1)))
    expected = single.execute("ANALYZE")
    assert expected.rows == [("bal", ACCOUNTS), ("feed", 0)]
    with make_pdb(2) as pdb:
        for sql in ("ANALYZE", "analyze;", "-- refresh stats\nANALYZE"):
            assert pdb.execute(sql).rows == expected.rows
        assert pdb.execute("ANALYZE bal").rows == single.execute("ANALYZE bal").rows
        assert dict(expected.rows) == pdb.analyze()
        with ReproServer(pdb) as server, ReproClient(*server.address) as client:
            served = client.execute("ANALYZE")
            assert (served.columns, served.rows) == (expected.columns, expected.rows)


def test_routed_executemany_by_key_position():
    with make_pdb(2) as pdb:
        n = pdb.executemany(
            "UPDATE bal SET total = ? WHERE acct = ?",
            [(50, a) for a in range(ACCOUNTS)],
            key_position=1,
        )
        assert n == ACCOUNTS
        assert pdb.merged_table_rows("bal") == [(a, 50) for a in range(ACCOUNTS)]


# ---------------------------------------------------------------------------
# Cross-partition transactions (ordered commit)
# ---------------------------------------------------------------------------


def test_cross_partition_call_runs_on_every_partition():
    with make_pdb(4) as pdb:
        results = pdb.call("bump_all", 7)
        assert len(results) == 4
        assert pdb.merged_table_rows("bal") == [(a, 7) for a in range(ACCOUNTS)]
        assert pdb.stats()["routing"]["cross_partition_commits"] == 1


def test_cross_partition_update_statement():
    with make_pdb(2) as pdb:
        rs = pdb.execute("UPDATE bal SET total = total + 5")
        assert rs.rowcount == ACCOUNTS
        assert pdb.merged_table_rows("bal") == [(a, 5) for a in range(ACCOUNTS)]


def test_prepare_failure_aborts_all_partitions():
    """A fragment that fails on any participant rolls back every
    participant: all-or-nothing across partitions."""
    with make_pdb(4) as pdb:
        before = pdb.merged_table_rows("bal")
        pdb.inject_fault(2, "xp_call")
        with pytest.raises(PartitionError, match=r"\[partition 2\] injected fault"):
            pdb.call("bump_all", 100)
        assert pdb.merged_table_rows("bal") == before
        # the database stays fully usable afterwards
        pdb.call("bump_all", 1)
        assert pdb.merged_table_rows("bal") == [(a, 1) for a in range(ACCOUNTS)]


def test_procedure_error_in_fragment_aborts_all():
    with make_pdb(2) as pdb:
        pdb.call("bump_all", 3)
        with pytest.raises(TransactionError):
            pdb.call("fail")
        assert pdb.merged_table_rows("bal") == [(a, 3) for a in range(ACCOUNTS)]


def test_mid_commit_failure_reports_partial_commit():
    """A participant torn out *during the commit phase* (only reachable by
    fault injection or a crash) leaves earlier participants committed; the
    coordinator must say exactly which."""
    with make_pdb(2) as pdb:
        pdb.inject_fault(1, "xp_commit")
        with pytest.raises(PartitionError, match=r"torn mid-commit: partition\(s\) \[0\]"):
            pdb.call("bump_all", 9)
        # partition 0 committed its fragment, partition 1 rolled back
        rows = dict(pdb.merged_table_rows("bal"))
        committed = [a for a in range(ACCOUNTS) if rows[a] == 9]
        rolled_back = [a for a in range(ACCOUNTS) if rows[a] == 0]
        assert committed and rolled_back
        assert sorted(committed + rolled_back) == list(range(ACCOUNTS))


def test_constraint_violation_in_fragment_maps_to_original_class():
    """Worker errors re-raise coordinator-side as their original class."""
    with make_pdb(2) as pdb:
        pdb.call("deposit", 1, 5, key=1)
        with pytest.raises(ConstraintViolation):
            pdb.execute(
                "INSERT INTO bal (acct, total) VALUES (?, ?)", (1, 0), key=1
            )


# ---------------------------------------------------------------------------
# Equivalence with the single-partition engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4])
def test_partitioned_state_matches_single_partition_reference(n):
    batches = [
        [(a, (a * 13 + b) % 7) for a in range(ACCOUNTS)] for b in range(6)
    ]
    expected = single_reference(batches, xp_deltas=(2, 3))
    with make_pdb(n) as pdb:
        for batch in batches:
            pdb.ingest("feed", batch, wait=False)
        pdb.barrier()
        pdb.drain()
        pdb.call("bump_all", 2)
        pdb.call("bump_all", 3)
        assert pdb.merged_table_rows("bal") == expected


# ---------------------------------------------------------------------------
# Stats aggregation
# ---------------------------------------------------------------------------


def test_stats_aggregates_partition_counters():
    with make_pdb(2) as pdb:
        pdb.ingest("feed", [(a, 1) for a in range(ACCOUNTS)])
        pdb.drain()
        pdb.call("deposit", 0, 1, key=0)
        stats = pdb.stats()
        assert stats["num_partitions"] == 2
        assert stats["workers"] == "inline"
        assert len(stats["partitions"]) == 2
        assert stats["table_rows"]["bal"] == ACCOUNTS
        # committed txns aggregate across partitions and exceed any single one
        per = [p["transactions"]["committed"] for p in stats["partitions"]]
        assert stats["transactions"]["committed"] == sum(per)
        assert stats["routing"]["ingest_rows"] == ACCOUNTS


# ---------------------------------------------------------------------------
# Real worker processes (fork + socketpair RPC)
# ---------------------------------------------------------------------------


@pytest.mark.multicore
def test_process_workers_end_to_end():
    with make_pdb(2, workers="process") as pdb:
        pdb.ingest("feed", [(a, 4) for a in range(ACCOUNTS)], wait=False)
        pdb.barrier()
        pdb.drain()
        pdb.call("bump_all", 1)
        assert pdb.merged_table_rows("bal") == [(a, 5) for a in range(ACCOUNTS)]
        stats = pdb.stats()
        assert stats["workers"] == "process"
        assert [p["partition"] for p in stats["partitions"]] == [0, 1]


@pytest.mark.multicore
def test_process_worker_error_propagates_with_partition_prefix():
    from repro.common.errors import NoSuchProcedureError

    with make_pdb(2, workers="process") as pdb:
        with pytest.raises(NoSuchProcedureError, match=r"\[partition"):
            pdb.call("no_such_proc", key=1)


@pytest.mark.parametrize(
    "workers",
    ["inline", pytest.param("process", marks=pytest.mark.multicore)],
)
def test_a_reply_the_hop_cannot_carry_is_an_error_and_the_worker_lives(workers):
    def opaque_deploy(db, part):
        deploy(db, part)
        db.register_procedure("opaque", lambda ctx: object())

    with PartitionedDatabase(
        2, opaque_deploy, partition_keys=PARTITION_KEYS, workers=workers
    ) as pdb:
        with pytest.raises(PartitionError, match=r"\[partition \d\].*not JSON serializable"):
            pdb.call("opaque", key=1)
        pdb.call("deposit", 1, 5, key=1)  # the same partition answers the next call
        assert pdb.execute("SELECT total FROM bal WHERE acct = ?", (1,), key=1).rows == [(5,)]


@pytest.mark.multicore
def test_deploy_failure_surfaces_at_startup():
    def bad_deploy(db, part):
        raise RuntimeError("deploy exploded")

    with pytest.raises(PartitionError, match="deploy exploded"):
        PartitionedDatabase(2, bad_deploy, workers="process")


# ---------------------------------------------------------------------------
# Durability: per-partition recovery_dirs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "workers",
    ["inline", pytest.param("process", marks=pytest.mark.multicore)],
)
def test_partitioned_recovery_restores_pre_crash_state(tmp_path, workers):
    pdb = make_pdb(2, workers=workers, recovery_dir=tmp_path)
    pdb.ingest("feed", [(a, 6) for a in range(ACCOUNTS)])
    pdb.drain()
    pdb.call("bump_all", 4)          # a cross-partition txn in every log
    pdb.call("deposit", 3, 10, key=3)
    expected = pdb.merged_table_rows("bal")
    pdb.flush_log()                  # the all-partitions durability boundary
    pdb.kill()                       # crash: no close, no further flush

    assert sorted(p.name for p in tmp_path.iterdir()) == ["p000", "p001"]
    recovered = make_pdb(2, workers=workers, recovery_dir=tmp_path)
    assert recovered.merged_table_rows("bal") == expected
    # recovered partitions keep working (batch sequences resume)
    recovered.ingest("feed", [(a, 1) for a in range(ACCOUNTS)])
    recovered.drain()
    assert recovered.merged_table_rows("bal") == [
        (a, t + 1) for a, t in expected
    ]
    recovered.close()


def test_unflushed_tail_is_lost_on_crash(tmp_path):
    """Work past the last flush_log() is inside the group-commit window
    and does not survive a crash — the documented durability contract."""
    pdb = make_pdb(2, recovery_dir=tmp_path, group_commit=64)
    pdb.ingest("feed", [(a, 2) for a in range(ACCOUNTS)])
    pdb.drain()
    durable = pdb.merged_table_rows("bal")
    pdb.flush_log()
    pdb.call("bump_all", 50)  # never flushed
    pdb.kill()
    recovered = make_pdb(2, recovery_dir=tmp_path)
    assert recovered.merged_table_rows("bal") == durable
    recovered.close()


def test_checkpoint_per_partition(tmp_path):
    pdb = make_pdb(2, recovery_dir=tmp_path)
    pdb.ingest("feed", [(a, 8) for a in range(ACCOUNTS)])
    pdb.drain()
    paths = pdb.checkpoint()
    assert len(paths) == 2
    assert all(str(tmp_path) in p for p in paths)
    expected = pdb.merged_table_rows("bal")
    pdb.kill()
    recovered = make_pdb(2, recovery_dir=tmp_path)
    assert recovered.merged_table_rows("bal") == expected
    recovered.close()


# ---------------------------------------------------------------------------
# Facade misc
# ---------------------------------------------------------------------------


def test_invalid_workers_mode():
    with pytest.raises(ValueError, match="process"):
        PartitionedDatabase(2, deploy, workers="threads")


def test_close_is_idempotent():
    pdb = make_pdb(2)
    pdb.close()
    pdb.close()
