"""Crash-recovery matrix: command logging, checkpoints, weak/strong replay.

Every test follows the same shape: build a durable database, commit work,
"crash" it (abandon the object — the OS file state is exactly what a real
process death leaves behind, including an unflushed group-commit buffer),
then recover into a fresh ``Database`` and assert on the recovered state.
``copy_dir`` snapshots the recovery directory first where a test recovers
the same history twice (recovery itself re-checkpoints and truncates the
log, so each recovery needs its own copy of the crash-time directory).
"""

import errno
import os
import shutil

import pytest

from repro.common.clock import EVENTS, CostModel, EventLedger, sim_time_us
from repro.common.errors import RecoveryError, TransactionError, UserAbort
from repro.common.serde import decode_record, encode_record
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.recovery.checkpoint import load_checkpoint
from repro.recovery.log import DEFAULT_GROUP_BYTES, CommandLog, scan_log
from repro.storage.schema import schema

CONTESTANTS = 8


# ---------------------------------------------------------------------------
# Bootstraps (the "deployment": schema + procedures + triggers + workflows)
# ---------------------------------------------------------------------------


def table_bootstrap(db):
    db.create_table(
        schema(
            "accounts",
            ("id", T.BIGINT, False),
            ("balance", T.FLOAT, False),
            primary_key=["id"],
        )
    )

    @db.register_procedure
    def deposit(ctx, account_id, amount):
        updated = ctx.execute(
            "UPDATE accounts SET balance = balance + ? WHERE id = ?",
            (amount, account_id),
        )
        if updated.rowcount == 0:
            ctx.execute(
                "INSERT INTO accounts (id, balance) VALUES (?, ?)",
                (account_id, amount),
            )


def dag_bootstrap(db):
    """The 3-stage Voter DAG: raw -> ingest_votes -> votes -> count_votes
    (owned window) -> counts -> rank -> leaderboard, with an EE audit
    trigger on the input stream."""
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
    db.create_table(schema("audit", ("batch", T.BIGINT)))

    @db.register_procedure
    def ingest_votes(ctx, batch):
        ctx.emit("votes", [(p, c) for p, c in batch.rows if 0 <= c < CONTESTANTS])

    @db.register_procedure
    def count_votes(ctx, batch):
        counts = ctx.execute(
            "SELECT contestant, count(*) AS n FROM recent GROUP BY contestant"
        )
        ctx.emit("counts", list(counts))

    @db.register_procedure
    def rank(ctx, batch):
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

    db.create_window("recent", "votes", size=40, slide=20, owner="count_votes")
    db.create_ee_trigger(
        "audit_raw",
        "raw",
        lambda ctx, rows: ctx.execute(
            "INSERT INTO audit (batch) VALUES (?)", (ctx.batch_id,)
        ),
    )
    db.create_workflow(
        "voter",
        [
            ("raw", "ingest_votes", "votes"),
            ("votes", "count_votes", "counts"),
            ("counts", "rank", None),
        ],
    )


def drive_dag(db, batches, rows_per_batch=20, start=0):
    for b in range(start, start + batches):
        db.ingest(
            "raw", [(1000 + b * rows_per_batch + i, (b + i) % CONTESTANTS)
                    for i in range(rows_per_batch)]
        )


def copy_dir(src, dst):
    shutil.copytree(src, dst)
    return dst


def open_db(directory, bootstrap, **kw):
    return Database(recovery_dir=directory, bootstrap=bootstrap, **kw)


# ---------------------------------------------------------------------------
# Basic round trips
# ---------------------------------------------------------------------------


class TestStrongRecovery:
    def test_adhoc_and_procedure_commands_replay(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap)
        db.call("deposit", 1, 100.0)
        db.call("deposit", 2, 50.0)
        with db.transaction():
            db.execute("UPDATE accounts SET balance = balance - ? WHERE id = ?", (30.0, 1))
            db.execute("UPDATE accounts SET balance = balance + ? WHERE id = ?", (30.0, 2))
        db.executemany(
            "INSERT INTO accounts (id, balance) VALUES (?, ?)",
            [(3, 1.0), (4, 2.0)],
        )
        db.flush_log()
        pre = db.catalog.snapshot()

        recovered = open_db(d, table_bootstrap)
        assert recovered.catalog.snapshot() == pre
        assert recovered.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 70.0
        info = recovered.stats()["recovery"]["recovered"]
        assert info["mode"] == "strong"
        assert info["replayed"] == 4  # 2 calls + 1 txn + 1 executemany

    def test_aborted_transactions_are_not_replayed(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap)
        db.call("deposit", 1, 10.0)
        with pytest.raises(ZeroDivisionError):
            with db.transaction():
                db.execute("UPDATE accounts SET balance = 999 WHERE id = 1")
                _ = 1 / 0
        db.flush_log()
        recovered = open_db(d, table_bootstrap)
        assert recovered.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 10.0
        assert recovered.stats()["recovery"]["recovered"]["replayed"] == 1

    def test_read_only_commands_are_not_logged(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap)
        db.call("deposit", 1, 10.0)
        before = db.stats()["recovery"]["log"]["appended"]
        db.execute("SELECT * FROM accounts")
        with db.transaction():
            db.execute("SELECT balance FROM accounts WHERE id = 1")
        db.query("SELECT count(*) FROM accounts")
        assert db.stats()["recovery"]["log"]["appended"] == before

    def test_dag_snapshot_byte_identical(self, tmp_path):
        live = tmp_path / "live"
        db = open_db(live, dag_bootstrap)
        drive_dag(db, 6)
        db.flush_log()
        pre = db.catalog.snapshot()

        recovered = open_db(copy_dir(live, tmp_path / "r"), dag_bootstrap)
        assert recovered.catalog.snapshot() == pre
        # watermarks and scheduler positions resumed, not just rows
        assert recovered.streaming.streams["raw"].last_committed == 6
        assert recovered.streaming.delivered == db.streaming.delivered

    def test_recovered_database_keeps_working(self, tmp_path):
        live = tmp_path / "live"
        db = open_db(live, dag_bootstrap)
        drive_dag(db, 4)
        db.flush_log()

        recovered = open_db(copy_dir(live, tmp_path / "r"), dag_bootstrap)
        drive_dag(recovered, 3, start=4)  # ingest continues past the crash
        assert recovered.streaming.streams["raw"].last_committed == 7
        assert recovered.execute("SELECT count(*) FROM audit").scalar() == 7

    def test_reopening_the_same_directory_repeatedly(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, dag_bootstrap)
        drive_dag(db, 3)
        db.close()
        for _ in range(3):
            db = open_db(d, dag_bootstrap)
            snap = db.catalog.snapshot()
            db.close()
        assert open_db(d, dag_bootstrap).catalog.snapshot() == snap


# ---------------------------------------------------------------------------
# Crash-point matrix
# ---------------------------------------------------------------------------


class TestCrashPoints:
    def test_mid_group_commit_loses_only_the_unflushed_tail(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=10_000)
        db.call("deposit", 1, 100.0)
        db.flush_log()  # durability boundary
        db.call("deposit", 1, 1.0)  # buffered, never fsynced
        db.call("deposit", 2, 2.0)  # buffered, never fsynced
        assert db.stats()["recovery"]["log"]["pending"] == 2
        # crash: the group-commit buffer dies with the process
        recovered = open_db(d, table_bootstrap)
        assert recovered.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 100.0
        assert recovered.execute("SELECT count(*) FROM accounts").scalar() == 1

    def test_torn_tail_record_is_discarded(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        db.call("deposit", 1, 100.0)
        db.call("deposit", 2, 50.0)
        db.close()
        # simulate a write torn mid-record: half a line, no newline
        with open(d / "command.log", "ab") as f:
            f.write(b"deadbeef {\"v\": 1, \"d\": {\"op\": \"call\"")
        recovered = open_db(d, table_bootstrap)
        assert recovered.stats()["recovery"]["recovered"]["replayed"] == 2
        assert recovered.execute("SELECT count(*) FROM accounts").scalar() == 2

    def test_corrupt_final_complete_record_is_discarded(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        db.call("deposit", 1, 100.0)
        db.call("deposit", 2, 50.0)
        db.close()
        log = d / "command.log"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[-1] = b"00000000 " + lines[-1][9:]  # break the final checksum
        log.write_bytes(b"".join(lines))
        recovered = open_db(d, table_bootstrap)
        assert recovered.stats()["recovery"]["recovered"]["replayed"] == 1
        assert recovered.execute("SELECT count(*) FROM accounts").scalar() == 1

    def test_mid_log_corruption_raises(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        for i in range(4):
            db.call("deposit", i, 1.0)
        db.close()
        log = d / "command.log"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[2] = b"00000000 " + lines[2][9:]  # corrupt a NON-final record
        log.write_bytes(b"".join(lines))
        with pytest.raises(RecoveryError, match="mid-file"):
            open_db(d, table_bootstrap)

    def test_mid_checkpoint_crash_falls_back_to_previous(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, dag_bootstrap)
        drive_dag(db, 3)
        db.checkpoint()  # the good checkpoint
        drive_dag(db, 3, start=3)
        db.flush_log()
        pre = db.catalog.snapshot()
        # crash mid-checkpoint: a newer checkpoint file exists but is torn
        good = max(p.name for p in d.glob("checkpoint-*.ckpt"))
        torn = d / "checkpoint-999999999999.ckpt"
        torn.write_text("deadbeef {\"v\": 1, \"d\": {\"lsn\": 999")
        recovered = open_db(d, dag_bootstrap)
        info = recovered.stats()["recovery"]["recovered"]
        assert info["checkpoint"] == good  # the torn one was ignored
        assert recovered.catalog.snapshot() == pre

    def test_crash_between_workflow_stages_resumes_exactly_once(self, tmp_path):
        live = tmp_path / "live"
        fail_once = {"armed": True}

        def flaky_bootstrap(db):
            dag_bootstrap(db)
            original = db._procedures["count_votes"].fn

            def wrapper(ctx, batch):
                if fail_once["armed"]:
                    fail_once["armed"] = False
                    raise RuntimeError("injected crash between stages")
                return original(ctx, batch)

            db._procedures["count_votes"].fn = wrapper

        db = open_db(live, flaky_bootstrap)
        fail_once["armed"] = False
        drive_dag(db, 2)  # two clean pipelines
        fail_once["armed"] = True
        with pytest.raises(Exception):
            drive_dag(db, 1, start=2)  # stage 1 commits, stage 2 dies
        db.flush_log()
        # crash with the stage-2 delivery of batch 3 queued but unlogged
        fail_once["armed"] = False
        recovered = open_db(live, flaky_bootstrap)
        info = recovered.stats()["recovery"]["recovered"]
        assert info["regenerated_deliveries"] == 1  # the lost stage-2 hop
        recovered.drain()  # resumes the pipeline where the crash cut it
        # exactly-once: stage 1 ran once per batch — 3 batches x 20 votes
        # emitted in total (next_seq counts every row ever emitted, even
        # after stream GC reclaims consumed batches) and no extra audits
        assert recovered.streaming.streams["votes"].next_seq == 61
        assert recovered.streaming.streams["votes"].last_committed == 3
        assert recovered.execute("SELECT count(*) FROM audit").scalar() == 3
        # ... and the re-driven stages completed the third pipeline
        assert recovered.streaming.delivered[("votes", "count_votes")] == 3
        assert recovered.streaming.delivered[("counts", "rank")] == 3
        total = recovered.execute("SELECT sum(total) FROM leaderboard").scalar()
        assert total == 40  # the owned window holds the last 40 votes

    def test_queued_future_batches_are_not_durable(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, dag_bootstrap)
        drive_dag(db, 2)
        assert db.ingest("raw", [(1, 1)], batch_id=9) == []  # queued
        db.flush_log()
        recovered = open_db(d, dag_bootstrap)
        assert recovered.streaming.streams["raw"].pending == {}
        assert recovered.streaming.streams["raw"].last_committed == 2


# ---------------------------------------------------------------------------
# Checkpoints and log truncation
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def test_checkpoint_truncates_log_to_its_lsn(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        for i in range(5):
            db.call("deposit", i, 1.0)
        lsn_before = db.stats()["recovery"]["log"]["durable_lsn"]
        db.checkpoint()
        log = db.stats()["recovery"]["log"]
        assert log["base_lsn"] == lsn_before  # records <= LSN dropped
        db.call("deposit", 99, 9.0)
        db.flush_log()
        recovered = open_db(d, table_bootstrap)
        info = recovered.stats()["recovery"]["recovered"]
        assert info["checkpoint_lsn"] == lsn_before
        assert info["replayed"] == 1  # only the post-checkpoint suffix
        assert recovered.execute("SELECT count(*) FROM accounts").scalar() == 6

    def test_old_checkpoints_are_pruned_to_two(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap)
        for i in range(4):
            db.call("deposit", i, 1.0)
            db.checkpoint()
        assert len(list(d.glob("checkpoint-*.ckpt"))) == 2

    def test_each_rename_and_unlink_is_followed_by_a_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        # a crash must not keep the truncated log yet lose the rename of
        # the checkpoint that covers the dropped records
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap)
        for i in range(2):
            db.call("deposit", i, 1.0)
            db.checkpoint()
        db.call("deposit", 2, 1.0)  # a new LSN: the next checkpoint prunes one
        here = os.stat(d)
        real_replace, real_unlink, real_fsync = os.replace, os.unlink, os.fsync
        ops = []

        def replace(src, dst):
            ops.append("rename")
            real_replace(src, dst)

        def unlink(path, *args, **kwargs):
            ops.append("unlink")
            real_unlink(path, *args, **kwargs)

        def fsync(fd):
            ops.append("fsync dir" if os.path.samestat(os.fstat(fd), here) else "fsync")
            real_fsync(fd)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        monkeypatch.setattr(os, "fsync", fsync)
        db.checkpoint()
        assert ops.count("rename") == 2 and ops.count("unlink") == 1
        for i, op in enumerate(ops):
            if op in ("rename", "unlink"):
                rest = ops[i + 1:]
                until = rest.index("rename") if "rename" in rest else len(rest)
                assert "fsync dir" in rest[:until], ops

    def test_checkpoint_rejected_inside_transaction(self, tmp_path):
        db = open_db(tmp_path / "db", table_bootstrap)
        with db.transaction():
            with pytest.raises(TransactionError, match="checkpoint"):
                db.checkpoint()

    def test_standalone_checkpoint_export(self, tmp_path):
        db = Database(bootstrap=table_bootstrap)
        db.call("deposit", 1, 5.0)
        out = db.checkpoint(tmp_path / "export.ckpt")
        assert out.exists()
        with pytest.raises(RecoveryError, match="recovery_dir"):
            db.checkpoint()

    def test_recovery_checkpoint_re_anchors_the_log(self, tmp_path):
        # recovery itself ends with a checkpoint + truncation, so the next
        # recovery replays only post-recovery commands
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        for i in range(5):
            db.call("deposit", i, 1.0)
        db.close()
        second = open_db(d, table_bootstrap)
        assert second.stats()["recovery"]["recovered"]["replayed"] == 5
        second.close()
        third = open_db(d, table_bootstrap)
        assert third.stats()["recovery"]["recovered"]["replayed"] == 0
        assert third.execute("SELECT count(*) FROM accounts").scalar() == 5

    def test_corrupt_newest_checkpoint_over_truncated_log_refuses(self, tmp_path):
        # the older checkpoint (LSN 3) cannot stand in for the corrupt
        # newest (LSN 6): the log was truncated to base 6, so LSNs 4..6
        # live in no readable file — recovery must refuse, not skip them
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        for keys in (range(0, 3), range(3, 6)):
            for key in keys:
                db.call("deposit", key, 1.0)
            db.checkpoint()
        assert db.stats()["recovery"]["log"]["base_lsn"] == 6
        for key in range(6, 9):
            db.call("deposit", key, 1.0)
        db.flush_log()
        db.close()
        newest = max(d.glob("checkpoint-*.ckpt"))
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x01  # flip one byte
        newest.write_bytes(bytes(data))
        before = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        with pytest.raises(RecoveryError, match=r"LSN 4\.\.6 is in no readable file"):
            open_db(d, table_bootstrap)
        # the failed open left the directory byte-identical
        assert {p.name: p.read_bytes() for p in sorted(d.iterdir())} == before


# ---------------------------------------------------------------------------
# Weak vs. strong differential
# ---------------------------------------------------------------------------


class TestWeakRecovery:
    def test_weak_matches_strong_with_strictly_fewer_records(self, tmp_path):
        live = tmp_path / "live"
        db = open_db(live, dag_bootstrap)
        drive_dag(db, 6)
        db.flush_log()
        pre = db.catalog.snapshot()

        strong = open_db(copy_dir(live, tmp_path / "s"), dag_bootstrap)
        weak = open_db(
            copy_dir(live, tmp_path / "w"), dag_bootstrap, recovery="weak"
        )
        s_info = strong.stats()["recovery"]["recovered"]
        w_info = weak.stats()["recovery"]["recovered"]
        assert strong.catalog.snapshot() == pre
        assert weak.catalog.snapshot() == strong.catalog.snapshot()
        assert w_info["replayed"] < s_info["replayed"]
        assert w_info["replayed"] + w_info["skipped"] == s_info["replayed"]

    def test_weak_counts_every_delivery_its_replay_regenerated(self, tmp_path):
        # 4 batches x 3 workflow hops: the log holds every delivery, so a
        # strong reopen regenerates none, while weak replay re-runs all 12
        live = tmp_path / "live"
        db = open_db(live, dag_bootstrap)
        drive_dag(db, 4)
        db.flush_log()
        for mode, regenerated in (("strong", 0), ("weak", 12)):
            got = open_db(copy_dir(live, tmp_path / mode), dag_bootstrap, recovery=mode)
            info = got.stats()["recovery"]["recovered"]
            assert info["regenerated_deliveries"] == regenerated, mode

    def test_weak_with_built_in_verification(self, tmp_path):
        live = tmp_path / "live"
        db = open_db(live, dag_bootstrap)
        drive_dag(db, 4)
        db.flush_log()
        weak = open_db(
            copy_dir(live, tmp_path / "w"),
            dag_bootstrap,
            recovery="weak",
        )
        assert weak.stats()["recovery"]["recovered"]["mode"] == "weak"

    def test_lost_delivery_tail_regenerates_and_matches_weak(self, tmp_path):
        live = tmp_path / "live"
        db = open_db(live, dag_bootstrap, group_commit=1)
        drive_dag(db, 3)
        db.close()
        # cut the last two records — the tail of batch 3's pipeline dies
        # with the crash (a lost group-commit window), so the ingest is
        # durable but its final delivery is not
        log = live / "command.log"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines[:-2]))

        strong = open_db(copy_dir(live, tmp_path / "s"), dag_bootstrap)
        assert strong.stats()["recovery"]["recovered"]["regenerated_deliveries"] >= 1
        strong.drain()  # strong leaves the regenerated hop queued until asked
        weak = open_db(copy_dir(live, tmp_path / "w"), dag_bootstrap, recovery="weak")
        # weak re-drove the whole DAG during recovery — no drain needed
        assert weak.catalog.snapshot() == strong.catalog.snapshot()
        assert weak.streaming.delivered == strong.streaming.delivered


class TestWeakLog:
    def test_weak_log_holds_only_the_border(self, tmp_path):
        weak, strong = tmp_path / "weak", tmp_path / "strong"
        for directory, mode in ((weak, "weak"), (strong, "strong")):
            db = open_db(directory, dag_bootstrap, recovery=mode)
            drive_dag(db, 4)
            db.close()
        header, records, _end = scan_log(weak / "command.log")
        assert header == {"op": "_header", "base_lsn": 0, "mode": "weak"}
        assert [r["op"] for r in records] == ["ingest"] * 4
        header, records, _end = scan_log(strong / "command.log")
        assert header["mode"] == "strong"
        first = (strong / "command.log").read_text().splitlines()[0]
        assert decode_record(first) == {"op": "_header", "base_lsn": 0}  # as ever
        assert len(records) == 4 + 4 * 3  # each batch: ingest + three hops
        assert (
            open_db(weak, dag_bootstrap, recovery="weak").catalog.snapshot()
            == open_db(strong, dag_bootstrap).catalog.snapshot()
        )

    def test_strong_open_of_a_weak_log_is_refused(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, dag_bootstrap, recovery="weak")
        drive_dag(db, 2)
        db.flush_log()
        for readonly in (True, False):
            with pytest.raises(RecoveryError, match="weak mode"):
                open_db(d, dag_bootstrap, readonly=readonly)
        # the weak reopen checkpoints and truncates under a weak header;
        # with no weak record past that checkpoint, a strong open recovers
        # and restates the header as strong
        open_db(d, dag_bootstrap, recovery="weak").close()
        strong = open_db(d, dag_bootstrap)
        assert strong.execute("SELECT count(*) FROM audit").scalar() == 2
        assert scan_log(d / "command.log")[0]["mode"] == "strong"

    def test_mode_switch_on_a_header_only_log_restates_the_header(self, tmp_path):
        d = tmp_path / "db"
        open_db(d, dag_bootstrap).close()  # a strong log, header only
        db = open_db(d, dag_bootstrap, recovery="weak")
        assert scan_log(d / "command.log")[0]["mode"] == "weak"
        drive_dag(db, 2)
        db.flush_log()
        with pytest.raises(RecoveryError, match="weak mode"):
            open_db(copy_dir(d, tmp_path / "s"), dag_bootstrap)
        weak = open_db(d, dag_bootstrap, recovery="weak")
        assert weak.execute("SELECT count(*) FROM audit").scalar() == 2


def gate_schema(db):
    db.create_stream(schema("s", ("x", T.BIGINT)))
    db.create_table(schema("gate", ("id", T.BIGINT)))
    db.create_table(schema("out", ("x", T.BIGINT)))


def gate_bootstrap(db):
    """Stream ``s`` feeds ``consume``, which aborts until ``gate`` has a row."""
    gate_schema(db)

    @db.register_procedure
    def consume(ctx, batch):
        if not ctx.execute("SELECT count(*) FROM gate").scalar():
            ctx.abort("gate closed")
        for row in batch.rows:
            ctx.execute("INSERT INTO out (x) VALUES (?)", row)

    @db.register_procedure
    def open_gate(ctx):
        ctx.execute("INSERT INTO gate (id) VALUES (1)")

    db.create_workflow("gated", [("s", "consume", None)])


@pytest.mark.parametrize("written", ["strong", "weak"])
def test_replay_leaves_a_failing_delivery_queued(tmp_path, written):
    readers = ("strong", "weak") if written == "strong" else ("weak",)
    # (a) the delivery aborts, and a later call's drain retries it
    retried = tmp_path / "retried"
    db = open_db(retried, gate_bootstrap, recovery=written)
    with pytest.raises(UserAbort):
        db.ingest("s", [(7,)])
    db.call("open_gate")
    db.flush_log()
    for mode in readers:
        got = open_db(copy_dir(retried, tmp_path / f"a-{mode}"), gate_bootstrap, recovery=mode)
        assert got.execute("SELECT x FROM out").rows == [(7,)]
    # (b) the crash comes while the delivery is still queued
    queued = tmp_path / "queued"
    db = open_db(queued, gate_bootstrap, recovery=written)
    with pytest.raises(UserAbort):
        db.ingest("s", [(7,)])
    db.flush_log()
    for mode in readers:
        got = open_db(copy_dir(queued, tmp_path / f"b-{mode}"), gate_bootstrap, recovery=mode)
        assert got.stats()["recovery"]["recovered"]["regenerated_deliveries"] == 1
        assert got.streaming.stats()["scheduler"]["pending_deliveries"] == 1
        assert got.execute("SELECT count(*) FROM out").scalar() == 0
        got.execute("INSERT INTO gate (id) VALUES (1)")
        assert got.drain() == 1
        assert got.execute("SELECT x FROM out").rows == [(7,)]


def test_a_record_that_fails_by_itself_still_raises(tmp_path):
    d = tmp_path / "db"
    db = open_db(d, gate_bootstrap, recovery="weak", group_commit=1)
    db.call("open_gate")
    db.close()
    with pytest.raises(RecoveryError, match="replay of 'call' record at LSN 1"):
        open_db(d, gate_schema, recovery="weak")


# ---------------------------------------------------------------------------
# Replay rebuilds and consumes the scheduler's delivery queue
# ---------------------------------------------------------------------------


def odd_bootstrap(db):
    """s1 -> p1 -> s2 -> p2, where p1 forwards only odd values: s2 sees
    batches 1 and 3 of [1], [2], [3], and never a batch 2."""
    db.create_stream(schema("s1", ("v", T.BIGINT)))
    db.create_stream(schema("s2", ("v", T.BIGINT)))
    db.create_table(schema("runs", ("proc", T.VARCHAR), ("batch", T.BIGINT)))

    @db.register_procedure
    def p1(ctx, batch):
        ctx.execute("INSERT INTO runs VALUES (?, ?)", ("p1", batch.batch_id))
        odd = [row for row in batch.rows if row[0] % 2]
        if odd:
            ctx.emit("s2", odd)

    @db.register_procedure
    def p2(ctx, batch):
        ctx.execute("INSERT INTO runs VALUES (?, ?)", ("p2", batch.batch_id))

    db.create_workflow("odd", [("s1", "p1", "s2"), ("s2", "p2", None)])


def runs_of(db, proc):
    rows = db.execute("SELECT batch FROM runs WHERE proc = ?", (proc,)).rows
    return sorted(batch for (batch,) in rows)


def cut_log_after(directory, record):
    """Crash with the log's tail lost: keep records up to ``record``."""
    log = directory / "command.log"
    _base, records, _end = scan_log(log)
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[: records.index(record) + 2]))  # + header


def odd_run_losing_tail(directory):
    """Ingest [1], [2], [3]; the log loses everything after p1 delivers
    batch 3 (p2's delivery of s2 batch 3 and the GC that followed)."""
    db = open_db(directory, odd_bootstrap, group_commit=1)
    for v in (1, 2, 3):
        db.ingest("s1", [(v,)])
    assert runs_of(db, "p2") == [1, 3]
    pre = db.catalog.snapshot()
    db.close()
    cut_log_after(
        directory, {"op": "delivery", "stream": "s1", "batch_id": 3, "proc": "p1"}
    )
    return pre


class TestReplayQueue:
    def test_lost_tail_delivers_only_batches_that_exist(self, tmp_path):
        d = tmp_path / "db"
        pre = odd_run_losing_tail(d)
        recovered = open_db(d, odd_bootstrap)
        assert recovered.stats()["recovery"]["recovered"]["regenerated_deliveries"] == 1
        assert recovered.drain() == 1
        assert runs_of(recovered, "p2") == [1, 3]  # no phantom batch 2
        assert runs_of(recovered, "p1") == [1, 2, 3]
        assert recovered.catalog.snapshot() == pre

    def test_second_crash_before_drain_keeps_the_queue(self, tmp_path):
        d = tmp_path / "db"
        pre = odd_run_losing_tail(d)
        first = open_db(d, odd_bootstrap)  # recovers, checkpoints, truncates
        first.close()
        ckpt_path = max(d.glob("checkpoint-*.ckpt"))
        # crash again before any drain(): the checkpoint carried the queue
        second = open_db(d, odd_bootstrap)
        assert second.stats()["recovery"]["recovered"]["regenerated_deliveries"] == 1
        assert second.drain() == 1
        assert runs_of(second, "p2") == [1, 3]  # batch 3 exactly once
        assert second.catalog.snapshot() == pre
        ckpt = load_checkpoint(ckpt_path, EventLedger())
        assert ckpt["streaming"]["undelivered"] == [["s2", 3, "p2"]]

    def test_lost_delivery_of_an_empty_batch_runs_once(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, odd_bootstrap, group_commit=1)
        db.ingest("s1", [(1,)])
        db.ingest("s1", [])  # batch 2 commits with no rows
        db.close()
        cut_log_after(d, {"op": "ingest", "stream": "s1", "batch_id": 2, "rows": []})
        recovered = open_db(d, odd_bootstrap)
        assert recovered.stats()["recovery"]["recovered"]["regenerated_deliveries"] == 1
        recovered.drain()
        assert runs_of(recovered, "p1") == [1, 2]
        assert recovered.streaming.delivered[("s1", "p1")] == 2

    def test_delivery_logged_out_of_queue_order_raises(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, odd_bootstrap, group_commit=1)
        db.ingest("s1", [(1,)])
        db.close()
        log = d / "command.log"
        lines = log.read_bytes().splitlines(keepends=True)
        # drop p1's delivery of batch 1: p2's delivery is now logged while
        # p1's is still the head of the replayed queue
        _base, records, _end = scan_log(log)
        i = records.index({"op": "delivery", "stream": "s1", "batch_id": 1, "proc": "p1"})
        log.write_bytes(b"".join(lines[: i + 1] + lines[i + 2:]))
        with pytest.raises(RecoveryError, match="log out of order"):
            open_db(d, odd_bootstrap)

    def test_checkpoint_without_queue_needs_caught_up_subscriptions(self, tmp_path):
        def strip_queue(directory):
            path = max(directory.glob("checkpoint-*.ckpt"))
            payload = load_checkpoint(path, EventLedger())
            del payload["streaming"]["undelivered"]
            path.write_text(encode_record(payload) + "\n")

        quiet = tmp_path / "quiet"
        db = open_db(quiet, odd_bootstrap)
        db.ingest("s1", [(1,)])
        db.checkpoint()
        strip_queue(quiet)
        assert runs_of(open_db(quiet, odd_bootstrap), "p2") == [1]

        lagging = tmp_path / "lagging"
        odd_run_losing_tail(lagging)
        open_db(lagging, odd_bootstrap).close()  # checkpoint holds s2 -> p2
        strip_queue(lagging)
        with pytest.raises(RecoveryError, match="undelivered"):
            open_db(lagging, odd_bootstrap)


class TestBootstrapMismatch:
    def test_checkpoint_with_unknown_table_raises(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap)
        db.call("deposit", 1, 1.0)
        db.checkpoint()

        def empty_bootstrap(db):
            pass

        with pytest.raises(RecoveryError, match="accounts"):
            open_db(d, empty_bootstrap)

    def test_log_replay_against_missing_procedure_raises(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        db.call("deposit", 1, 1.0)
        db.close()

        def schema_only(db):
            db.create_table(
                schema(
                    "accounts",
                    ("id", T.BIGINT, False),
                    ("balance", T.FLOAT, False),
                    primary_key=["id"],
                )
            )

        with pytest.raises(RecoveryError, match="deposit"):
            open_db(d, schema_only)


# ---------------------------------------------------------------------------
# Log mechanics
# ---------------------------------------------------------------------------


class TestLogMechanics:
    def test_group_commit_batches_fsyncs(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=8)
        for i in range(32):
            db.call("deposit", i, 1.0)
        log = db.stats()["recovery"]["log"]
        assert log["appended"] == 32
        # 32 records / group of 8 = 4 data flushes (+1 header flush at open)
        assert log["appended"] / log["flushes"] >= 4.0

    def test_record_over_the_byte_bound_is_durable_at_once(self, tmp_path):
        # a group of 8 is far from full; 64 KiB pending forces the fsync
        path = tmp_path / "cmd.log"
        log = CommandLog(path, EventLedger(), group_size=8)
        log.append({"op": "small"})
        assert log.durable_lsn == 0
        lsn = log.append({"op": "big", "blob": "x" * DEFAULT_GROUP_BYTES})
        assert log.durable_lsn == lsn == 2
        assert log.stats()["pending"] == 0
        assert log.stats()["group_bytes"] == 64 * 1024
        assert [r["op"] for r in scan_log(path)[1]] == ["small", "big"]
        log.close()

    def test_synchronous_mode_flushes_every_record(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        for i in range(5):
            db.call("deposit", i, 1.0)
        assert db.stats()["recovery"]["log"]["pending"] == 0

    def test_log_costs_are_charged(self, tmp_path):
        db = Database(recovery_dir=tmp_path / "db", bootstrap=table_bootstrap)
        db.call("deposit", 1, 1.0)
        db.flush_log()
        events = db.stats("events")
        assert events["log_group_commit"] >= 1
        assert events["log_write"] >= 1

    def test_scan_log_round_trip(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, table_bootstrap, group_commit=1)
        db.call("deposit", 1, 2.5)
        db.executemany(
            "INSERT INTO accounts (id, balance) VALUES (?, ?)", [(7, 1.0), (8, 2.0)]
        )
        db.close()
        base, records, _end = scan_log(d / "command.log")
        assert [r["op"] for r in records] == ["call", "txn"]
        assert records[0] == {"op": "call", "proc": "deposit", "args": [1, 2.5]}
        assert records[1]["cmds"][0][0] == "many"

    def test_readonly_open_writes_nothing(self, tmp_path):
        d = tmp_path / "db"
        db = open_db(d, dag_bootstrap)
        drive_dag(db, 2)
        db.close()
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        ro = open_db(d, dag_bootstrap, readonly=True)
        ro.drain()
        assert ro.execute("SELECT count(*) FROM audit").scalar() == 2
        after = {p.name: p.read_bytes() for p in d.iterdir()}
        assert before == after
        with pytest.raises(RecoveryError):
            ro.checkpoint()

    def test_unserialisable_call_args_raise_before_any_effect(self, tmp_path):
        def bootstrap(db):
            table_bootstrap(db)

            @db.register_procedure
            def tagged_write(ctx, tag):
                # ``tag`` never reaches SQL, but it must ride in the log
                ctx.execute("INSERT INTO accounts (id, balance) VALUES (?, ?)", (42, 1.0))

        db = open_db(tmp_path / "db", bootstrap, group_commit=1)
        with pytest.raises(RecoveryError, match="JSON"):
            db.call("tagged_write", object())
        # validation fired before the transaction opened: nothing committed
        # in memory that the log does not also carry
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 0
        assert db.stats()["transactions"]["open"] is False
        db.call("tagged_write", "fine")  # engine still fully usable
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 1

    def test_unserialisable_statement_params_roll_back_in_open_txn(self, tmp_path):
        from decimal import Decimal

        db = open_db(tmp_path / "db", table_bootstrap, group_commit=1)
        with db.transaction() as txn:
            db.execute("INSERT INTO accounts (id, balance) VALUES (?, ?)", (1, 1.0))
            with pytest.raises(RecoveryError, match="JSON"):
                # a Decimal WHERE param compares fine at execution time
                # (1 == Decimal(1)), so the write succeeds — but it cannot
                # ride in a JSON log record; the statement must undo itself
                # so the open transaction stays consistent with its record
                db.execute(
                    "UPDATE accounts SET balance = ? WHERE id = ?",
                    (9.0, Decimal("1")),
                )
            assert txn.is_active
        db.close()
        recovered = open_db(tmp_path / "db", table_bootstrap)
        assert recovered.query("SELECT id, balance FROM accounts") == [
            {"id": 1, "balance": 1.0}
        ]

    def test_memory_only_database_reports_no_recovery(self):
        db = Database()
        assert db.stats()["recovery"] is None
        db.flush_log()  # no-ops
        db.close()


# ---------------------------------------------------------------------------
# A failing fsync: reported, never trusted again
# ---------------------------------------------------------------------------


def fail_next_fsync(monkeypatch):
    """Make the next ``os.fsync`` raise EIO (later ones work); returns the
    list of fsync calls made from now on."""
    real, calls = os.fsync, []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


INSERT_ACCOUNT = "INSERT INTO accounts (id, balance) VALUES (?, ?)"


def failed_fsync_db(tmp_path, monkeypatch):
    """Synchronous logging; LSN 1 is durable, the fsync of LSN 2 fails.
    Returns the database, the error the failing statement raised, and the
    fsync calls made since the failure was armed."""
    db = open_db(tmp_path / "db", table_bootstrap, group_commit=1)
    db.execute(INSERT_ACCOUNT, (1, 1.0))
    calls = fail_next_fsync(monkeypatch)
    with pytest.raises(RecoveryError) as info:
        db.execute(INSERT_ACCOUNT, (2, 2.0))
    return db, info.value, calls


class TestFailedFsync:
    def test_failure_raises_recovery_error_naming_first_undurable_lsn(
        self, tmp_path, monkeypatch
    ):
        _db, err, _calls = failed_fsync_db(tmp_path, monkeypatch)
        assert isinstance(err.__cause__, OSError)
        assert err.__cause__.errno == errno.EIO
        assert "from LSN 2 on are not durable" in str(err)

    def test_records_count_as_durable_only_after_fsync_returns(
        self, tmp_path, monkeypatch
    ):
        db, _err, _calls = failed_fsync_db(tmp_path, monkeypatch)
        log = db.stats()["recovery"]["log"]
        assert log["durable_lsn"] == 1
        assert log["lsn"] == 2

    def test_every_later_append_and_flush_names_the_original_failure(
        self, tmp_path, monkeypatch
    ):
        db, err, _calls = failed_fsync_db(tmp_path, monkeypatch)
        # fsync works again, but a retried fsync proves nothing about pages
        # the kernel may already have dropped: the log stays stopped
        for attempt in (
            lambda: db.execute(INSERT_ACCOUNT, (3, 3.0)),
            db.flush_log,
            db.checkpoint,
        ):
            with pytest.raises(RecoveryError, match="earlier failure") as info:
                attempt()
            assert str(err.__cause__) in str(info.value)
            assert info.value.__cause__ is err.__cause__
        assert db.stats()["recovery"]["log"]["durable_lsn"] == 1

    def test_close_does_not_retry_the_fsync(self, tmp_path, monkeypatch):
        db, _err, calls = failed_fsync_db(tmp_path, monkeypatch)
        fsyncs = len(calls)
        db.close()
        db.close()  # idempotent
        assert len(calls) == fsyncs
        assert db.stats()["recovery"]["active"] is False

    def test_log_stats_report_the_failure(self, tmp_path, monkeypatch):
        healthy = open_db(tmp_path / "healthy", table_bootstrap)
        assert healthy.stats()["recovery"]["log"]["failed"] is None
        db, err, _calls = failed_fsync_db(tmp_path, monkeypatch)
        failed = db.stats()["recovery"]["log"]["failed"]
        assert failed is not None and failed in str(err)
        assert os.strerror(errno.EIO) in failed

    def test_reopen_recovers_every_record_through_durable_lsn(
        self, tmp_path, monkeypatch
    ):
        db, _err, _calls = failed_fsync_db(tmp_path, monkeypatch)
        assert db.stats()["recovery"]["log"]["durable_lsn"] == 1
        # crash: abandon the failed database and reopen its directory
        recovered = open_db(tmp_path / "db", table_bootstrap)
        ids = {row[0] for row in recovered.execute("SELECT id FROM accounts")}
        assert 1 in ids  # LSN 1; LSN 2 is in doubt, either way is allowed
        assert ids <= {1, 2}


# ---------------------------------------------------------------------------
# Golden event counts of a durable dataflow
# ---------------------------------------------------------------------------

#: ``stats("events")`` after :func:`durable_dag_run`.  Every priced event
#: appears at least once.
DAG_EVENTS = {
    "client_submit": 5, "ee_trigger": 5, "index_probes": 41, "log_group_commit": 26,
    "log_write": 8, "pe_trigger": 20, "plan_cache_hit": 9, "rows_deleted": 65,
    "rows_inserted": 358, "rows_scanned": 223, "rows_undone": 1, "rows_updated": 133,
    "snapshot_row": 102, "sql_plan": 6, "sql_stmt": 80, "txn_abort": 1,
    "txn_begin": 27, "txn_commit": 26, "window_slide": 5,
}
#: simulated time of :data:`DAG_EVENTS` at the default costs
DAG_SIM_TIME_US = 6006.5


def durable_dag_run(directory):
    """The Voter DAG (window, EE trigger, workflow PE triggers) plus a user
    PE trigger, group commit, an aborted call, a checkpoint and a delete."""

    def bootstrap(db):
        dag_bootstrap(db)
        db.create_pe_trigger(
            "audit_counts",
            "counts",
            lambda db, batch: db.execute(
                "INSERT INTO audit (batch) VALUES (?)", (-batch.batch_id,)
            ),
        )

        @db.register_procedure
        def recount(ctx, contestant):
            ctx.execute(
                "UPDATE leaderboard SET total = total + 1 WHERE contestant = ?",
                (contestant,),
            )
            ctx.abort("recount refused")

    db = open_db(directory, bootstrap, group_commit=4)
    drive_dag(db, 3)
    with pytest.raises(UserAbort):
        db.call("recount", 0)
    db.checkpoint()
    drive_dag(db, 2, start=3)
    db.execute("DELETE FROM audit WHERE batch < ?", (0,))
    db.flush_log()
    return db


def test_durable_dag_event_counts_are_pinned(tmp_path):
    db = durable_dag_run(tmp_path / "db")
    events = db.stats("events")
    # bit-identical to the pinned counts; the only new keys are the two
    # tallies that moved into the ledger from stats("transactions")
    assert events == {**DAG_EVENTS, "txn_implicit": 11, "procedure_call": 16}
    assert {event for event, field in EVENTS.items() if field} <= events.keys()
    assert db.stats("sim_time_us") == pytest.approx(DAG_SIM_TIME_US, rel=1e-9)
    cost = CostModel(log_write_us=1000.0, snapshot_row_us=1.5, pe_trigger_us=7.0)
    by_hand = sum(n * getattr(cost, EVENTS[e]) for e, n in events.items() if EVENTS[e])
    assert sim_time_us(events, cost) == pytest.approx(by_hand, rel=1e-12)
    assert db.stats("transactions") == {
        "begun": 27, "committed": 26, "aborted": 1, "implicit": 11,
        "procedure_calls": 16, "open": False,
    }


# ---------------------------------------------------------------------------
# Golden command log: every capture path, one scripted run
# ---------------------------------------------------------------------------

INSERT_ACCOUNT = "INSERT INTO accounts (id, balance) VALUES (?, ?)"
DOUBLE_BALANCE = "UPDATE accounts SET balance = balance * 2 WHERE id = ?"


def capture_paths_bootstrap(db):
    table_bootstrap(db)
    db.create_stream(schema("feed", ("id", T.BIGINT), ("amount", T.FLOAT)))

    @db.register_procedure
    def balance_of(ctx, account_id):
        return ctx.execute(
            "SELECT balance FROM accounts WHERE id = ?", (account_id,)
        ).scalar()

    @db.register_procedure
    def apply_feed(ctx, batch):
        for account_id, amount in batch.rows:
            ctx.execute(
                "UPDATE accounts SET balance = balance + ? WHERE id = ?",
                (amount, account_id),
            )

    db.create_workflow("feed_flow", [("feed", "apply_feed")])


def capture_paths_run(directory):
    """One statement of every kind the engine can command-log, each both
    writing and not writing where the path allows it."""
    db = open_db(directory, capture_paths_bootstrap, group_commit=4)
    # ad-hoc execute: implicit, then explicit
    db.execute(INSERT_ACCOUNT, (1, 10.0))
    db.execute("SELECT balance FROM accounts WHERE id = ?", (1,))
    with db.transaction():
        db.execute("UPDATE accounts SET balance = balance + ? WHERE id = ?", (1.0, 1))
        db.execute("SELECT count(*) FROM accounts")
        db.execute("UPDATE accounts SET balance = 0 WHERE id = ?", (99,))
    # executemany: bulk INSERT and per-row UPDATE, implicit then explicit
    db.executemany(INSERT_ACCOUNT, [(2, 1.0), (3, 2.0)])
    db.executemany(DOUBLE_BALANCE, [(2,), (3,)])
    db.executemany(DOUBLE_BALANCE, [(97,)])
    with db.transaction():
        db.executemany(INSERT_ACCOUNT, [(4, 4.0), (5, 5.0)])
        db.executemany(DOUBLE_BALANCE, [(4,), (98,)])
        db.executemany(DOUBLE_BALANCE, [(97,)])
    # procedure calls: writing and read-only, standalone and as fragments
    db.call("deposit", 1, 5.0)
    db.call("balance_of", 1)
    with db.transaction():
        db.call_in_txn("deposit", 2, 1.0)
        db.call_in_txn("balance_of", 2)
    # ingest -> workflow delivery (stream GC runs after it, unlogged)
    db.ingest("feed", [(1, 0.5), (2, 0.25)])
    db.ingest("feed", [(3, 0.125)])
    db.flush_log()
    return db


#: ``scan_log`` after :func:`capture_paths_run`.  Rule: a command is logged
#: iff its step wrote.  The read-only ``call_in_txn("balance_of", 2)``
#: fragment is therefore absent from the ``callx`` record; it has no
#: effect on replay.
CAPTURE_LOG = [
    {"op": "txn", "cmds": [["sql", INSERT_ACCOUNT, [1, 10.0]]]},
    {"op": "txn", "cmds": [
        ["sql", "UPDATE accounts SET balance = balance + ? WHERE id = ?", [1.0, 1]],
    ]},
    {"op": "txn", "cmds": [["many", INSERT_ACCOUNT, [[2, 1.0], [3, 2.0]]]]},
    {"op": "txn", "cmds": [["many", DOUBLE_BALANCE, [[2], [3]]]]},
    {"op": "txn", "cmds": [
        ["many", INSERT_ACCOUNT, [[4, 4.0], [5, 5.0]]],
        ["many", DOUBLE_BALANCE, [[4], [98]]],
    ]},
    {"op": "call", "proc": "deposit", "args": [1, 5.0]},
    {"op": "txn", "cmds": [["callx", "deposit", [2, 1.0]]]},
    {"op": "ingest", "stream": "feed", "batch_id": 1, "rows": [[1, 0.5], [2, 0.25]]},
    {"op": "delivery", "stream": "feed", "batch_id": 1, "proc": "apply_feed"},
    {"op": "ingest", "stream": "feed", "batch_id": 2, "rows": [[3, 0.125]]},
    {"op": "delivery", "stream": "feed", "batch_id": 2, "proc": "apply_feed"},
]
#: ``stats("events")`` after :func:`capture_paths_run`
CAPTURE_EVENTS = {
    "client_submit": 2, "index_probes": 16, "log_group_commit": 11, "log_write": 4,
    "pe_trigger": 2, "plan_cache_hit": 8, "procedure_call": 6, "rows_inserted": 8,
    "rows_scanned": 13, "rows_updated": 9, "sql_plan": 6, "sql_stmt": 22,
    "txn_begin": 14, "txn_commit": 14, "txn_implicit": 7,
}


def test_golden_command_log_covers_every_capture_path(tmp_path):
    d = tmp_path / "db"
    db = capture_paths_run(d)
    _base, records, _end = scan_log(d / "command.log")
    assert records == CAPTURE_LOG
    assert ["callx", "balance_of", [2]] not in [
        cmd for record in records for cmd in record.get("cmds", ())
    ]
    assert db.stats("events") == CAPTURE_EVENTS
    pre = db.catalog.snapshot()
    recovered = open_db(copy_dir(d, tmp_path / "r"), capture_paths_bootstrap)
    assert recovered.catalog.snapshot() == pre
    assert recovered.stats()["recovery"]["recovered"]["replayed"] == len(CAPTURE_LOG)


# ---------------------------------------------------------------------------
# Workload-driven crash (the conformance harness as a recovery oracle)
# ---------------------------------------------------------------------------


class TestWorkloadCrash:
    def test_linear_road_partitioned_crash_matches_no_crash_digest(self, tmp_path):
        """Crash the partitioned engine mid-Linear-Road, weak-recover every
        partition, finish the script: the conformance digest must equal the
        single-engine no-crash reference."""
        from repro.partition import PartitionedDatabase
        from repro.workloads import LinearRoadScenario, run_shape, state_digest
        from repro.workloads.scenario import Scale

        scenario = LinearRoadScenario()
        ops = scenario.ops(31, Scale.smoke())
        reference = run_shape(scenario, ops, "single")
        cut = len(ops) // 2

        kwargs = dict(
            partition_keys=scenario.partition_keys,
            workers="inline",
            recovery_dir=tmp_path / "lr",
            recovery="weak",
        )
        pdb = PartitionedDatabase(2, scenario.deploy, **kwargs)
        for op in ops[:cut]:
            pdb.ingest(op.target, [list(r) for r in op.rows])
        pdb.drain()
        pdb.flush_log()
        pdb.kill()  # crash: both partitions die with their buffers

        recovered = PartitionedDatabase(2, scenario.deploy, **kwargs)
        try:
            for op in ops[cut:]:
                recovered.ingest(op.target, [list(r) for r in op.rows])
            recovered.drain()

            def read(sql):
                return [tuple(r) for r in recovered.execute(sql).rows]

            digest, _ = state_digest(read, scenario.output_tables)
            assert digest == reference.digest
            assert scenario.check(read, ops, 0) == []
        finally:
            recovered.close()
