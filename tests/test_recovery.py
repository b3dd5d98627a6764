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
from repro.common.types import ColumnType as T
from repro.engine import Database
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

    def test_weak_with_built_in_verification(self, tmp_path):
        live = tmp_path / "live"
        db = open_db(live, dag_bootstrap)
        drive_dag(db, 4)
        db.flush_log()
        weak = open_db(
            copy_dir(live, tmp_path / "w"),
            dag_bootstrap,
            recovery="weak",
            verify_recovery=True,  # raises RecoveryError on divergence
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

#: ``stats("events")`` after :func:`durable_dag_run`, as the engine reported
#: them before the event ledger replaced the sim clock.  Every priced event
#: appears at least once.
DAG_EVENTS = {
    "client_submit": 5, "ee_trigger": 5, "index_probes": 41, "log_group_commit": 31,
    "log_write": 10, "pe_trigger": 20, "plan_cache_hit": 9, "rows_deleted": 65,
    "rows_inserted": 358, "rows_scanned": 223, "rows_undone": 1, "rows_updated": 133,
    "snapshot_row": 102, "sql_plan": 6, "sql_stmt": 80, "txn_abort": 1,
    "txn_begin": 27, "txn_commit": 26, "window_slide": 5,
}
#: simulated time of :data:`DAG_EVENTS` at the default costs, as reported then
DAG_SIM_TIME_US = 7006.5


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
    # ingest -> workflow delivery -> stream GC
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
    {"op": "gc", "horizons": {"feed": 1}},
    {"op": "ingest", "stream": "feed", "batch_id": 2, "rows": [[3, 0.125]]},
    {"op": "delivery", "stream": "feed", "batch_id": 2, "proc": "apply_feed"},
    {"op": "gc", "horizons": {"feed": 2}},
]
#: ``stats("events")`` after :func:`capture_paths_run`
CAPTURE_EVENTS = {
    "client_submit": 2, "index_probes": 16, "log_group_commit": 13, "log_write": 5,
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
