"""The network front door: handshake, FIFO pipelining, admission
control/backpressure, typed error propagation, wire-level fault
handling, and the served-partitioned path.

Every test binds port 0 (a fresh ephemeral port) and runs a real
asyncio server in its own thread — the same code path production
traffic takes, no mocked transports.
"""

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.common.errors import (
    BackpressureError,
    BatchOrderError,
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
    SchemaError,
    ServerError,
)
from repro.common.framing import HEADER, encode_frame, recv_frame, send_frame
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.obs import NOOP_SPAN
from repro.partition import PartitionedDatabase
from repro.partition.rpc import settle
from repro.server import AsyncReproClient, PROTOCOL_VERSION, ReproClient, ReproServer, serve
from repro.storage.schema import schema


def deploy(db, part=None):
    """One keyed stream feeding a balance table through a workflow —
    identical deployment for single and partitioned engines."""
    db.create_stream(schema("feed", ("acct", T.INTEGER), ("amt", T.INTEGER)))
    db.create_table(
        schema(
            "bal",
            ("acct", T.INTEGER, False),
            ("total", T.INTEGER, False),
            primary_key=["acct"],
        )
    )

    @db.register_procedure
    def absorb(ctx, batch):
        for acct, amt in batch.rows:
            if ctx.execute(
                "UPDATE bal SET total = total + ? WHERE acct = ?", (amt, acct)
            ).rowcount == 0:
                ctx.execute("INSERT INTO bal (acct, total) VALUES (?, ?)", (acct, amt))

    db.create_workflow("flow", [("feed", "absorb", None)])


@pytest.fixture
def db():
    d = Database()
    deploy(d)
    return d


@pytest.fixture
def server(db):
    with ReproServer(db) as srv:
        yield srv


def client(server, **kw):
    return ReproClient(*server.address, **kw)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def raw_connection(server):
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def send_in_one_write(sock, records):
    """Pipeline ``records`` in a single socket write, so the server reads
    them all in one loop wakeup — before the first of them runs."""
    sock.sendall(b"".join(encode_frame(r) for r in records))


def next_reply(sock):
    """The next reply on a raw socket, decoded as a client would: its
    value, or its typed error raised."""
    return settle(recv_frame(sock)[0], NOOP_SPAN, "server", ServerError)


# ---------------------------------------------------------------------------
# Handshake and session
# ---------------------------------------------------------------------------

class TestHandshake:
    def test_hello_carries_server_metadata(self, server):
        with client(server) as c:
            assert c.server_info["protocol"] == PROTOCOL_VERSION
            assert c.server_info["partitioned"] is False
            assert c.server_info["max_inflight_per_conn"] == server.max_inflight_per_conn

    def test_wrong_protocol_version_is_rejected(self, server):
        sock = raw_connection(server)
        try:
            send_frame(sock, {"op": "hello", "protocol": 999})
            reply, _ = recv_frame(sock)
            assert reply["ok"] is False and reply["error"] == "ProtocolError"
            assert "version" in reply["message"]
            with pytest.raises(ConnectionClosedError):  # then the server hangs up
                recv_frame(sock)
        finally:
            sock.close()

    def test_first_frame_must_be_hello(self, server):
        sock = raw_connection(server)
        try:
            send_frame(sock, {"op": "ping"})
            reply, _ = recv_frame(sock)
            assert reply["ok"] is False and reply["error"] == "ProtocolError"
        finally:
            sock.close()

    def test_first_frame_is_counted_under_its_own_op(self, db, server):
        """A first frame that is not a hello counts under its op — "?"
        for a non-string op — and never as a hello."""
        for frame in ({"op": "execute", "sql": "SELECT 1", "params": []}, {"op": 7}):
            sock = raw_connection(server)
            try:
                send_frame(sock, frame)
                reply, _ = recv_frame(sock)
                assert reply["ok"] is False and "expected hello" in reply["message"]
            finally:
                sock.close()
        requests = db.stats()["server"]["requests"]
        assert (requests.get("execute"), requests.get("?")) == (1, 1)
        assert "hello" not in requests

    def test_duplicate_hello_errors_but_keeps_connection(self, server):
        with client(server) as c:
            with pytest.raises(ProtocolError):
                c._request({"op": "hello", "protocol": PROTOCOL_VERSION})
            assert c.ping() == "pong"  # still usable

    def test_unknown_op_errors_but_keeps_connection(self, server):
        with client(server) as c:
            with pytest.raises(ProtocolError, match="unknown op"):
                c._request({"op": "frobnicate"})
            assert c.ping() == "pong"

    def test_many_sequential_connections(self, db, server):
        for i in range(5):
            with client(server) as c:
                c.ingest("feed", [(i, 1)])
        with client(server) as c:
            c.drain()
            assert c.query("SELECT count(*) FROM bal") == [{"count": 5}]
        assert db.stats()["server"]["connections"]["accepted"] == 6


class TestEngineFacadeOverTheWire:
    def test_execute_returns_result_set(self, server):
        with client(server) as c:
            c.execute("INSERT INTO bal (acct, total) VALUES (?, ?)", (1, 10))
            rs = c.execute("SELECT acct, total FROM bal")
            assert rs.columns == ("acct", "total")
            assert rs.rows == [(1, 10)]
            assert rs.rowcount == 1

    def test_executemany_and_query(self, server):
        with client(server) as c:
            n = c.executemany(
                "INSERT INTO bal (acct, total) VALUES (?, ?)", [(1, 1), (2, 2), (3, 3)]
            )
            assert n == 3
            assert c.query("SELECT sum(total) FROM bal") == [{"sum": 6}]

    def test_call_procedure(self, db, server):
        @db.register_procedure
        def double(ctx, x):
            return x * 2

        with client(server) as c:
            assert c.call("double", 21) == 42

    def test_ingest_drain_flush(self, server):
        with client(server) as c:
            ids = c.ingest("feed", [(1, 5), (2, 7)])
            assert ids == [1]
            c.drain()
            assert c.flush_log() is None  # memory-only: a no-op, but a reply
            assert c.query("SELECT total FROM bal WHERE acct = 2") == [{"total": 7}]

    def test_stats_includes_server_section(self, server):
        with client(server) as c:
            st = c.stats()
            assert st["server"]["connections"]["active"] == 1
            assert st["server"]["requests"]["hello"] == 1
            assert st["server"]["bytes"]["in"] > 0

    def test_pipelined_replies_are_fifo(self, server):
        with client(server) as c:
            for acct in range(5):
                c.post({"op": "execute",
                        "sql": "INSERT INTO bal (acct, total) VALUES (?, ?)",
                        "params": [acct, acct * 10]})
            c.post({"op": "execute", "sql": "SELECT count(*) FROM bal", "params": []})
            for _ in range(5):
                assert c.collect().rowcount == 1  # the inserts, in order
            assert c.collect().rows == [(5,)]  # then the select — position 6


# ---------------------------------------------------------------------------
# Wire-level faults
# ---------------------------------------------------------------------------

class TestWireFaults:
    def test_malformed_frame_gets_error_frame_then_close(self, db, server):
        txns_before = db.stats("transactions")
        sock = raw_connection(server)
        try:
            send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
            recv_frame(sock)
            garbage = b"not a serde record at all"
            sock.sendall(HEADER.pack(len(garbage)) + garbage)
            reply, _ = recv_frame(sock)
            assert reply["ok"] is False and reply["error"] == "ProtocolError"
            with pytest.raises(ConnectionClosedError):
                recv_frame(sock)  # stream untrustworthy: server hung up
        finally:
            sock.close()
        assert wait_until(lambda: db.stats()["server"]["protocol_errors"] == 1)
        assert db.stats("transactions") == txns_before  # engine never touched

    @pytest.mark.parametrize("after_hello", [False, True], ids=["handshake", "session"])
    def test_non_object_record_gets_error_frame_then_close(self, db, server, after_hello):
        sock = raw_connection(server)
        try:
            if after_hello:
                send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
                recv_frame(sock)
            send_frame(sock, ["execute", "SELECT 1"])  # well framed, but a list
            reply, _ = recv_frame(sock)
            assert reply["ok"] is False and reply["error"] == "ProtocolError"
            assert "not an object" in reply["message"]
            with pytest.raises(ConnectionClosedError):
                recv_frame(sock)
        finally:
            sock.close()
        assert wait_until(lambda: db.stats()["server"]["protocol_errors"] == 1)

    def test_non_string_op_errors_but_keeps_connection(self, db, server):
        sock = raw_connection(server)
        try:
            send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
            recv_frame(sock)
            for op in (["execute"], {"a": 1}, 7, None):
                send_frame(sock, {"op": op})
                reply, _ = recv_frame(sock)
                assert reply["ok"] is False and reply["error"] == "ProtocolError"
                assert "unknown op" in reply["message"]
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)[0]["value"] == "pong"
        finally:
            sock.close()
        assert db.stats()["server"]["requests"]["?"] == 4

    def test_oversized_request_rejected_by_server(self, db):
        with ReproServer(db, max_frame_bytes=2048) as srv:
            with client(srv, max_frame_bytes=1 << 20) as c:
                big = [(i, 1) for i in range(2000)]
                with pytest.raises(FrameTooLargeError):
                    c.ingest("feed", big)
            # nothing of the batch landed
            assert db.query("SELECT count(*) FROM feed") == [{"count": 0}]

    def test_oversized_reply_becomes_error_frame(self, db):
        for i in range(300):
            db.execute("INSERT INTO bal (acct, total) VALUES (?, ?)", (i, i))
        with ReproServer(db, max_frame_bytes=2048) as srv:
            with client(srv, max_frame_bytes=1 << 20) as c:
                with pytest.raises(FrameTooLargeError):
                    c.execute("SELECT acct, total FROM bal")
                assert c.ping() == "pong"  # the connection survives

    def test_client_send_guard_matches_server(self, server):
        with client(server, max_frame_bytes=256) as c:
            with pytest.raises(FrameTooLargeError):
                c.ingest("feed", [(i, 1) for i in range(100)])

    def test_mid_request_disconnect_applies_fully_exactly_once(self, db, server):
        # post one ingest and hang up without reading the reply: the
        # admitted batch still runs to completion on the server's loop —
        # fully applied, exactly once, nothing to roll back
        c = client(server)
        c.post({"op": "ingest", "stream": "feed",
                "rows": [[1, 5], [2, 7]], "batch_id": None})
        c._sock.close()  # vanish mid-request, reply undeliverable
        assert wait_until(
            lambda: db.stats()["streaming"]["streams"]["feed"]["last_committed"] == 1
        )
        with client(server) as c2:
            c2.drain()
            assert c2.query("SELECT total FROM bal WHERE acct = 1") == [{"total": 5}]
            assert c2.query("SELECT count(*) FROM feed") == [{"count": 2}]
        # the budget taken by the orphaned request was released
        assert wait_until(lambda: db.stats()["server"]["inflight"]["now"] == 0)

    @pytest.mark.slow
    @pytest.mark.wallclock
    def test_idle_timeout_closes_quiet_connection(self, db):
        # a quiet connection gets one unsolicited typed error frame
        # ("idle timeout"), then EOF — read raw, since writing first
        # would RST away the buffered farewell
        with ReproServer(db, idle_timeout=0.15) as srv:
            c = client(srv)
            assert c.ping() == "pong"
            time.sleep(0.5)
            try:
                reply, _ = recv_frame(c._sock)
                assert reply["error"] == "ConnectionClosedError"
                assert "idle timeout" in reply["message"]
                with pytest.raises(ConnectionClosedError):
                    recv_frame(c._sock)  # and then the server hung up
            finally:
                c._sock.close()


# ---------------------------------------------------------------------------
# Typed errors across the wire
# ---------------------------------------------------------------------------

class TestTypedErrors:
    def test_batch_order_error_round_trip(self, server):
        with client(server) as c:
            c.ingest("feed", [(1, 1)])  # server-assigned id 1
            with pytest.raises(BatchOrderError, match=r"\[server\]"):
                c.ingest("feed", [(2, 2)], batch_id=1)  # behind the watermark
            assert c.ping() == "pong"  # a typed engine error is not fatal

    def test_schema_error_round_trip(self):
        def deploy_with_orphan(db, part=None):
            deploy(db, part)
            db.create_stream(schema("orphan", ("x", T.INTEGER)))

        pdb = PartitionedDatabase(
            num_partitions=2,
            deploy=deploy_with_orphan,
            partition_keys={"feed": "acct", "bal": "acct", "orphan": "nope"},
            workers="inline",
        )
        try:
            with ReproServer(pdb) as srv:
                with client(srv) as c:
                    with pytest.raises(SchemaError, match="not a declared column"):
                        c.ingest("orphan", [(1,)])
        finally:
            pdb.close()

    def test_engine_exception_is_typed_procedure_error(self, db, server):
        @db.register_procedure
        def keyerror(ctx):
            return {}["missing"]

        from repro.common.errors import ProcedureError

        with client(server) as c:
            with pytest.raises(ProcedureError, match="rolled back"):
                c.call("keyerror")
            assert c.ping() == "pong"  # engine abort did not kill the server

    def test_foreign_error_class_falls_back_to_server_error(self, db, server):
        # an exception class outside the wire registry (here the KeyError
        # an unknown stats section raises engine-side) still produces one
        # reply; the client re-raises it as the ServerError fallback
        with client(server) as c:
            with pytest.raises(ServerError, match="no_such_section"):
                c.stats(section="no_such_section")
            assert c.stats()["server"]["requests"]["stats"] == 2

    def test_raising_stats_section_degrades_instead_of_erroring(self, db, server):
        # a raising registered thunk no longer takes down the whole
        # snapshot: its section degrades to {"error": ...} over the wire
        db.add_stats_section("boom", lambda: 1 // 0)
        try:
            with client(server) as c:
                snap = c.stats()
                assert snap["boom"] == {
                    "error": "ZeroDivisionError: integer division or modulo by zero"
                }
                assert snap["server"]["requests"]["stats"] == 1
        finally:
            db.remove_stats_section("boom")

    def test_job_raising_outside_the_engine_still_replies(self, db, server, monkeypatch):
        # a job that raises past the engine's own error replies still
        # settles its reply, releases its budget and starts the next job
        respond = server._respond

        def broken(record, queued_ns):
            if record["op"] == "flush_log":
                raise RuntimeError("boom")
            return respond(record, queued_ns)

        monkeypatch.setattr(server, "_respond", broken)
        with client(server) as c:
            with pytest.raises(ServerError, match="request lost: boom"):
                c.flush_log()
            assert c.query("SELECT count(*) FROM bal") == [{"count": 0}]
            assert c.stats()["server"]["inflight"]["now"] == 0


# ---------------------------------------------------------------------------
# Admission control / backpressure
# ---------------------------------------------------------------------------

class TestBackpressure:
    def test_overload_rejects_with_retryable_error(self, db):
        with ReproServer(db, max_inflight_per_conn=2, max_inflight_total=2) as srv:
            with client(srv) as c:
                for i in range(10):
                    c.post({"op": "ingest", "stream": "feed",
                            "rows": [[1, 1]], "batch_id": None})
                admitted = rejected = 0
                for _ in range(10):
                    try:
                        c.collect()
                        admitted += 1
                    except BackpressureError as exc:
                        assert exc.retryable is True
                        rejected += 1
                assert admitted >= 1 and rejected >= 1
                assert admitted + rejected == 10
                st = c.stats()["server"]
                assert st["rejected"]["total"] == rejected
                assert st["rejected"]["by_op"] == {"ingest": rejected}
        # every admitted batch applied; every rejected one never started
        db.drain()
        assert db.query("SELECT total FROM bal WHERE acct = 1") == [{"total": admitted}]

    def test_rejected_batch_retries_and_applies_exactly_once(self, db):
        ingest = {"op": "ingest", "stream": "feed", "batch_id": None}
        with ReproServer(db, max_inflight_per_conn=1, max_inflight_total=1) as srv:
            sock = raw_connection(srv)
            try:
                send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
                recv_frame(sock)
                # twice: the victim batch is read while the only budget
                # slot is held by a queued batch, so it is rejected —
                # retryably, and without reaching the engine...
                for _ in range(2):
                    send_in_one_write(sock, [{**ingest, "rows": [[1, 1]]},
                                             {**ingest, "rows": [[7, 3]]}])
                    next_reply(sock)
                    with pytest.raises(BackpressureError) as rejected:
                        next_reply(sock)
                    assert rejected.value.retryable is True
            finally:
                sock.close()
            # ...and, resubmitted, the batch lands exactly once (the client's
            # retry loop: test_ingest_retry_after_rejection_applies_exactly_once)
            with client(srv) as c:
                c.ingest("feed", [(7, 3)], retries=50, backoff=0.02)
                c.drain()
                assert c.query("SELECT total FROM bal WHERE acct = 7") == [{"total": 3}]
                assert c.stats()["server"]["rejected"]["total"] >= 2

    def test_ingest_retry_after_rejection_applies_exactly_once(self, db, server, monkeypatch):
        # ingest(retries=N) end to end: its first attempt is really
        # rejected by admission (the connection budget reads full once),
        # the client backs off and resends, and the batch lands once
        admit, admitted_ops = server._admit, []

        def full_once(conn, op):
            admitted_ops.append(op)
            held = server.max_inflight_per_conn if len(admitted_ops) == 1 else 0
            conn.inflight += held
            try:
                return admit(conn, op)
            finally:
                conn.inflight -= held

        monkeypatch.setattr(server, "_admit", full_once)
        with client(server) as c:
            before = c.stats()["server"]["rejected"]["total"]  # stats: exempt
            c.ingest("feed", [(7, 3)], retries=3, backoff=0.01)
            assert admitted_ops == ["ingest", "ingest"]
            assert c.stats()["server"]["rejected"]["total"] == before + 1
            c.drain()
            assert c.query("SELECT total FROM bal WHERE acct = 7") == [{"total": 3}]

    def test_stats_exempt_from_admission(self, db):
        # observability must survive overload: with the only budget slot
        # held by a queued ingest, the ingest read next is turned away
        # and the stats frame read after it is still admitted and answered
        ingest = {"op": "ingest", "stream": "feed", "rows": [[1, 1]], "batch_id": None}
        with ReproServer(db, max_inflight_per_conn=1, max_inflight_total=1) as srv:
            sock = raw_connection(srv)
            try:
                send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
                recv_frame(sock)
                send_in_one_write(sock, [ingest, ingest, {"op": "stats", "section": "server"}])
                next_reply(sock)  # the queued ingest
                with pytest.raises(BackpressureError):
                    next_reply(sock)  # rejected without reaching the engine
                st = next_reply(sock)  # answered, not a BackpressureError
                assert st["rejected"]["by_op"] == {"ingest": 1}
            finally:
                sock.close()

    def test_idle_timeout_keeps_pipelined_frames_in_one_wakeup(self, db):
        # the idle timeout must not yield between frames already read:
        # the second of two pipelined ingests still meets a held budget
        ingest = {"op": "ingest", "stream": "feed", "rows": [[1, 1]], "batch_id": None}
        with ReproServer(db, max_inflight_per_conn=1, idle_timeout=5.0) as srv:
            sock = raw_connection(srv)
            try:
                send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
                recv_frame(sock)
                send_in_one_write(sock, [ingest, ingest])
                next_reply(sock)
                with pytest.raises(BackpressureError):
                    next_reply(sock)
            finally:
                sock.close()

    def test_budget_validation(self, db):
        with pytest.raises(ValueError):
            ReproServer(db, max_inflight_per_conn=0)


# ---------------------------------------------------------------------------
# Concurrency: server-assigned batch ids
# ---------------------------------------------------------------------------

class TestConcurrentClients:
    def test_concurrent_ingest_never_sees_batch_order_error(self, db, server):
        # regression (PR 6 sequencing over the wire): N clients ingesting
        # the same stream concurrently under server-assigned ids must
        # serialise in the server's job FIFO — ids never collide or reorder
        clients, errors = 4, []
        batches_each, rows_each = 10, 3

        def hammer(i):
            try:
                with client(server) as c:
                    for b in range(batches_each):
                        c.ingest("feed", [(i, 1)] * rows_each, retries=20)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        db.drain()
        feed = db.stats()["streaming"]["streams"]["feed"]
        assert feed["last_committed"] == clients * batches_each  # gapless sequence
        assert feed["pending_batches"] == []  # nothing stuck out of order
        assert db.query("SELECT sum(total) FROM bal") == [
            {"sum": clients * batches_each * rows_each}
        ]


# ---------------------------------------------------------------------------
# Partitioned engine behind the server
# ---------------------------------------------------------------------------

class TestPartitionedServer:
    @pytest.fixture
    def pdb(self):
        p = PartitionedDatabase(
            num_partitions=2,
            deploy=deploy,
            partition_keys={"feed": "acct", "bal": "acct"},
            workers="inline",
        )
        yield p
        p.close()

    def test_split_ingest_and_keyed_routing(self, pdb):
        with ReproServer(pdb) as srv:
            with client(srv) as c:
                assert c.partitioned is True
                ids = c.ingest("feed", [(a, 10) for a in range(8)])
                assert set(ids) == {0, 1}  # both partitions took a sub-batch
                assert all(isinstance(pid, int) for pid in ids)
                c.drain()
                rs = c.execute("SELECT total FROM bal WHERE acct = 3", key=3)
                assert rs.rows == [(10,)]
                assert sum(r[0] for r in c.execute("SELECT total FROM bal").rows) == 80
                assert c.stats()["routing"]["ingest_sub_batches"] == 2

    def test_executemany_requires_key_position(self, pdb):
        with ReproServer(pdb) as srv:
            with client(srv) as c:
                with pytest.raises(ProtocolError, match="key_position"):
                    c.executemany(
                        "INSERT INTO bal (acct, total) VALUES (?, ?)", [(1, 1)]
                    )
                n = c.executemany(
                    "INSERT INTO bal (acct, total) VALUES (?, ?)",
                    [(a, a) for a in range(6)],
                    key_position=0,
                )
                assert n == 6

    def test_keyed_call_and_stats_section(self, pdb):
        with ReproServer(pdb) as srv:
            with client(srv) as c:
                c.execute("INSERT INTO bal (acct, total) VALUES (?, ?)", (4, 9), key=4)
                st = c.stats()
                assert st["num_partitions"] == 2
                assert st["server"]["connections"]["active"] == 1
            # section detaches with the server
        assert "server" not in pdb.stats()


# ---------------------------------------------------------------------------
# The async client
# ---------------------------------------------------------------------------

class TestAsyncClient:
    def test_async_round_trip(self, server):
        async def go():
            c = await AsyncReproClient.connect(*server.address)
            assert c.server_info["protocol"] == PROTOCOL_VERSION
            assert await c.ping() == "pong"
            await c.ingest("feed", [(1, 2), (2, 4)])
            await c.drain()
            rs = await c.execute("SELECT total FROM bal WHERE acct = 2")
            assert rs.rows == [(4,)]
            st = await c.stats()
            assert st["server"]["requests"]["ingest"] == 1
            await c.close()

        asyncio.run(go())

    def test_async_pipelining_and_typed_errors(self, server):
        async def go():
            c = await AsyncReproClient.connect(*server.address)
            for i in range(4):
                await c.post({"op": "ingest", "stream": "feed",
                              "rows": [[i, 1]], "batch_id": None})
            got = [await c.collect() for _ in range(4)]
            assert got == [[1], [2], [3], [4]]  # FIFO: server-assigned ids in order
            with pytest.raises(BatchOrderError):
                await c.ingest("feed", [(9, 9)], batch_id=2)
            await c.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Lifecycle and stats plumbing
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_serve_helper_and_double_close(self, db):
        srv = serve(db)
        with client(srv) as c:
            assert c.ping() == "pong"
        srv.close()
        srv.close()  # idempotent
        with pytest.raises(ServerError):
            srv.start()  # a server is one lifecycle

    def test_server_runs_one_thread(self, db):
        # the loop thread reads frames and runs the engine: serving a
        # request adds exactly one thread, and close() joins it
        before = threading.active_count()
        srv = ReproServer(db).start()
        try:
            with client(srv) as c:
                c.ingest("feed", [(1, 1)])
                assert threading.active_count() == before + 1
        finally:
            srv.close()
        assert threading.active_count() == before

    def test_engine_stays_usable_after_close(self, db):
        srv = serve(db)
        with client(srv) as c:
            c.ingest("feed", [(1, 1)])
        srv.close()
        db.drain()
        assert db.query("SELECT total FROM bal WHERE acct = 1") == [{"total": 1}]

    def test_stats_section_hooks(self, db):
        db.add_stats_section("custom", lambda: {"x": 1})
        assert db.stats()["custom"] == {"x": 1}
        db.add_stats_section("custom", lambda: {"x": 2})  # replace
        assert db.stats()["custom"] == {"x": 2}
        db.remove_stats_section("custom")
        assert "custom" not in db.stats()
        db.remove_stats_section("custom")  # no-op

    def test_wire_framing_of_frames_is_shared(self, server):
        # the server speaks the exact framing of common/framing.py: a raw
        # socket driving frame helpers directly completes a full session
        sock = raw_connection(server)
        try:
            send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
            hello, _ = recv_frame(sock)
            assert hello["ok"] is True
            send_frame(sock, {"op": "ping"})
            pong, nbytes = recv_frame(sock)
            assert pong == {"ok": True, "value": "pong"}
            (length,) = struct.unpack(">I", HEADER.pack(nbytes - HEADER.size))
            assert length == nbytes - 4
        finally:
            sock.close()
