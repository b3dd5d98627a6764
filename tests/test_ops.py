"""Verb parity: the declared operation surface (``repro.common.ops``),
issued with one call against every engine shape.

The table below has one row per declared verb — a verb added to the
declaration without a row here fails ``test_every_declared_verb_has_a_row``
— and every row is issued, identically, against a plain ``Database``, an
inline ``PartitionedDatabase``, a ``ReproClient`` of each, and an
``AsyncReproClient``.  Results must agree (modulo ``ingest``'s and
``checkpoint``'s documented per-shape return shapes) and so must the state
the verb leaves behind.
"""

import asyncio
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.common.errors import PartitionError
from repro.common.ops import BY_NAME, EXEMPT_OPS, OPERATIONS, UNTRACED_OPS
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.partition import PartitionInfo, PartitionedDatabase
from repro.server import AsyncReproClient, ReproClient, ReproServer, protocol
from repro.storage.schema import schema

ACCOUNTS = 10
STATE_SQL = "SELECT acct, total FROM bal"


def deploy(db, part):
    db.create_stream(schema("feed", ("acct", T.INTEGER), ("amt", T.INTEGER)))
    db.create_table(
        schema("bal", ("acct", T.INTEGER, False), ("total", T.BIGINT, False),
               primary_key=["acct"])
    )
    db.executemany(
        "INSERT INTO bal (acct, total) VALUES (?, ?)",
        [(a, 0) for a in range(ACCOUNTS) if part.owns(a)],
    )

    @db.register_procedure
    def absorb(ctx, batch):
        for acct, amt in batch.rows:
            ctx.execute("UPDATE bal SET total = total + ? WHERE acct = ?", (amt, acct))

    db.create_workflow("flow", [("feed", "absorb")])

    @db.register_procedure
    def deposit(ctx, acct, amt):
        ctx.execute("UPDATE bal SET total = total + ? WHERE acct = ?", (amt, acct))
        return ctx.execute("SELECT total FROM bal WHERE acct = ?", (acct,)).rows[0][0]


def _same(value):
    return value


def _result_set(rs):
    return tuple(rs.columns), sorted(rs.rows), rs.rowcount


def _applied_batches(applied):
    # documented shapes: a list from one engine, {partition: ids} from many
    if isinstance(applied, dict):
        assert all(isinstance(pid, int) for pid in applied)
        return sorted({i for ids in applied.values() for i in ids})
    return sorted(applied)


def _checkpoint_written(paths):
    # documented shapes: one path from one engine, one per partition from many
    paths = paths if isinstance(paths, list) else [paths]
    assert paths and all(Path(p).is_file() for p in paths)
    return True


POINT = ("SELECT acct, total FROM bal WHERE acct = ?", (3,))

#: verb -> (positional args, keyword args, result normaliser)
CALLS = {
    "execute": (POINT, {"key": 3}, _result_set),
    "explain": (POINT, {"key": 3}, lambda info: (info["kind"], info["actual_rows"])),
    "executemany": (
        ("UPDATE bal SET total = ? WHERE acct = ?", [(5, a) for a in range(ACCOUNTS)]),
        {"key_position": 1},
        _same,
    ),
    "call": (("deposit", 3, 7), {"key": 3}, _same),
    "ingest": (("feed", [(a, 1) for a in range(ACCOUNTS)]), {}, _applied_batches),
    "drain": ((), {}, _same),
    "flush_log": ((), {}, _same),
    "checkpoint": ((), {}, _checkpoint_written),
    "analyze": (("bal",), {}, _same),
    "stats": (("probe",), {}, _same),
}


class Shapes:
    """The five engine shapes, each over its own fresh deployment."""

    def __init__(self, stack: ExitStack, tmp_path):
        def single(name):
            db = Database(
                recovery_dir=tmp_path / name,
                bootstrap=lambda db: deploy(db, PartitionInfo(0, 1)),
            )
            stack.callback(db.close)
            return db

        def partitioned(name):
            return stack.enter_context(
                PartitionedDatabase(
                    2, deploy, workers="inline", recovery_dir=tmp_path / name,
                    partition_keys={"feed": "acct", "bal": "acct"},
                )
            )

        def served(engine):
            server = stack.enter_context(ReproServer(engine))
            return server.address

        engines = [single("single"), partitioned("inline"), single("served"),
                   partitioned("served-partitioned"), single("async")]
        for engine in engines:
            engine.add_stats_section("probe", lambda: {"accounts": ACCOUNTS})
        self.sync = {
            "single": engines[0],
            "inline": engines[1],
            "client->single": stack.enter_context(ReproClient(*served(engines[2]))),
            "client->partitioned": stack.enter_context(ReproClient(*served(engines[3]))),
        }
        self.async_address = served(engines[4])

    def issue(self, verb, args=(), kwargs=None) -> dict:
        """``verb(*args, **kwargs)`` on every shape -> {shape: result}."""
        kwargs = kwargs or {}
        results = {
            shape: getattr(engine, verb)(*args, **kwargs)
            for shape, engine in self.sync.items()
        }

        async def on_the_loop():
            client = await AsyncReproClient.connect(*self.async_address)
            try:
                return await getattr(client, verb)(*args, **kwargs)
            finally:
                await client.close()

        results["async client"] = asyncio.run(on_the_loop())
        return results


@pytest.fixture
def shapes(tmp_path):
    with ExitStack() as stack:
        yield Shapes(stack, tmp_path)


def test_every_declared_verb_has_a_row():
    assert set(CALLS) == set(BY_NAME)


@pytest.mark.parametrize("op", OPERATIONS, ids=lambda op: op.name)
def test_verb_parity_across_engine_shapes(shapes, op):
    args, kwargs, normalise = CALLS[op.name]
    results = {s: normalise(r) for s, r in shapes.issue(op.name, args, kwargs).items()}
    assert all(r == results["single"] for r in results.values()), results
    state = {s: sorted(rs.rows) for s, rs in shapes.issue("execute", (STATE_SQL,)).items()}
    assert all(rows == state["single"] for rows in state.values()), state


def test_declaration_drives_every_layer():
    names = set(BY_NAME)
    assert protocol.OPS == names
    assert protocol.EXEMPT_OPS == EXEMPT_OPS == {
        op.name for op in OPERATIONS if op.admission_exempt
    }
    assert UNTRACED_OPS & names == {op.name for op in OPERATIONS if not op.traced}
    for op in OPERATIONS:
        for shape in (Database, PartitionedDatabase, ReproClient, AsyncReproClient):
            assert callable(getattr(shape, op.name, None)), (shape.__name__, op.name)


@pytest.mark.parametrize("op", OPERATIONS, ids=lambda op: op.name)
def test_record_and_caller_are_inverses(op):
    """What a client builds from a method call, the server turns back into
    the same method call."""
    args, kwargs, _ = CALLS[op.name]
    seen = []
    op.caller(lambda *a, **kw: seen.append((a, kw)))(op.record(args, kwargs))
    assert seen == [(tuple(args), kwargs)]


def test_record_rejects_what_the_engine_method_would():
    with pytest.raises(TypeError, match="positional"):
        BY_NAME["drain"].record((1,), {})
    with pytest.raises(TypeError, match="unexpected argument 'shard'"):
        BY_NAME["execute"].record(("SELECT 1",), {"shard": 0})
    with pytest.raises(TypeError, match="unexpected argument 'sql'"):
        BY_NAME["execute"].record(("SELECT 1",), {"sql": "SELECT 2"})
    # a generator of rows is materialised for the wire
    record = BY_NAME["ingest"].record(("feed", ((a, 1) for a in range(2))), {})
    assert record == {"op": "ingest", "stream": "feed", "rows": [(0, 1), (1, 1)]}


UPSERT = (
    "INSERT INTO bal (acct, total) VALUES (?, ?) "
    "ON CONFLICT (acct) DO UPDATE SET total = total + ? RETURNING acct, total"
)


def test_upsert_script_agrees_across_engine_shapes(shapes):
    script = [
        ("execute", (UPSERT, (3, 5, 5)), {"key": 3}, _result_set),  # update path
        ("execute", (UPSERT, (12, 7, 7)), {"key": 12}, _result_set),  # insert path
        ("executemany", (UPSERT, [(12, 1, 1), (4, 2, 2), (12, 1, 1), (13, 9, 9)]),
         {"key_position": 0}, _same),
    ]
    for verb, args, kwargs, normalise in script:
        results = {s: normalise(r) for s, r in shapes.issue(verb, args, kwargs).items()}
        assert all(r == results["single"] for r in results.values()), results
    assert results["single"] == 4
    state = {s: sorted(rs.rows) for s, rs in shapes.issue("execute", (STATE_SQL,)).items()}
    assert all(rows == state["single"] for rows in state.values()), state
    assert [r for r in state["single"] if r[1]] == [(3, 5), (4, 2), (12, 9), (13, 9)]


def test_unkeyed_upsert_is_refused_by_the_partitioned_facade():
    with PartitionedDatabase(2, deploy, workers="inline",
                             partition_keys={"feed": "acct", "bal": "acct"}) as pdb:
        with pytest.raises(PartitionError, match="cannot broadcast an INSERT"):
            pdb.execute(UPSERT, (3, 5, 5))
