"""The stats-section contract on both engine facades and over the wire:
registration, shadowing, degradation, and selective ``stats(section=)``."""

import pytest

from repro.common.errors import ServerError
from repro.common.types import ColumnType as T
from repro.engine import Database
from repro.partition import PartitionedDatabase
from repro.server import ReproClient, ReproServer
from repro.storage.schema import schema


def fresh_db():
    return Database()


def part_deploy(db, part):
    db.create_stream(schema("feed", ("k", T.INTEGER), ("v", T.INTEGER)))


def fresh_pdb():
    return PartitionedDatabase(
        2, part_deploy, partition_keys={"feed": "k"}, workers="inline"
    )


def facades():
    """Both stats facades under one id-labelled parametrisation."""
    return [
        pytest.param(fresh_db, id="database"),
        pytest.param(fresh_pdb, id="partitioned"),
    ]


def close(db):
    if hasattr(db, "close"):
        db.close()


# -- registration behaviour, identical on both facades ------------------------


@pytest.mark.parametrize("make", facades())
def test_registered_section_appears_in_snapshot_and_selectively(make):
    db = make()
    try:
        db.add_stats_section("custom", lambda: {"answer": 42})
        assert db.stats()["custom"] == {"answer": 42}
        assert db.stats(section="custom") == {"answer": 42}
    finally:
        close(db)


@pytest.mark.parametrize("make", facades())
def test_registered_section_shadows_builtin(make):
    db = make()
    try:
        assert isinstance(db.stats()["transactions"], dict)  # a real built-in
        db.add_stats_section("transactions", lambda: "shadowed")
        assert db.stats()["transactions"] == "shadowed"
        assert db.stats(section="transactions") == "shadowed"
        db.remove_stats_section("transactions")
        assert isinstance(db.stats()["transactions"], dict)  # built-in restored
    finally:
        close(db)


@pytest.mark.parametrize("make", facades())
def test_raising_thunk_degrades_without_breaking_stats(make):
    db = make()
    try:
        db.add_stats_section("boom", lambda: 1 // 0)
        snap = db.stats()
        assert snap["boom"] == {
            "error": "ZeroDivisionError: integer division or modulo by zero"
        }
        # the rest of the snapshot survived
        assert "transactions" in snap
        assert db.stats(section="boom")["error"].startswith("ZeroDivisionError")
    finally:
        close(db)


@pytest.mark.parametrize("make", facades())
def test_reregistration_replaces_and_removal_is_idempotent(make):
    db = make()
    try:
        db.add_stats_section("v", lambda: 1)
        db.add_stats_section("v", lambda: 2)
        assert db.stats(section="v") == 2
        db.remove_stats_section("v")
        db.remove_stats_section("v")  # absent: no-op
        with pytest.raises(KeyError):
            db.stats(section="v")
    finally:
        close(db)


@pytest.mark.parametrize("make", facades())
def test_unknown_section_raises_keyerror_naming_known_sections(make):
    db = make()
    try:
        with pytest.raises(KeyError, match="transactions"):
            db.stats(section="no_such_section")
    finally:
        close(db)


# -- selective fetch returns the same data as the full snapshot ---------------


def test_database_selective_sections_match_full_snapshot():
    db = fresh_db()
    db.create_stream(schema("s", ("v", T.INTEGER)))
    db.ingest("s", [(1,), (2,)])
    full = db.stats()
    for name in ("transactions", "streaming", "tables", "counters"):
        assert db.stats(section=name) == full[name]


def test_partitioned_selective_sections_match_full_snapshot():
    pdb = fresh_pdb()
    try:
        pdb.ingest("feed", [(k, k) for k in range(8)])
        full = pdb.stats()
        for name in ("transactions", "table_rows", "num_partitions", "partitions"):
            assert pdb.stats(section=name) == full[name]
    finally:
        pdb.close()


# -- over the wire ------------------------------------------------------------


def test_server_stats_section_over_the_wire():
    db = fresh_db()
    db.create_stream(schema("s", ("v", T.INTEGER)))
    with ReproServer(db, port=0) as server:
        with ReproClient(*server.address) as client:
            client.ingest("s", [(1,)])
            section = client.stats(section="transactions")
            assert section["committed"] >= 1
            # the server front door registers its own section on the engine
            assert client.stats(section="server")["requests"]["ingest"] == 1
            # unknown sections cross as a (foreign) KeyError -> ServerError
            with pytest.raises(ServerError, match="no_such"):
                client.stats(section="no_such")
            # full snapshot still includes every section plus the server's
            full = client.stats()
            assert "transactions" in full and "server" in full
