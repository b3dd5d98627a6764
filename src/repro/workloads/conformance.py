"""Cross-engine conformance: one script, five engine shapes, one digest.

The harness replays a scenario's deterministic op script against each
shape and reduces the final contents of the scenario's output tables to
a SHA-256 digest over canonical JSON (rows sorted, tuples normalized).
The single-``Database`` run is the reference; any digest divergence, or
any scenario invariant violation, is an engine bug by definition —
ordering, exactly-once delivery, undo on abort, routing, the wire
protocol, and recovery replay all funnel into this one equality.

Shapes:

- ``single``      — one plain :class:`~repro.engine.Database`
- ``inline``      — :class:`PartitionedDatabase` with in-process workers
- ``process``     — :class:`PartitionedDatabase` with forked workers
- ``served``      — a single engine behind the asyncio TCP server,
  driven through :class:`~repro.server.ReproClient`
- ``recover``     — a durable single engine crashed (abandoned) halfway
  through the script after ``flush_log``, reopened with weak recovery,
  then fed the rest of the script
"""

from __future__ import annotations

import hashlib
import json
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.common.errors import TransactionAborted
from repro.engine import Database
from repro.partition import PartitionInfo, PartitionedDatabase
from repro.server import ReproClient, ReproServer
from repro.workloads.scenario import Op, Scenario

ALL_SHAPES = ("single", "inline", "process", "served", "recover")


@dataclass
class RunResult:
    shape: str
    digest: str
    tables: dict
    aborts: int
    violations: list


def _reader(engine) -> Callable[[str], list[tuple]]:
    # an unkeyed SELECT reads the whole table on every shape (a
    # partitioned engine fans it out and unions the partitions' rows)
    return lambda sql: [tuple(r) for r in engine.execute(sql).rows]


@contextmanager
def _served(db: Database):
    """A client of ``db`` behind the TCP server; owns all three lifetimes."""
    with closing(db), ReproServer(db) as server, ReproClient(*server.address) as client:
        yield client


# ---------------------------------------------------------------------------
# Script execution and digests
# ---------------------------------------------------------------------------


def run_ops(engine, ops: Sequence[Op]) -> int:
    """Replay the script against any engine shape — a ``Database``, a
    ``PartitionedDatabase`` or a ``ReproClient``; they share one operation
    surface.  Returns the count of expected aborts observed.

    An abort on an op not marked ``may_abort`` propagates — determinism
    violations must fail loudly, not be absorbed here.
    """
    aborts = 0
    for op in ops:
        if op.kind == "ingest":
            engine.ingest(op.target, [list(r) for r in op.rows])
        else:
            try:
                engine.call(op.target, *op.args, key=op.key)
            except TransactionAborted:
                if not op.may_abort:
                    raise
                aborts += 1
    engine.drain()
    return aborts


def state_digest(read: Callable[[str], list[tuple]], tables: Sequence[str]):
    """SHA-256 over the canonical JSON of each table's sorted rows."""
    snap = {t: sorted(read(f"SELECT * FROM {t}")) for t in tables}
    blob = json.dumps(snap, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode()).hexdigest(), snap


def _finish(scenario: Scenario, engine, ops, aborts, shape) -> RunResult:
    read = _reader(engine)
    digest, snap = state_digest(read, scenario.output_tables)
    violations = scenario.check(read, ops, aborts)
    return RunResult(
        shape=shape, digest=digest, tables=snap, aborts=aborts, violations=violations
    )


def _single_db(scenario: Scenario, **kwargs) -> Database:
    return Database(
        bootstrap=lambda db: scenario.deploy(db, PartitionInfo(0, 1)), **kwargs
    )


def run_shape(
    scenario: Scenario,
    ops: Sequence[Op],
    shape: str,
    *,
    partitions: int = 2,
    tmp_path=None,
    crash_at: Optional[int] = None,
    setup: Optional[Callable] = None,
) -> RunResult:
    """Run the script on one engine shape and return its :class:`RunResult`.

    ``setup(engine)`` runs before any ops (e.g. to pin ``force_join``).
    ``recover`` needs ``tmp_path``; ``crash_at`` overrides the default
    midpoint crash boundary.
    """
    if shape == "single":
        opened = closing(_single_db(scenario))
    elif shape in ("inline", "process"):
        opened = closing(
            PartitionedDatabase(
                partitions,
                scenario.deploy,
                partition_keys=scenario.partition_keys,
                workers=shape,
            )
        )
    elif shape == "served":
        opened = _served(_single_db(scenario))
    elif shape == "recover":
        return _run_recover(scenario, ops, tmp_path, crash_at, setup)
    else:
        raise ValueError(f"unknown engine shape {shape!r}")

    with opened as engine:
        if setup is not None:
            setup(engine)
        aborts = run_ops(engine, ops)
        return _finish(scenario, engine, ops, aborts, shape)


def _run_recover(scenario, ops, tmp_path, crash_at, setup) -> RunResult:
    if tmp_path is None:
        raise ValueError("the recover shape needs tmp_path for its log directory")
    d = str(tmp_path) + f"/conf-{scenario.name}"
    cut = len(ops) // 2 if crash_at is None else crash_at

    db = _single_db(scenario, recovery_dir=d, recovery="weak")
    if setup is not None:
        setup(db)
    aborts = run_ops(db, ops[:cut])
    db.flush_log()
    # crash: abandon the object — the on-disk log is the survivor

    with closing(_single_db(scenario, recovery_dir=d, recovery="weak")) as recovered:
        if setup is not None:
            setup(recovered)
        aborts += run_ops(recovered, ops[cut:])
        return _finish(scenario, recovered, ops, aborts, "recover")

