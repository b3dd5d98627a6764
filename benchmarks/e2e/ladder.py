"""The seven-rung layer ladder: what each layer adds, per input row.

The first L batches of the same seeded script are replayed **in-process**
through seven cumulative rungs.  Every public call into the system is
wrapped in a bench-side span (``repro.obs.Tracer``, so
``tools/tracetool.py`` renders ``out/trace-<workload>.jsonl``); a rung's cost
``C_k`` is its spans' busy microseconds per input item, and a layer's
cost is the difference between neighbouring rungs:

    R0  Table.insert_many on the stream's physical schema      storage
    R1  Database.ingest, streams only, no workflow             + engine
    R2  full deployment, in memory, ingest + drain             + streaming (and sql)
    R3  R2 + recovery_dir                                      + recovery
    R4  PartitionedDatabase x2, workers="inline"               + partition split/serde
    R5  PartitionedDatabase x2, workers="process"              + partition IPC
    R6  in-process ReproServer + ReproClient over R5           + server

R0/R1 replay the ingest ops only, so their denominator is ingested rows;
R2..R6 replay the whole script and divide by input items (rows + calls).
R2 is also the single-threaded baseline.  Nothing in ``src/`` is touched:
the numbers come from these spans, from public ``stats()`` counters and
from file sizes.

A replay is identical work into a fresh instance, and interference on a
shared box only ever adds time, in episodes of seconds — so the rungs are
replayed round-robin, ``ROUNDS`` times over (a rung's replays are then
seconds apart, and an episode costs different rungs in different rounds),
and ``C_k`` is the rung's **fastest** replay.  Timings are then divided by
the run's machine-speed factor (``fullstack.SpeedProbe``, sampled between
rungs), like the end-to-end ones.  The *count* metrics are read from the
first round only, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from fullstack import OUT_DIR, SpeedProbe, op_record, table_digest
from repro.common.errors import ReproError, TransactionAborted
from repro.common.framing import decode_payload, encode_frame
from repro.common.serde import decode_record, encode_record
from repro.engine import Database
from repro.obs import Tracer, write_jsonl
from repro.partition import PartitionedDatabase, PartitionInfo
from repro.server import ReproClient, ReproServer
from repro.server.protocol import error_reply, value_reply
from repro.storage.table import Table
from repro.workloads import state_digest
from repro.workloads.scenario import Op
from workloads import Workload, op_items

PARTITIONS = 2
ROUNDS = 3
NOOP_PROC = "e2e_noop"

now = time.perf_counter


def _nothing(*_args: Any) -> None:
    pass


@dataclass
class Rung:
    name: str
    make: Callable[[], "Handle"]
    ops: Sequence[Op]
    first: Callable[["Handle", int], None] = _nothing  # after the first replay
    last: Callable[["Handle"], None] = _nothing  # before the last instance closes


@dataclass
class Handle:
    """One rung's system instance, reduced to what a replay needs."""

    ingest: Callable[[str, list], Any]
    call: Callable[[str, tuple, Any], Any]
    finish: Callable[[], Any]
    read: Callable[[str], list[tuple]]
    stats: Callable[[], dict]
    close: Callable[[], None]
    engine: Any = None  # the object behind it, for rung-specific probes


class Ladder:
    def __init__(self, wl: Workload, seed: int, seconds: float, tmp: Path):
        self.wl = wl
        self.seed = seed
        self.tmp = tmp
        self.rung_s = seconds / 15.0  # one replay of R2, at the seed's rate
        probe = wl.script(0, 1)
        batches = max(2, round(wl.sat_items_per_s * self.rung_s / sum(map(op_items, probe))))
        t0 = now()
        self.ops = wl.script(seed, batches)
        self.gen_s = now() - t0
        self.batches = batches
        self.ingests = [op for op in self.ops if op.kind == "ingest"]
        self.rows = sum(len(op.rows) for op in self.ingests)
        self.items = sum(map(op_items, self.ops))
        self.busy_us: dict[str, float] = defaultdict(float)
        self.tracer = Tracer(capacity=1 << 15, process="bench", on_finish=self._on_finish)
        self.expected = table_digest(wl.model(self.ops), wl.scenario.output_tables)
        self.attempted = 0
        self.errors = 0
        self.mismatches: list[str] = []
        self.replies: list[dict] = []  # R4's real replies, for the codec metric
        self.probe = SpeedProbe(seconds)  # sampled between rungs, like between phases
        self._n = 0
        scratch = Database(bootstrap=self.deploy_single)
        names = sorted({op.target for op in self.ingests})
        self.stream_declared = [scratch.streaming.streams[n].declared for n in names]
        self.stream_schemas = {n: scratch.catalog.table(n).schema for n in names}

    def _on_finish(self, name: str, us: float) -> None:
        self.busy_us[name.split(".", 1)[0]] += us

    def _dir(self, tag: str) -> str:
        self._n += 1
        return str(self.tmp / f"{tag}-{self._n}")

    def deploy_single(self, db) -> None:
        self.wl.deploy(db, PartitionInfo(0, 1))

    # -- replaying ------------------------------------------------------------

    def replay(self, rung: str, h: Handle, ops: Sequence[Op], keep_replies: bool = False) -> int:
        """One pass of ``ops`` through ``h``, a span around every call;
        returns the expected aborts seen."""
        start = self.tracer.start
        aborts = 0
        for op in ops:
            reply = None
            if op.kind == "ingest":
                rows = [list(r) for r in op.rows]
                with start(f"{rung}.ingest", {"rows": len(rows)}):
                    reply = value_reply(h.ingest(op.target, rows))
            else:
                try:
                    with start(f"{rung}.call"):
                        reply = value_reply(h.call(op.target, op.args, op.key))
                except TransactionAborted as exc:
                    reply = error_reply(exc)
                    if op.may_abort:
                        aborts += 1
                    else:
                        self.errors += 1
                except ReproError as exc:
                    reply = error_reply(exc)
                    self.errors += 1
            if keep_replies:
                self.replies.append(reply)
        with start(f"{rung}.finish"):
            h.finish()
        return aborts

    def run_rounds(self, rungs: Sequence["Rung"]) -> dict[str, float]:
        """Every rung once per round, ``ROUNDS`` rounds; returns each
        rung's fastest replay in busy µs per input item.  A rung's
        ``first(h, aborts)`` sees its first-round instance after the
        replay (counts, digests); ``last(h)`` its final-round instance
        before it closes (probes that dirty it)."""
        best: dict[str, float] = {}
        for rnd in range(ROUNDS):
            for rung in rungs:
                denom = sum(map(op_items, rung.ops))
                # a replay much shorter than rung_s is repeated within the
                # round until the round's share of the rung's time is spent
                share = self.rung_s * 1e6 / 4
                spent = 0.0
                while True:
                    h = rung.make()
                    try:
                        before = self.busy_us[rung.name]
                        aborts = self.replay(
                            rung.name, h, rung.ops,
                            keep_replies=(rung.name == "R4" and rung.name not in best),
                        )
                        took = self.busy_us[rung.name] - before
                        if rung.name not in best:
                            # how many replays follow depends on the clock;
                            # the reported op count must not
                            self.attempted += len(rung.ops)
                            rung.first(h, aborts)
                        best[rung.name] = min(best.get(rung.name, took / denom), took / denom)
                        spent += took
                        done = spent >= share
                        if done and rnd == ROUNDS - 1:
                            rung.last(h)
                    finally:
                        h.close()
                    if done:
                        break
                self.probe.sample()
        return best

    def check_state(self, rung: str, h: Handle, aborts: int) -> None:
        digest, _snap = state_digest(h.read, self.wl.scenario.output_tables)
        if digest != self.expected:
            self.mismatches.append(f"{rung}: digest differs from the model")
        for violation in self.wl.scenario.check(h.read, self.ops, aborts):
            self.mismatches.append(f"{rung}: {violation}")

    # -- the rungs ------------------------------------------------------------

    def single(self, **kwargs) -> Handle:
        db = Database(bootstrap=self.deploy_single, **kwargs)
        return Handle(
            ingest=db.ingest,
            call=lambda name, args, key: db.call(name, *args),
            finish=(lambda: (db.drain(), db.flush_log())),
            read=lambda sql: [tuple(r) for r in db.execute(sql).rows],
            stats=db.stats,
            close=db.close,
            engine=db,
        )

    def partitioned(self, workers: str) -> Handle:
        pdb = PartitionedDatabase(
            PARTITIONS,
            self.wl.deploy,
            partition_keys=self.wl.scenario.partition_keys,
            workers=workers,
            recovery_dir=self._dir(workers),
            recovery="strong",
        )
        return Handle(
            ingest=pdb.ingest,
            call=lambda name, args, key: pdb.call(name, *args, key=key),
            finish=(lambda: (pdb.drain(), pdb.flush_log())),
            read=lambda sql: [tuple(r) for r in pdb.execute(sql).rows],
            stats=pdb.stats,
            close=pdb.close,
            engine=pdb,
        )

    def served(self) -> Handle:
        inner = self.partitioned("process")
        try:
            server = ReproServer(inner.engine).start()
            client = ReproClient(*server.address)
        except BaseException:
            inner.close()
            raise

        def close() -> None:
            client.close()
            server.close()
            inner.close()

        return Handle(
            ingest=client.ingest,
            call=lambda name, args, key: client.call(name, *args, key=key),
            finish=(lambda: (client.drain(), client.flush_log())),
            read=lambda sql: [tuple(r) for r in client.execute(sql).rows],
            stats=client.stats,
            close=close,
            engine=inner.engine,
        )

    def bare_tables(self) -> Handle:
        """R0: bare tables of the streams' physical schema (declared
        columns + batch id + sequence); the replay's rows are extended
        with that metadata outside the span."""
        tables = {name: Table(schema) for name, schema in self.stream_schemas.items()}
        batch_ids = {name: 0 for name in tables}

        def insert(target: str, rows: list) -> None:
            batch_ids[target] += 1
            b = batch_ids[target]
            tables[target].insert_many([(*row, b, seq) for seq, row in enumerate(rows)])

        return Handle(
            ingest=insert, call=None, finish=_nothing, read=None, stats=None, close=_nothing
        )

    def streams_only(self) -> Handle:
        """R1: the scenario's input streams in an otherwise empty engine."""
        db = Database()
        for declared in self.stream_declared:
            db.create_stream(declared)
        return Handle(
            ingest=db.ingest, call=None, finish=db.drain, read=None, stats=db.stats,
            close=db.close, engine=db,
        )

    # -- probes on a finished rung ---------------------------------------------

    def timed_loop(self, name: str, fn: Callable[[], Any], budget_s: float) -> float:
        """µs per call of ``fn``: the fastest of the 20-call rounds that
        fit ``budget_s``."""
        best, t0 = float("inf"), now()
        with self.tracer.start(name):
            while (t1 := now()) - t0 < budget_s:
                for _ in range(20):
                    fn()
                best = min(best, (now() - t1) / 20)
        return best * 1e6

    def codec(self) -> tuple[float, float]:
        """Encode + decode of every real request and reply record, once as
        a frame (client↔server hop) and once as a bare serde record
        (coordinator↔worker hop); returns (µs, wire bytes) per item."""
        records = [op_record(op) for op in self.ops]
        wire = 0
        t0 = now()
        with self.tracer.start("codec"):
            for record in records + self.replies:
                frame = encode_frame(record)
                decode_payload(frame[4:])
                decode_record(encode_record(record))
                wire += len(frame)
        return (now() - t0) * 1e6 / self.items, wire / self.items


def run_ladder(wl: Workload, seed: int, seconds: float, tmp: Path) -> dict[str, Any]:
    L = Ladder(wl, seed, seconds, tmp)
    m: dict[str, tuple[float, str]] = {"workloads.gen_s": (L.gen_s, "s")}
    batches = len(L.ingests)
    sim_us: list[float] = []

    # -- R2: the single-threaded baseline, and most of the counters ---------
    texts: list[str] = []

    def single_recording_texts() -> Handle:
        h = L.single()
        if not texts:  # statement texts reach the engine through prepare()
            prepare = h.engine.prepare
            h.engine.prepare = lambda sql: (texts.append(sql), prepare(sql))[1]
        return h

    def r2_counts(h: Handle, aborts: int) -> None:
        L.check_state("R2", h, aborts)
        s = h.stats()
        txn, sched = s["transactions"], s["streaming"]["scheduler"]
        in_streams = sum(st["rows"] for st in s["streaming"]["streams"].values())
        m["storage.rows_resident"] = (sum(t["rows"] for t in s["tables"].values()), "count")
        m["engine.stmts_per_row"] = (s["events"].get("sql_stmt", 0) / L.items, "count")
        m["engine.txns_per_batch"] = (txn["committed"] / batches, "count")
        m["engine.aborted_share"] = (txn["aborted"] / txn["begun"], "share")
        m["sql.rows_scanned_per_row"] = (s["counters"].get("rows_scanned", 0) / L.items, "count")
        m["sql.plan_cache_hit_rate"] = (s["plan_cache"]["hit_rate"], "share")
        m["streaming.deliveries_per_batch"] = (sched["delivered"] / batches, "count")
        m["streaming.rows_reclaimed_share"] = (
            sched["rows_reclaimed"] / max(1, sched["rows_reclaimed"] + in_streams),
            "share",
        )
        sim_us.append(s["sim_time_us"])

    def r2_probes(h: Handle) -> None:
        db = h.engine
        db.register_procedure(NOOP_PROC, lambda ctx: None)
        m["engine.txn_us"] = (L.timed_loop("probe.txn", lambda: db.call(NOOP_PROC), 0.2), "us")
        sql, params = wl.point_stmt
        m["sql.point_stmt_us"] = (
            L.timed_loop("probe.point_stmt", lambda: db.execute(sql, params), 0.2),
            "us",
        )
        distinct = sorted(set(texts))

        def prepare_all_cold() -> None:
            db.plan_cache.clear()
            for text in distinct:
                db.prepare(text)

        t0, best = now(), float("inf")
        with L.tracer.start("probe.prepare"):
            while (t1 := now()) - t0 < 0.2:
                prepare_all_cold()
                best = min(best, now() - t1)
        m["sql.prepare_us_per_stmt"] = (best * 1e6 / len(distinct), "us")

    # -- R3: + durability; replay both ways from its directory --------------
    r3_dirs: list[str] = []

    def durable() -> Handle:
        r3_dirs.append(L._dir("r3"))
        return L.single(recovery_dir=r3_dirs[-1], recovery="strong")

    def r3_counts(h: Handle, aborts: int) -> None:
        L.check_state("R3", h, aborts)
        log = h.stats()["recovery"]["log"]
        size = sum(f.stat().st_size for f in Path(r3_dirs[0]).rglob("*") if f.is_file())
        m["recovery.log_bytes_per_row"] = (size / L.items, "B")
        m["recovery.fsyncs_per_batch"] = (log["flushes"] / batches, "count")

    def r3_replays(h: Handle) -> None:
        for mode in ("strong", "weak"):
            t0 = now()
            with L.tracer.start(f"replay.{mode}"):
                db = Database(
                    recovery_dir=r3_dirs[-1], recovery=mode, readonly=True,
                    bootstrap=L.deploy_single,
                )
            m[f"recovery.{mode}_replay_us_per_row"] = ((now() - t0) * 1e6 / L.items, "us")
            digest = state_digest(
                lambda sql: [tuple(r) for r in db.execute(sql).rows],
                wl.scenario.output_tables,
            )[0]
            if digest != L.expected:
                L.mismatches.append(f"R3: {mode} replay differs from the model")
        t0 = now()
        with L.tracer.start("checkpoint"):
            h.engine.checkpoint()
        m["recovery.checkpoint_s"] = (now() - t0, "s")

    # -- R4/R5: partitioned, inline then forked ------------------------------
    def r4_counts(h: Handle, aborts: int) -> None:
        L.check_state("R4", h, aborts)
        s = h.stats()
        routing = s["routing"]
        m["partition.sub_batches_per_batch"] = (
            routing["ingest_sub_batches"] / routing["ingest_batches"],
            "count",
        )
        per = [
            sum(st["rows"] + st["rows_reclaimed"] for st in p["streaming"]["streams"].values())
            for p in s["partitions"]
        ]
        m["partition.skew_x"] = (max(per) * len(per) / sum(per), "x")

    # -- R6: the whole stack --------------------------------------------------
    def r6_counts(h: Handle, aborts: int) -> None:
        L.check_state("R6", h, aborts)
        srv = h.stats("server")
        m["server.bytes_in_per_row"] = (srv["bytes"]["in"] / L.items, "B")
        m["server.bytes_out_per_row"] = (srv["bytes"]["out"] / L.items, "B")
        m["server.rejected"] = (srv["rejected"]["total"], "count")

    c = L.run_rounds(
        [
            Rung("R0", L.bare_tables, L.ingests),
            Rung("R1", L.streams_only, L.ingests),
            Rung("R2", single_recording_texts, L.ops, r2_counts, r2_probes),
            Rung("R3", durable, L.ops, r3_counts, r3_replays),
            Rung("R4", lambda: L.partitioned("inline"), L.ops, r4_counts),
            Rung("R5", lambda: L.partitioned("process"), L.ops,
                 lambda h, a: L.check_state("R5", h, a)),
            Rung("R6", L.served, L.ops, r6_counts),
            # R2 again with the engine's own observability on
            Rung("obs_metrics", lambda: L.single(obs="metrics"), L.ops),
            Rung("obs_full", lambda: L.single(obs="full"), L.ops),
        ]
    )

    codec_us, wire = L.codec()
    m["common.codec_us_per_row"] = (codec_us, "us")
    m["common.wire_bytes_per_row"] = (wire, "B")
    m["common.sim_over_wall_x"] = (sim_us[0] / (c["R2"] * L.items), "x")
    m["obs.metrics_overhead_x"] = (c["obs_metrics"] / c["R2"], "x")
    m["obs.full_overhead_x"] = (c["obs_full"] / c["R2"], "x")
    m["storage.insert_us_per_row"] = (c["R0"], "us")
    m["engine.ingest_us_per_row"] = (c["R1"] - c["R0"], "us")
    m["streaming.dataflow_us_per_row"] = (c["R2"] - c["R1"], "us")
    m["recovery.log_us_per_row"] = (c["R3"] - c["R2"], "us")
    m["partition.split_us_per_row"] = (c["R4"] - c["R3"], "us")
    m["partition.ipc_us_per_row"] = (c["R5"] - c["R4"], "us")
    m["server.frontdoor_us_per_row"] = (c["R6"] - c["R5"], "us")
    m["server.stack_us_per_row"] = (c["R6"], "us")

    # timings as the quiet reference box would have measured them (README, "Noise")
    speed = L.probe.factor()
    m = {k: (v / speed if u in ("us", "s") else v, u) for k, (v, u) in m.items()}

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}.jsonl"
    write_jsonl(str(trace_path), L.tracer.drain())
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
        "attempted": L.attempted,
        "failed": L.errors,
        "digest": L.expected,
        "gate": {"rungs_match_model": not L.mismatches, "violations": L.mismatches[:5]},
        "counts": {"batches": L.batches, "items": L.items, "ingested_rows": L.rows},
        "detail": {
            "speed_factor": speed,
            "rung_us_per_row": {
                k: c[k] / speed for k in ("R0", "R1", "R2", "R3", "R4", "R5", "R6")
            },
            "trace": str(trace_path.relative_to(OUT_DIR.parent)),
        },
    }
