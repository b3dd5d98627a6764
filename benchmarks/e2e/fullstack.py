"""End-to-end phases against the served stack, and the load generator.

    setup x3 - sat 1 - CRASH - recover x5 - paced 1 - sat 2 - paced 2 ... paced 6

One thread, one asyncio loop, two connections.  The *writer* sends every
state-changing op in script order (so the final state is a function of
the seed alone): closed loop and pipelined in the saturate chunks, open
loop at a fixed absolute rate in the paced chunks.  The *reader* works
in the paced chunks only: keyed point reads and — on the workloads whose
script has no calls — keyed read-only procedure calls.  Op counts are
fixed by ``--seconds`` and the sizing constants in ``workloads.py``;
nothing is derived from a measurement taken in the same run, so counts
and digests repeat exactly.

Why chunks, repeats and a speed factor instead of two long phases and
raw values: README, "Noise on the reference box".
"""

from __future__ import annotations

import asyncio
import bisect
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.common.errors import BackpressureError, ReproError, TransactionAborted
from repro.server import AsyncReproClient, ReproClient
from repro.workloads import state_digest
from repro.workloads.scenario import Op
from workloads import (
    PROBE_CALLS_PER_S,
    PROBE_PROC,
    READS_PER_S,
    WARMUP_BATCHES,
    Workload,
    op_items,
)

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
RECOVERIES = 5  # recovery_s is the fastest of this many crash → ready times
CHUNKS = 6  # saturate and paced work alternate in this many chunks each
SATURATE_SHARE = 0.4  # of --seconds; the paced chunks take the rest
PIPELINE_DEPTH = 4  # saturate: writer requests in flight
SEGMENTS_PER_CHUNK = 4  # equal-work throughput segments per saturate chunk
SPAWN_TIMEOUT_S = 60.0
PHASE_TIMEOUT_S = 60.0

now = time.perf_counter


class SpeedProbe:
    """How fast is this machine *during this run*, relative to the
    reference box when quiet?

    The sandbox's CPU is shared: for minutes at a time everything runs up
    to 1.5x slower, the slowdown arriving in bursts of milliseconds
    (README, "Noise").  No estimator inside a 20 s run can average that
    away, so the run measures it: between phases — never while the system
    under test is working — ``sample()`` spins a fixed pure-Python loop
    for ``seconds / 300`` and records the mean time per unit.  ``factor()`` is
    the run's mean unit time over ``REFERENCE_UNIT_S``; every *timed*
    metric is reported divided by it (rates multiplied), i.e. as the
    quiet reference box would have measured it.  The raw values and the
    factor are kept beside the reported ones in the result's detail.
    """

    REFERENCE_UNIT_S = 1.25e-3  # 20k iterations on the quiet reference box

    def __init__(self, seconds: float) -> None:
        self.sample_s = seconds / 300.0
        self.samples: list[float] = []

    def sample(self) -> None:
        units, t0 = 0, now()
        while True:
            x = 0
            for i in range(20_000):
                x += i * i % 7
            units += 1
            elapsed = now() - t0
            if elapsed >= self.sample_s:
                self.samples.append(elapsed / units)
                return

    def factor(self) -> float:
        return statistics.fmean(self.samples) / self.REFERENCE_UNIT_S


class PhaseTimeout(Exception):
    """A phase overran its budget; the run has no result."""


# ---------------------------------------------------------------------------
# the server subprocess
# ---------------------------------------------------------------------------


def group_pids(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid`` — the server and its
    workers.  Zombies are skipped: a killed worker is re-parented to init
    and may wait there a second to be reaped, holding nothing."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue  # exited between listdir and open
        # fields after the parenthesised comm: state ppid pgrp ...
        fields = stat[stat.rindex(b")") + 2 :].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            pids.append(int(entry))
    return pids


class Server:
    """``serve.py`` in its own session; killed by group, never closed."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int):
        self.proc = proc
        self.port = port

    @classmethod
    async def spawn(cls, workload: str, recovery_dir: Path) -> "Server":
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            str(HERE / "serve.py"),
            "--workload",
            workload,
            "--recovery-dir",
            str(recovery_dir),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            start_new_session=True,
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), SPAWN_TIMEOUT_S)
            words = line.split()
            if len(words) != 2 or words[0] != b"READY":
                raise RuntimeError(f"server did not come up (said {line!r})")
        except BaseException:
            await cls(proc, 0).kill()
            raise
        return cls(proc, int(words[1]))

    def peak_rss_mb(self) -> float:
        """Σ VmHWM over the server and its workers, in MiB."""
        total_kb = 0
        for pid in group_pids(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue  # exited since the scan
        return total_kb / 1024.0

    async def kill(self) -> None:
        """SIGKILL the whole group and wait until every member is gone."""
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await self.proc.wait()
        deadline = now() + 10.0
        while group_pids(pgid) and now() < deadline:
            await asyncio.sleep(0.01)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def op_record(op: Op) -> dict[str, Any]:
    if op.kind == "ingest":
        return {
            "op": "ingest",
            "stream": op.target,
            "rows": [list(r) for r in op.rows],
            "batch_id": None,
        }
    return {"op": "call", "proc": op.target, "args": list(op.args), "key": op.key}


@dataclass
class Tally:
    """What happened to the run's requests (both connections add to it)."""

    attempted: int = 0
    aborts: int = 0  # expected (``may_abort``) aborts — not failures
    errors: int = 0
    rejected: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.rejected


async def collect_reply(client: AsyncReproClient, may_abort: bool, tally: Tally) -> None:
    try:
        await client.collect()
    except TransactionAborted:
        if may_abort:
            tally.aborts += 1
        else:
            tally.errors += 1
    except BackpressureError:
        tally.rejected += 1
    except ReproError:
        tally.errors += 1


# ---------------------------------------------------------------------------
# saturate: closed loop, fixed work, pipelined
# ---------------------------------------------------------------------------


async def saturate(client: AsyncReproClient, ops: Sequence[Op], tally: Tally) -> list[float]:
    """Send ``ops`` ``PIPELINE_DEPTH`` deep; return items/s per segment.

    The chunk is cut into ``SEGMENTS_PER_CHUNK`` equal shares of its input
    items; a segment ends when the reply to its last op arrives, the last
    one at the replies to ``drain`` + ``flush_log``.
    """
    records = [op_record(op) for op in ops]
    items = [op_items(op) for op in ops]
    total = sum(items)
    bounds, acc, k = [], 0, 1
    for i, n in enumerate(items):
        acc += n
        while k < SEGMENTS_PER_CHUNK and acc >= total * k / SEGMENTS_PER_CHUNK:
            bounds.append(i)
            k += 1
    bounds.append(len(ops) - 1)
    seg_ends: list[float] = []
    inflight: deque[int] = deque()

    async def collect_one() -> None:
        i = inflight.popleft()
        await collect_reply(client, ops[i].may_abort, tally)
        while len(seg_ends) < SEGMENTS_PER_CHUNK - 1 and bounds[len(seg_ends)] == i:
            seg_ends.append(now())

    t0 = now()
    for i, record in enumerate(records):
        while len(inflight) >= PIPELINE_DEPTH:
            await collect_one()
        await client.post(record)
        inflight.append(i)
    while inflight:
        await collect_one()
    await client.request({"op": "drain"})
    await client.request({"op": "flush_log"})
    seg_ends.append(now())
    tally.attempted += len(ops)

    rates, start, first = [], t0, 0
    for end, last in zip(seg_ends, bounds):
        rates.append(sum(items[first : last + 1]) / (end - start))
        start, first = end, last + 1
    return rates


# ---------------------------------------------------------------------------
# paced: open loop at a fixed rate, latency from the due time
# ---------------------------------------------------------------------------


@dataclass
class Lane:
    """One connection's schedule for one paced chunk, and what came back."""

    due: list[float]  # seconds after the chunk start
    records: list[dict[str, Any]]
    kinds: list[str]  # "ingest" | "call" | "read"
    may_abort: list[bool]
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)

    def latencies_ms(self, kind: str) -> list[float]:
        return sorted(
            (done - due) * 1e3
            for due, done, k in zip(self.due, self.done, self.kinds)
            if k == kind
        )


async def run_lane(
    client: AsyncReproClient, lane: Lane, t0: float, budget: int, tally: Tally
) -> None:
    """Post each request at its due time whatever is still outstanding —
    up to the server's advertised per-connection budget, beyond which a
    well-behaved client waits (the wait is charged to latency, which runs
    from the due time)."""
    queue: asyncio.Queue = asyncio.Queue()
    slots = asyncio.Semaphore(budget)
    lane.sent = [0.0] * len(lane.due)
    lane.done = [0.0] * len(lane.due)

    async def collector() -> None:
        while (i := await queue.get()) is not None:
            await collect_reply(client, lane.may_abort[i], tally)
            lane.done[i] = now() - t0
            slots.release()

    task = asyncio.ensure_future(collector())
    try:
        for i, due in enumerate(lane.due):
            delay = t0 + due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            await slots.acquire()
            lane.sent[i] = now() - t0
            await client.post(lane.records[i])
            queue.put_nowait(i)
        queue.put_nowait(None)
        await task
    finally:
        task.cancel()
    tally.attempted += len(lane.due)


def backlog(lane: Lane, budget: int) -> tuple[bool, float, int]:
    """Is the backlog (requests due but not yet answered) still growing?

    Sampled at every due time.  At an unsustainable rate it grows linearly
    for as long as the chunk lasts, so *growing* means its last quarter
    averaged more than twice its first half and more than half the
    connection's in-flight budget.  Returns ``(growing, mean backlog,
    backlog at the last due time)``.
    """
    done_sorted = sorted(lane.done)
    depth = [
        i + 1 - bisect.bisect_right(done_sorted, due) for i, due in enumerate(lane.due)
    ]
    early = statistics.fmean(depth[: max(1, len(depth) // 2)])
    late = statistics.fmean(depth[-max(1, len(depth) // 4) :])
    return late > 2 * early and late > budget / 2, statistics.fmean(depth), depth[-1]


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def latency(lanes: Sequence[Lane], kind: str) -> dict[str, float]:
    """Latency (ms, from the due time) of one request kind.

    Each paced chunk is one window; p50 and p95 are taken per window and
    the reported value is the **lower quartile over the windows**.
    Interference on a shared box only ever adds latency, in episodes of
    seconds; the chunks are seconds apart, so a quiet window exists in
    almost every run and the lower quartile finds it.
    """
    windows = [w for w in (lane.latencies_ms(kind) for lane in lanes) if w]
    flat = sorted(x for w in windows for x in w)
    p50s = [percentile(w, 0.50) for w in windows]
    p95s = [percentile(w, 0.95) for w in windows]
    return {
        "p50": percentile(sorted(p50s), 0.25),
        "p95": percentile(sorted(p95s), 0.25),
        "whole_p50": percentile(flat, 0.50),
        "whole_p95": percentile(flat, 0.95),
        "max": flat[-1],
        "samples": len(flat),
        "window_p50": p50s,
        "window_p95": p95s,
    }


def writer_lane(ops: Sequence[Op], rate: float) -> Lane:
    due, acc = [], 0
    for op in ops:
        due.append(acc / rate)
        acc += op_items(op)
    return Lane(
        due=due,
        records=[op_record(op) for op in ops],
        kinds=[op.kind for op in ops],
        may_abort=[op.may_abort for op in ops],
    )


def reader_lane(wl: Workload, keys: Sequence[tuple], duration: float) -> Lane:
    """Point reads at ``READS_PER_S``, merged (where the script has no
    calls of its own) with probe calls at ``PROBE_CALLS_PER_S``."""
    n_reads = int(duration * READS_PER_S)
    n_calls = 0 if wl.script_has_calls else int(duration * PROBE_CALLS_PER_S)
    events = [(j / READS_PER_S, "read", keys[j]) for j in range(n_reads)]
    # offset by half a period so a call never shares a due time with a read
    events += [
        ((j + 0.5) / PROBE_CALLS_PER_S, "call", keys[n_reads + j])
        for j in range(n_calls)
    ]
    events.sort()
    records = [
        {"op": "execute", "sql": wl.read_sql, "params": [param], "key": route}
        if kind == "read"
        else {"op": "call", "proc": PROBE_PROC, "args": [param], "key": route}
        for _due, kind, (param, route) in events
    ]
    return Lane(
        due=[e[0] for e in events],
        records=records,
        kinds=[e[1] for e in events],
        may_abort=[False] * len(events),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def table_digest(tables: dict[str, list[tuple]], names: Sequence[str]) -> str:
    """``state_digest`` over in-memory tables (the model's output)."""
    return state_digest(lambda sql: tables[sql.rsplit(" ", 1)[1]], names)[0]


def verify(wl: Workload, port: int, ops: Sequence[Op], aborts: int) -> tuple[str, list[str], int]:
    """Digest of the output tables and the scenario's invariant check,
    both read through a fresh client.  Returns ``(digest, violations,
    resident output rows)``."""
    with ReproClient("127.0.0.1", port) as client:

        def read(sql: str) -> list[tuple]:
            return [tuple(r) for r in client.execute(sql).rows]

        digest, snap = state_digest(read, wl.scenario.output_tables)
        violations = wl.scenario.check(read, ops, aborts)
    return digest, violations, sum(len(rows) for rows in snap.values())


# ---------------------------------------------------------------------------
# one workload, end to end
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Op counts for one run, all fixed by ``--seconds``.

    The script is laid out ``warmup | sat 1 | paced 1 | sat 2 | ... |
    paced CHUNKS``; the crash comes after ``sat 1``.  Saturate chunks share
    ``SATURATE_SHARE`` of ``--seconds`` (at the seed's rate), paced chunks
    the rest (exactly, at the fixed paced rate).
    """

    warmup_ops: int
    sat_ops: int  # per chunk
    paced_ops: int  # per chunk
    batches: int
    paced_s: float  # per chunk

    @classmethod
    def of(cls, wl: Workload, seconds: float) -> "Sizes":
        probe = wl.script(0, 1)
        ops_per_batch = len(probe)
        items_per_batch = sum(op_items(op) for op in probe)
        sat_s = seconds * SATURATE_SHARE / CHUNKS
        paced_s = seconds * (1 - SATURATE_SHARE) / CHUNKS
        # whole segments' worth of batches, so segments are equal work
        sat = SEGMENTS_PER_CHUNK * max(
            1, round(wl.sat_items_per_s * sat_s / items_per_batch / SEGMENTS_PER_CHUNK)
        )
        paced = max(2, round(wl.paced_items_per_s * paced_s / items_per_batch))
        return cls(
            warmup_ops=WARMUP_BATCHES * ops_per_batch,
            sat_ops=sat * ops_per_batch,
            paced_ops=paced * ops_per_batch,
            batches=WARMUP_BATCHES + CHUNKS * (sat + paced),
            paced_s=paced * items_per_batch / wl.paced_items_per_s,
        )

    def layout(self) -> list[tuple[str, int, int]]:
        """``(phase, first op, end op)`` for every chunk after the warm-up."""
        out, at = [], self.warmup_ops
        for _ in range(CHUNKS):
            for phase, n in (("saturate", self.sat_ops), ("paced", self.paced_ops)):
                out.append((phase, at, at + n))
                at += n
        return out


async def within(coro, what: str, timeout: float = PHASE_TIMEOUT_S):
    try:
        return await asyncio.wait_for(coro, timeout)
    except asyncio.TimeoutError:
        raise PhaseTimeout(f"{what} exceeded {timeout:.0f}s") from None


async def set_up(wl: Workload, seed: int, sizes: Sizes, tmp: Path, tally: Tally):
    """Everything before the first timed op: generate the script, spawn
    the server, deploy, handshake both connections, warm up."""
    t0 = now()
    script = wl.script(seed, sizes.batches)
    gen_s = now() - t0
    server = await Server.spawn(wl.name, tmp)
    try:
        writer = await AsyncReproClient.connect("127.0.0.1", server.port)
        reader = await AsyncReproClient.connect("127.0.0.1", server.port)
        for op in script[: sizes.warmup_ops]:
            await writer.post(op_record(op))
            await collect_reply(writer, op.may_abort, tally)
        tally.attempted += sizes.warmup_ops
    except BaseException:
        await server.kill()
        raise
    return script, server, writer, reader, now() - t0, gen_s


async def recover(wl: Workload, tmp: Path, rss: list[float], probe: SpeedProbe):
    """Crash → ready, ``RECOVERIES`` times over the same pre-crash log.

    A recovery rewrites its directory (checkpoint + truncated log), so all
    but the last run on copies taken right after the crash; the last runs
    in place and its server carries the rest of the run.  Returns the
    server, its two connections and every spawn → handshake time.
    """
    copies = [tmp.with_name(f"{tmp.name}-copy{k}") for k in range(RECOVERIES - 1)]
    for copy in copies:
        shutil.copytree(tmp, copy)
    times = []
    for directory in [*copies, tmp]:
        t0 = now()
        server = await within(Server.spawn(wl.name, directory), "recovery")
        try:
            writer = await AsyncReproClient.connect("127.0.0.1", server.port)
            times.append(now() - t0)
            probe.sample()
            if directory is not tmp:
                rss.append(server.peak_rss_mb())
        finally:
            if directory is not tmp:
                await server.kill()
    reader = await AsyncReproClient.connect("127.0.0.1", server.port)
    return server, writer, reader, times


async def run_workload(wl: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Setup, then the chunks in script order with the crash after the
    first saturate chunk; returns metrics, detail and the gate's verdicts."""
    sizes = Sizes.of(wl, seconds)
    layout = sizes.layout()
    probe = SpeedProbe(seconds)
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=f"run-{wl.name}-", dir=OUT_DIR))
    server: Optional[Server] = None
    tally = Tally()
    rates: list[float] = []
    chunks: list[tuple[Lane, Lane]] = []
    rss: list[float] = []
    phase_s: dict[str, float] = {}
    mark = now()

    def lap(phase: str) -> None:
        nonlocal mark
        phase_s[phase] = phase_s.get(phase, 0.0) + now() - mark
        probe.sample()
        mark = now()

    try:
        # -- setup (repeated; the last one is kept) -------------------------
        setups = []
        probe.sample()
        for rep in range(SETUP_REPEATS):
            if server is not None:
                await server.kill()
            tmp = tmp_root / f"rec{rep}"
            script, server, writer, reader, setup_s, gen_s = await within(
                set_up(wl, seed, sizes, tmp, tally if rep == SETUP_REPEATS - 1 else Tally()),
                "setup",
            )
            setups.append(setup_s)
            probe.sample()
        lap("setup")
        per_chunk_keys = int(sizes.paced_s * (READS_PER_S + PROBE_CALLS_PER_S)) + 1
        keys = wl.read_keys(script, seed, CHUNKS * per_chunk_keys)
        budget = int(writer.server_info["max_inflight_per_conn"])

        for n, (phase, a, b) in enumerate(layout):
            if phase == "saturate":
                rates += await within(saturate(writer, script[a:b], tally), "saturate")
            else:
                lanes = (
                    writer_lane(script[a:b], wl.paced_items_per_s),
                    reader_lane(wl, keys[len(chunks) * per_chunk_keys :], sizes.paced_s),
                )
                t0 = now() + 0.02
                await within(
                    asyncio.gather(
                        run_lane(writer, lanes[0], t0, budget, tally),
                        run_lane(reader, lanes[1], t0, budget, tally),
                    ),
                    "paced",
                    sizes.paced_s + PHASE_TIMEOUT_S,
                )
                chunks.append(lanes)
            lap(phase)
            if n == 0:
                # -- crash after the first saturate chunk, and recover -------
                digest_pre, bad_pre, _rows = verify(wl, server.port, script[:b], tally.aborts)
                rss.append(server.peak_rss_mb())
                await server.kill()
                server = None
                server, writer, reader, recoveries = await recover(wl, tmp, rss, probe)
                digest_post, bad_post, _rows = verify(wl, server.port, script[:b], tally.aborts)
                lap("crash+recover")

        await writer.request({"op": "drain"})
        await writer.request({"op": "flush_log"})
        digest_end, bad_end, rows_end = verify(wl, server.port, script, tally.aborts)
        rss.append(server.peak_rss_mb())
    finally:
        if server is not None:
            await server.kill()
        shutil.rmtree(tmp_root, ignore_errors=True)
    lap("verify+teardown")

    writers = [w for w, _r in chunks]
    readers = [r for _w, r in chunks]
    ingest = latency(writers, "ingest")
    read = latency(readers, "read")
    call = latency(writers if wl.script_has_calls else readers, "call")
    late = sorted((s - d) * 1e3 for w in writers for s, d in zip(w.sent, w.due))
    backlogs = [backlog(w, budget) for w in writers]
    # one chunk with a growing backlog is a stall of the machine; most of
    # them growing is a rate the system cannot sustain — then no latency
    # of the run means anything, and every paced request counts as failed
    growing = sum(g for g, _m, _e in backlogs)
    voided = sum(len(lane.due) for lanes in chunks for lane in lanes) if 2 * growing >= CHUNKS else 0
    per_chunk = [
        statistics.quantiles(rates[i : i + SEGMENTS_PER_CHUNK], n=4)[2]
        for i in range(0, len(rates), SEGMENTS_PER_CHUNK)
    ]
    expected_digest = table_digest(wl.model(script), wl.scenario.output_tables)

    speed = probe.factor()
    raw = {
        "setup_s": (statistics.median(setups), "s"),
        "rows_per_s": (statistics.median(per_chunk), "1/s"),
        "ingest_p50_ms": (ingest["p50"], "ms"),
        "ingest_p95_ms": (ingest["p95"], "ms"),
        "read_p50_ms": (read["p50"], "ms"),
        "read_p95_ms": (read["p95"], "ms"),
        "call_p50_ms": (call["p50"], "ms"),
        "call_p95_ms": (call["p95"], "ms"),
        "recovery_s": (min(recoveries), "s"),
    }
    metrics = {
        k: {"value": v * speed if u == "1/s" else v / speed, "unit": u}
        for k, (v, u) in raw.items()
    }
    metrics["peak_rss_mb"] = {"value": max(rss), "unit": "MiB"}
    gate = {
        "recovered_state_matches": digest_pre == digest_post,
        "final_state_matches_model": digest_end == expected_digest,
        "check_clean": not (bad_pre or bad_post or bad_end),
        "violations": (bad_pre + bad_post + bad_end)[:5],
    }
    failed = tally.failed + voided
    sat_items = sum(op_items(op) for p, a, b in layout if p == "saturate" for op in script[a:b])
    paced_items = sum(op_items(op) for p, a, b in layout if p == "paced" for op in script[a:b])
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": failed,
        "failed_share": failed / tally.attempted,
        "digest": digest_end,
        "gate": gate,
        "counts": {
            "ops": {
                "warmup": sizes.warmup_ops,
                "saturate": CHUNKS * sizes.sat_ops,
                "paced": CHUNKS * sizes.paced_ops,
                "reads+probes": sum(len(r.due) for r in readers),
            },
            "items_saturate": sat_items,
            "items_paced": paced_items,
            "expected_aborts": tally.aborts,
            "output_rows": rows_end,
        },
        "detail": {
            "speed_factor": speed,
            "speed_samples": len(probe.samples),
            "unnormalised": {k: v for k, (v, _u) in raw.items()},
            "phase_s": phase_s,
            "setup_s_all": setups,
            "gen_s": gen_s,
            "recovery_s_all": recoveries,
            "rows_per_s_by_chunk": per_chunk,
            "rows_per_s_by_segment": rates,
            "ingest": ingest,
            "read": read,
            "call": call,
            "paced_chunk_s": sizes.paced_s,
            "paced_items_per_s": wl.paced_items_per_s,
            "generator_late_ms": {"p50": percentile(late, 0.5), "max": late[-1]},
            "backlog": {
                "mean": statistics.fmean(m for _g, m, _e in backlogs),
                "end": [e for _g, _m, e in backlogs],
                "growing_chunks": growing,
            },
        },
    }
