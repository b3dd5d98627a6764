#!/usr/bin/env python
"""Overhead benchmark of the observability layer (wall clock).

Runs the Voter 3-stage workflow DAG (the same deployment as
``benchmarks/run.py``) at three observability levels on otherwise
identical engines:

* ``disabled`` — ``obs=None``, the shared no-op singleton: every
  instrumentation site costs one attribute load and a branch;
* ``metrics`` — spans time themselves and feed the latency histograms,
  nothing is buffered;
* ``tracing`` — full spans, buffered in the ring, trace context
  propagated.

Enforced thresholds (``--no-check`` to skip; CI runs ``--smoke``):

* **enabled <= 10%**: full tracing costs at most 1.10x the disabled
  wall clock on the Voter DAG (best-of-N to damp scheduler noise);
* **disabled <= 2%**: the no-op guard cost — measured directly by a
  microbenchmark of the exact disabled-path site pattern, multiplied by
  the spans-per-batch count observed in the tracing run — is at most 2%
  of the disabled per-batch wall time.  This bounds what an
  un-instrumented deployment pays for the instrumentation existing;
* the sample trace (written to ``--trace-out``) stitches one ingested
  batch into a **single** trace spanning client -> server -> coordinator
  -> worker txn -> group-commit fsync, with every expected stage present
  — the end-to-end acceptance artifact ``tools/tracetool.py`` renders.

Writes ``BENCH_pr8.json`` (override with ``--out``) and the sample span
JSONL (``--trace-out``, default ``TRACE_pr8_sample.jsonl``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for entry in (str(_SRC), str(_HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.common.types import ColumnType  # noqa: E402
from repro.engine import Database  # noqa: E402
from repro.obs import DISABLED, write_jsonl  # noqa: E402
from repro.obs.tracing import NOOP_SPAN  # noqa: E402
from repro.partition import PartitionedDatabase  # noqa: E402
from repro.server import ReproClient, ReproServer  # noqa: E402
from repro.storage.schema import schema  # noqa: E402
from run import CONTESTANTS, lcg, make_voter_dag  # noqa: E402

#: short trials, many of them: each timed run stays ~200ms so the
#: interleaved best-of cancels machine drift instead of soaking it up
BATCHES = 100
#: rows per atomic batch — the smallest batch the end-to-end benchmark
#: (``benchmarks/e2e``) drives.  The ceilings below are ratios to the
#: per-batch work: the span count per batch is fixed (~9), so they were
#: calibrated at ~1.1 ms of engine work per batch — 50 rows until pinned
#: statements stopped scanning and per-row work halved, 100 rows since.
BATCH_ROWS = 100
TRIALS = 9
SMOKE_BATCHES = 60
#: same rows/batch as the full run: the span count per batch is fixed,
#: so shrinking the batch would inflate the measured overhead ratio
#: beyond anything a real deployment sees
SMOKE_BATCH_ROWS = BATCH_ROWS
#: more trials than the full run: smoke runs on noisy shared CI boxes,
#: and the interleaved best-of is the noise damper
SMOKE_TRIALS = 7
GUARD_ITERS = 200_000

#: acceptance ceilings (ISSUE 8): full tracing <= 10% over disabled,
#: the disabled no-op path <= 2% of disabled per-batch wall time
TRACING_OVERHEAD_MAX = 1.10
DISABLED_OVERHEAD_FRAC_MAX = 0.02

#: every stage a stitched single-batch trace must contain
EXPECTED_SAMPLE_STAGES = frozenset(
    {"client.ingest", "server.request", "coord.ingest", "ingest.split",
     "rpc.ingest", "worker.ingest", "ingest", "txn", "log.fsync"}
)


# ---------------------------------------------------------------------------
# Voter DAG at the three observability levels
# ---------------------------------------------------------------------------

MODES = (("disabled", None), ("metrics", "metrics"), ("tracing", "full"))


def _one_voter_run(obs_spec, batches: int, batch_rows: int) -> tuple[float, Database]:
    db = Database(obs=obs_spec)
    make_voter_dag(db, batch_rows)
    rng = lcg(0x0B5)
    gc.collect()  # level the allocator field between timed runs
    t0 = time.perf_counter()
    for _ in range(batches):
        db.ingest(
            "raw",
            [(next(rng), next(rng) % CONTESTANTS) for _ in range(batch_rows)],
        )
    return time.perf_counter() - t0, db


def run_voter_modes(batches: int, batch_rows: int, trials: int) -> dict[str, dict]:
    """Wall clock of ``batches`` atomic-batch ingests through the Voter
    DAG at every obs level, on fresh memory-only engines.

    Trials are **interleaved** (disabled, metrics, tracing, disabled,
    ...) rather than run per-mode, and each mode's overhead ratio is the
    **median of per-round ratios** against the same round's disabled
    run: the two runs of a pair execute back-to-back, so machine-wide
    drift — a noisy CI neighbour, a thermal dip — cancels within the
    pair, and the median votes out any round a spike still hit.  Each
    timed region is the ingest loop only; engine construction and DAG
    deployment are outside.
    """
    walls: dict[str, list[float]] = {name: [] for name, _ in MODES}
    final_db: dict[str, Database] = {}
    for round_no in range(trials):
        # rotate which mode goes first so no mode systematically inherits
        # the round's warmup/GC position
        for i in range(len(MODES)):
            name, spec = MODES[(round_no + i) % len(MODES)]
            wall_s, db = _one_voter_run(spec, batches, batch_rows)
            walls[name].append(wall_s)
            final_db[name] = db

    disabled_walls = walls["disabled"]
    results: dict[str, dict] = {}
    for name, _ in MODES:
        db = final_db[name]
        out = {
            "wall_s": min(walls[name]),
            "trial_walls_s": walls[name],
            "batches": batches,
            "batch_rows": batch_rows,
            "batches_per_sec": batches / min(walls[name]),
            "leaderboard_rows": db.stats(section="tables")["leaderboard"]["rows"],
        }
        if name != "disabled":
            out["overhead_x"] = statistics.median(
                w / d for w, d in zip(walls[name], disabled_walls)
            )
        if db.obs.enabled:
            obs_section = db.stats(section="obs")
            out["spans_emitted"] = obs_section["spans"]["emitted"]
            out["spans_per_batch"] = obs_section["spans"]["emitted"] / batches
            txn_hist = obs_section["histograms"].get("txn", {})
            out["txn_p50_us"] = txn_hist.get("p50_us", 0.0)
            out["txn_p99_us"] = txn_hist.get("p99_us", 0.0)
        results[name] = out
    return results


# ---------------------------------------------------------------------------
# The disabled fast path, measured directly
# ---------------------------------------------------------------------------

def measure_noop_guard(iters: int) -> float:
    """Nanoseconds per instrumentation site on the disabled path.

    Times the exact pattern every hot site compiles to when obs is off:
    one attribute load, one truthiness branch, and a ``with NOOP_SPAN``
    enter/exit.  Best of 3 loops, loop overhead included (conservative —
    the real sites pay strictly less, since many guard without the
    ``with``)."""
    obs = DISABLED
    best_ns = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(iters):
            with (obs.span("x", probe=1) if obs.enabled else NOOP_SPAN):
                pass
        best_ns = min(best_ns, time.perf_counter_ns() - t0)
    return best_ns / iters


# ---------------------------------------------------------------------------
# The stitched sample trace (the acceptance artifact)
# ---------------------------------------------------------------------------

def capture_sample_trace(trace_out: Path) -> dict:
    """One traced batch through the whole pipeline: traced client ->
    server -> 2-partition coordinator -> workers with group_commit=1 (so
    the fsync lands inside the trace).  Writes the span JSONL that
    ``tools/tracetool.py`` renders and returns what the trace contains."""

    def deploy(db, part):
        db.create_stream(
            schema("sfeed", ("k", ColumnType.BIGINT), ("v", ColumnType.INTEGER))
        )

    with tempfile.TemporaryDirectory() as tmp:
        pdb = PartitionedDatabase(
            2,
            deploy,
            partition_keys={"sfeed": "k"},
            workers="inline",
            recovery_dir=tmp,
            group_commit=1,
            obs="full",
        )
        try:
            with ReproServer(pdb, port=0) as server:
                with ReproClient(*server.address, obs="full") as client:
                    client.ingest("sfeed", [(k, k * 10) for k in range(8)])
                    spans = client.trace_spans()
            spans += pdb.trace_spans()
        finally:
            pdb.close()
    write_jsonl(str(trace_out), spans)
    trace_ids = {s["trace_id"] for s in spans}
    stages = {s["name"] for s in spans}
    return {
        "path": str(trace_out),
        "spans": len(spans),
        "traces": len(trace_ids),
        "processes": sorted({s["process"] for s in spans}),
        "stages": sorted(stages),
        "missing_stages": sorted(EXPECTED_SAMPLE_STAGES - stages),
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_benchmark(
    batches: int, batch_rows: int, trials: int, trace_out: Path
) -> dict:
    results: dict = run_voter_modes(batches, batch_rows, trials)

    guard_ns = measure_noop_guard(GUARD_ITERS)
    spans_per_batch = results["tracing"]["spans_per_batch"]
    disabled_batch_us = results["disabled"]["wall_s"] * 1e6 / batches
    results["noop_guard"] = {
        "per_site_ns": guard_ns,
        "sites_per_batch": spans_per_batch,
        "overhead_per_batch_us": guard_ns * spans_per_batch / 1e3,
    }
    results["sample_trace"] = capture_sample_trace(trace_out)

    derived = {
        "tracing_overhead_x": results["tracing"]["overhead_x"],
        "metrics_overhead_x": results["metrics"]["overhead_x"],
        "disabled_overhead_frac":
            (guard_ns * spans_per_batch / 1e3) / disabled_batch_us,
        "txn_p99_us": results["tracing"]["txn_p99_us"],
    }
    return {
        "benchmark": "observability_overhead",
        "config": {"batches": batches, "batch_rows": batch_rows, "trials": trials},
        "results": results,
        "derived": derived,
    }


def check_thresholds(report: dict) -> list[str]:
    """Acceptance checks; returns human-readable failure strings."""
    failures: list[str] = []
    derived = report["derived"]
    if derived["tracing_overhead_x"] > TRACING_OVERHEAD_MAX:
        failures.append(
            f"full tracing costs {derived['tracing_overhead_x']:.3f}x disabled "
            f"on the Voter DAG (ceiling {TRACING_OVERHEAD_MAX}x)"
        )
    if derived["disabled_overhead_frac"] > DISABLED_OVERHEAD_FRAC_MAX:
        failures.append(
            f"disabled no-op path costs {derived['disabled_overhead_frac']:.4f} "
            f"of per-batch wall time (ceiling {DISABLED_OVERHEAD_FRAC_MAX})"
        )
    sample = report["results"]["sample_trace"]
    if sample["traces"] != 1:
        failures.append(
            f"sample batch produced {sample['traces']} traces, expected one "
            f"stitched trace (context propagation broke at a hop)"
        )
    if sample["missing_stages"]:
        failures.append(
            f"sample trace is missing stage(s): {', '.join(sample['missing_stages'])}"
        )
    tracing = report["results"]["tracing"]
    if tracing["txn_p99_us"] <= 0.0:
        failures.append("tracing run produced no txn latency histogram")
    rows_by_mode = {
        mode: report["results"][mode]["leaderboard_rows"]
        for mode in ("disabled", "metrics", "tracing")
    }
    if len(set(rows_by_mode.values())) != 1:
        failures.append(
            f"modes disagree on leaderboard rows ({rows_by_mode}) — "
            f"instrumentation changed results"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batches", type=int, default=BATCHES)
    parser.add_argument("--batch-rows", type=int, default=BATCH_ROWS)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI; same thresholds enforced")
    parser.add_argument("--out", type=Path,
                        default=_HERE.parent / "BENCH_pr8.json",
                        help="output JSON path (default: repo-root BENCH_pr8.json)")
    parser.add_argument("--trace-out", type=Path,
                        default=_HERE.parent / "TRACE_pr8_sample.jsonl",
                        help="sample span JSONL path (tools/tracetool.py renders it)")
    parser.add_argument("--no-check", action="store_true",
                        help="skip acceptance-threshold enforcement")
    args = parser.parse_args(argv)

    if args.smoke:
        batches, batch_rows, trials = SMOKE_BATCHES, SMOKE_BATCH_ROWS, SMOKE_TRIALS
    else:
        batches, batch_rows, trials = args.batches, args.batch_rows, TRIALS

    report = run_benchmark(batches, batch_rows, trials, args.trace_out)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    results, derived = report["results"], report["derived"]
    print(f"wrote {args.out}")
    print(f"  disabled              : {results['disabled']['batches_per_sec']:,.0f} "
          f"batches/s ({batches} batches x {batch_rows} rows)")
    print(f"  metrics               : {derived['metrics_overhead_x']:.3f}x disabled")
    print(f"  tracing               : {derived['tracing_overhead_x']:.3f}x disabled "
          f"(ceiling {TRACING_OVERHEAD_MAX}x; "
          f"{results['tracing']['spans_per_batch']:.1f} spans/batch)")
    print(f"  disabled no-op path   : {results['noop_guard']['per_site_ns']:.0f}ns/site "
          f"-> {derived['disabled_overhead_frac']:.5f} of batch wall "
          f"(ceiling {DISABLED_OVERHEAD_FRAC_MAX})")
    print(f"  txn p50/p99 (traced)  : {results['tracing']['txn_p50_us']:,.0f}us / "
          f"{results['tracing']['txn_p99_us']:,.0f}us")
    sample = results["sample_trace"]
    print(f"  sample trace          : {sample['spans']} spans, {sample['traces']} "
          f"trace(s) across {', '.join(sample['processes'])} -> {sample['path']}")

    if not args.no_check:
        failures = check_thresholds(report)
        if failures:
            print("\nTHRESHOLD FAILURES:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("  all observability thresholds passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
