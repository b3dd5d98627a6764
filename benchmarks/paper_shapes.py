"""Paper-shape reproduction of S-Store §4.6 and §4.7 in simulated time.

Everything here reads simulated time through ``stats()["sim_time_us"]``,
a pure function of the engine's event counts, so a given ``--seed``
prints the same figures on every machine.  Simulated time reproduces the paper's *shapes*; the
wall-clock benchmark is ``benchmarks/e2e/run.py``.

1. **§4.6 relative throughput.**  The Linear Road dataflow (position
   reports → accident detection + tolls → account charges) runs on one
   ``Database``; the same input is priced through closed-form models of
   the comparison systems, each giving exactly-once state:
   *Spark Streaming* pays per batch D-Stream scheduling plus, per stage, a
   task launch, an RDD and a state-store round trip, and per row a
   transformation per stage plus a KV operation per state update;
   *Storm/Trident* pays per row emit + ack per hop plus its KV updates,
   and per Trident mini-batch coordination plus a state flush round trip
   per stage.  Both models run both stages over every row (generous to
   them).  Shape: S-Store beats both.
2. **§4.7 partition scaling.**  The same workload on an inline
   ``PartitionedDatabase`` at 1, 2 and 4 partitions, routed round-robin by
   x-way.  Parallel time is the slowest partition's clock delta; the raw
   speedup must track ``n`` within 35% and exceed 1.2x at the top count.

Run ``python benchmarks/paper_shapes.py [--smoke] [--seed N]``: prints a
JSON report, exits 1 if a shape is lost.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import Database  # noqa: E402
from repro.partition import PartitionInfo, PartitionedDatabase  # noqa: E402
from repro.workloads import LinearRoadScenario  # noqa: E402
from repro.workloads.scenario import Scale  # noqa: E402

DEFAULT_SEED = 20260808
XWAYS = 4  # divisible by every partition count measured
DAG_STAGES = 2  # position -> tolls -> accounts
STATE_OPS_PER_ROW = 4  # vehicle, segment stats, accident check, account

# Comparison-system unit costs, in simulated microseconds.
KV_RTT_US = 150.0  # round trip to the external KV store (Redis / Memcached)
KV_OP_US = 2.0  # server-side cost of one KV operation
SPARK_BATCH_OVERHEAD_US = 50_000.0  # D-Stream micro-batch scheduling
SPARK_TASK_US = 200.0  # launching one task of one stage
SPARK_ROW_US = 0.5  # transforming one row in one stage
RDD_CREATE_US = 20.0  # creating one immutable RDD + lineage node
STORM_EMIT_US = 8.0  # emitting one tuple between bolts
STORM_ACK_US = 12.0  # the acker round trip behind at-least-once delivery
TRIDENT_BATCH_US = 1_000.0  # exactly-once coordination of one mini-batch

SCENARIO = LinearRoadScenario(xways=XWAYS)


def measured_ops(seed: int, scale: Scale):
    """(warm-up ops, measured ops): plans compile outside the measurement."""
    ops = SCENARIO.ops(seed, scale)
    return ops[:1], ops[1:]


# -- §4.6 ----------------------------------------------------------------------


def run_sstore(seed: int, scale: Scale) -> dict:
    warmup, measured = measured_ops(seed, scale)
    db = Database(bootstrap=lambda db: SCENARIO.deploy(db, PartitionInfo(0, 1)))
    try:
        for op in warmup:
            db.ingest(op.target, [list(r) for r in op.rows])
        start = db.stats("sim_time_us")
        for op in measured:
            db.ingest(op.target, [list(r) for r in op.rows])
        db.drain()
        elapsed = db.stats("sim_time_us") - start
    finally:
        db.close()
    rows = sum(len(op.rows) for op in measured)
    return {"rows": rows, "batches": len(measured), "sim_us": elapsed}


def model_spark(batches: int, rows: int) -> float:
    per_stage = SPARK_TASK_US + RDD_CREATE_US + KV_RTT_US
    per_row = DAG_STAGES * SPARK_ROW_US + STATE_OPS_PER_ROW * KV_OP_US
    return batches * (SPARK_BATCH_OVERHEAD_US + DAG_STAGES * per_stage) + rows * per_row


def model_storm(batches: int, rows: int) -> float:
    per_row = DAG_STAGES * (STORM_EMIT_US + STORM_ACK_US) + STATE_OPS_PER_ROW * KV_OP_US
    return batches * (TRIDENT_BATCH_US + DAG_STAGES * KV_RTT_US) + rows * per_row


def comparison_4_6(seed: int, scale: Scale) -> dict:
    sstore = run_sstore(seed, scale)
    batches, rows = sstore["batches"], sstore["rows"]
    report = {}
    for name, sim_us in (
        ("sstore", sstore["sim_us"]),
        ("spark_streaming", model_spark(batches, rows)),
        ("storm_trident", model_storm(batches, rows)),
    ):
        report[name] = {"sim_us": sim_us, "rows_per_sec": rows / (sim_us / 1e6)}
    report["rows"], report["batches"] = rows, batches
    for name in ("spark_streaming", "storm_trident"):
        report[f"sstore_vs_{name}"] = (
            report["sstore"]["rows_per_sec"] / report[name]["rows_per_sec"]
        )
    return report


# -- §4.7 ----------------------------------------------------------------------


def run_partitioned(seed: int, scale: Scale, n: int) -> float:
    """Slowest partition's simulated-clock delta over the measured ops."""
    warmup, measured = measured_ops(seed, scale)
    pdb = PartitionedDatabase(
        n, SCENARIO.deploy, partition_keys=SCENARIO.partition_keys,
        mode="round_robin", workers="inline",
    )
    try:
        for op in warmup:
            pdb.ingest(op.target, [list(r) for r in op.rows])
        pdb.drain()
        start = [p["sim_time_us"] for p in pdb.stats()["partitions"]]
        for op in measured:
            pdb.ingest(op.target, [list(r) for r in op.rows])
        pdb.drain()
        end = [p["sim_time_us"] for p in pdb.stats()["partitions"]]
        return max(e - s for s, e in zip(start, end))
    finally:
        pdb.close()


def scaling_4_7(seed: int, scale: Scale, counts: list[int]) -> dict:
    serial_us = run_partitioned(seed, scale, 1)
    points = {}
    for n in counts:
        parallel_us = serial_us if n == 1 else run_partitioned(seed, scale, n)
        speedup = serial_us / parallel_us
        points[str(n)] = {
            "parallel_us": parallel_us,
            "speedup": speedup,
            "rel_err": abs(speedup - n) / n,
        }
    return {"serial_us": serial_us, "points": points}


def lost_shapes(report: dict) -> list[str]:
    lost = []
    c = report["comparison_4_6"]
    for name in ("spark_streaming", "storm_trident"):
        if c[f"sstore_vs_{name}"] < 1.0:
            lost.append(
                f"§4.6: S-Store {c['sstore']['rows_per_sec']:.0f} rows/s < "
                f"simulated {name} {c[name]['rows_per_sec']:.0f}"
            )
    points = report["scaling_4_7"]["points"]
    for n, p in points.items():
        if p["rel_err"] > 0.35:
            lost.append(f"§4.7: speedup {p['speedup']:.2f} at n={n} ({p['rel_err']:.0%} off)")
    top = max(points, key=int)
    if int(top) >= 2 and points[top]["speedup"] <= 1.2:
        lost.append(f"§4.7: no scaling, speedup {points[top]['speedup']:.2f} at n={top}")
    return lost


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="generator seed (runs are reproducible per seed)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized input, 1 and 2 partitions")
    args = parser.parse_args(argv)
    if args.smoke:
        scale, counts = Scale(batches=12, rows_per_batch=40), [1, 2]
    else:
        scale, counts = Scale(batches=60, rows_per_batch=80), [1, 2, 4]

    report = {
        "seed": args.seed,
        "scale": {"batches": scale.batches, "rows_per_batch": scale.rows_per_batch},
        "comparison_4_6": comparison_4_6(args.seed, scale),
        "scaling_4_7": scaling_4_7(args.seed, scale, counts),
    }
    report["lost_shapes"] = lost_shapes(report)
    print(json.dumps(report, indent=2))
    for line in report["lost_shapes"]:
        print(f"SHAPE LOST: {line}", file=sys.stderr)
    return 1 if report["lost_shapes"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
