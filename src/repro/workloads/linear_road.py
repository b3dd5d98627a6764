"""Linear Road (paper §4.6): the variable-tolling highway benchmark.

Vehicles stream position reports ``(vid, t, xway, seg, speed)``; the
dataflow maintains per-segment statistics, detects accidents (a vehicle
stopped across consecutive reports marks its segment; a fast vehicle
clears it), and charges a congestion toll each time a vehicle enters a
new segment — higher when the segment is slow, a flat surcharge when it
is accident-blocked.  Tolls flow through a second workflow stage into
per-vehicle accounts, so the scenario exercises a two-hop DAG with
``ctx.emit`` fan-in.

Everything is keyed by expressway (``xway``) — the paper's partitioning
axis (see ``partition/partitioning.py``) — and the generator pins each
vehicle to one expressway, so per-vehicle state also lives entirely
inside one partition.  All arithmetic is integer-only so final-state
digests are bit-identical across engine shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.common.types import ColumnType as T
from repro.storage.schema import schema
from repro.workloads.gen import Rng
from repro.workloads.scenario import Op, Scale, Scenario, ingest

TOLL_SPEED = 40  # segments averaging below this are congestion-tolled
CLEAR_SPEED = 45  # a report faster than this clears the segment's accident
ACCIDENT_TOLL = 50  # flat surcharge for entering an accident segment
STOPPED_REPORTS = 2  # consecutive zero-speed reports that declare an accident


def deploy(db, part) -> None:
    db.create_stream(
        schema(
            "position",
            ("vid", T.INTEGER),
            ("t", T.INTEGER),
            ("xway", T.INTEGER),
            ("seg", T.INTEGER),
            ("speed", T.INTEGER),
        )
    )
    db.create_stream(
        schema("tolls", ("vid", T.INTEGER), ("xway", T.INTEGER), ("toll", T.INTEGER))
    )
    db.create_table(
        schema(
            "segstat",
            ("xway", T.INTEGER, False),
            ("seg", T.INTEGER, False),
            ("cars", T.BIGINT, False),
            ("speed_sum", T.BIGINT, False),
            primary_key=["xway", "seg"],
        )
    )
    db.create_table(
        schema(
            "vehicle",
            ("vid", T.INTEGER, False),
            ("xway", T.INTEGER, False),
            ("seg", T.INTEGER, False),
            ("stops", T.INTEGER, False),
            ("last_t", T.INTEGER, False),
            primary_key=["vid"],
        )
    )
    db.create_table(
        schema(
            "accident",
            ("xway", T.INTEGER, False),
            ("seg", T.INTEGER, False),
            ("hits", T.INTEGER, False),
            primary_key=["xway", "seg"],
        )
    )
    db.create_table(
        schema(
            "account",
            ("vid", T.INTEGER, False),
            ("xway", T.INTEGER, False),
            ("charged", T.BIGINT, False),
            primary_key=["vid"],
        )
    )

    @db.register_procedure
    def lr_position(ctx, batch):
        emitted = []
        for vid, t, xway, seg, speed in batch.rows:
            # vehicle: a read and a write, because the stop count needs the
            # pre-update row
            prev = ctx.execute("SELECT seg, stops FROM vehicle WHERE vid = ?", (vid,)).rows
            if prev:
                prev_seg, prev_stops = prev[0]
                entered = seg != prev_seg
                if speed == 0:
                    stops = 1 if entered else prev_stops + 1
                else:
                    stops = 0
                ctx.execute(
                    "UPDATE vehicle SET xway = ?, seg = ?, stops = ?, last_t = ? "
                    "WHERE vid = ?",
                    (xway, seg, stops, t, vid),
                )
            else:
                entered = True
                stops = 1 if speed == 0 else 0
                ctx.execute(
                    "INSERT INTO vehicle (vid, xway, seg, stops, last_t) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (vid, xway, seg, stops, t),
                )

            cars, speed_sum = ctx.execute(
                "INSERT INTO segstat (xway, seg, cars, speed_sum) VALUES (?, ?, 1, ?) "
                "ON CONFLICT (xway, seg) DO UPDATE "
                "SET cars = cars + 1, speed_sum = speed_sum + ? "
                "RETURNING cars, speed_sum",
                (xway, seg, speed, speed),
            ).rows[0]

            # accident: exactly one statement per report
            if stops >= STOPPED_REPORTS:
                ctx.execute(
                    "INSERT INTO accident (xway, seg, hits) VALUES (?, ?, 1) "
                    "ON CONFLICT (xway, seg) DO UPDATE SET hits = hits + 1",
                    (xway, seg),
                )
                blocked = True
            elif speed > CLEAR_SPEED:
                ctx.execute(
                    "DELETE FROM accident WHERE xway = ? AND seg = ?", (xway, seg)
                )
                blocked = False
            else:
                blocked = bool(
                    ctx.execute(
                        "SELECT hits FROM accident WHERE xway = ? AND seg = ?",
                        (xway, seg),
                    ).rows
                )

            if entered:
                avg = speed_sum // cars
                if blocked:
                    toll = ACCIDENT_TOLL
                elif avg < TOLL_SPEED:
                    toll = 2 * (TOLL_SPEED - avg)
                else:
                    toll = 0
                if toll:
                    emitted.append((vid, xway, toll))
        if emitted:
            ctx.emit("tolls", emitted)

    @db.register_procedure
    def lr_charge(ctx, batch):
        # one batch upsert per delivery: a vehicle tolled twice accumulates
        ctx.executemany(
            "INSERT INTO account (vid, xway, charged) VALUES (?, ?, ?) "
            "ON CONFLICT (vid) DO UPDATE SET charged = charged + ?",
            [(vid, xway, toll, toll) for vid, xway, toll in batch.rows],
        )

    db.create_workflow(
        "linear_road",
        [("position", "lr_position", "tolls"), ("tolls", "lr_charge")],
    )


@dataclass
class _Vehicle:
    vid: int
    xway: int
    seg: int
    stopped_for: int = 0
    rng: Rng = field(default=None)  # type: ignore[assignment]


@dataclass
class LinearRoadScenario(Scenario):
    name: str = "linear_road"
    partition_keys: dict = field(
        default_factory=lambda: {"position": "xway", "tolls": "xway"}
    )
    output_tables: tuple = ("segstat", "vehicle", "accident", "account")
    xways: int = 3
    segments: int = 10

    def deploy(self, db, part) -> None:
        deploy(db, part)

    def ops(self, seed: int, scale: Scale) -> list[Op]:
        rng = Rng(seed)
        fleet = [
            _Vehicle(
                vid=v,
                xway=rng.randint(0, self.xways - 1),
                seg=rng.randint(0, self.segments - 1),
                rng=rng.fork(v + 1),
            )
            for v in range(max(4, scale.rows_per_batch))
        ]
        script: list[Op] = []
        for t in range(scale.batches):
            rows = []
            for _ in range(scale.rows_per_batch):
                veh = rng.choice(fleet)
                r = veh.rng
                # a stopped vehicle usually stays stopped (builds accidents);
                # a moving one occasionally advances a segment or stops dead
                if veh.stopped_for and r.chance(60):
                    speed = 0
                elif r.chance(12):
                    speed = 0
                else:
                    if r.chance(45):
                        veh.seg = (veh.seg + 1) % self.segments
                    speed = r.randint(5, 60)
                veh.stopped_for = veh.stopped_for + 1 if speed == 0 else 0
                rows.append((veh.vid, t, veh.xway, veh.seg, speed))
            script.append(ingest("position", rows))
        return script

    def check(
        self,
        read: Callable[[str], list[tuple]],
        ops: Sequence[Op],
        aborts: int,
    ) -> list[str]:
        bad: list[str] = []
        reports = self.ingested_rows(ops, "position")

        # exactly-once: every position report incremented exactly one
        # segstat row, no report was lost or double-applied
        cars = sum(r[2] for r in read("SELECT xway, seg, cars FROM segstat"))
        if cars != len(reports):
            bad.append(f"segstat cars total {cars} != {len(reports)} reports")

        # ordering: each vehicle's row reflects its *last* report
        last: dict[int, tuple] = {}
        for vid, t, xway, seg, speed in reports:
            last[vid] = (xway, seg, t)
        for vid, xway, seg, _stops, last_t in read(
            "SELECT vid, xway, seg, stops, last_t FROM vehicle"
        ):
            want = last.get(vid)
            if want is None:
                bad.append(f"vehicle {vid} never reported")
            elif (xway, seg, last_t) != want:
                bad.append(
                    f"vehicle {vid} at {(xway, seg, last_t)}, last report {want}"
                )

        # tolls only charge vehicles that exist, and are positive
        vids = {r[0] for r in reports}
        for vid, _xway, charged in read("SELECT vid, xway, charged FROM account"):
            if vid not in vids:
                bad.append(f"account for unknown vehicle {vid}")
            if charged <= 0:
                bad.append(f"non-positive account balance for vehicle {vid}")
        return bad
