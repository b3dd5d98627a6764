"""Fraud detection: stream-to-table joins on the streaming hot path.

Card transactions stream in; a batch-unit window (``size=1, slide=1``,
owned by the detector) always holds exactly the current atomic batch,
and the detector joins it against the seeded ``cards`` limit table —
the PR 9 planner picks the join strategy, and ``db.force_join`` sweeps
prove every strategy yields identical alerts.  A second rule counts
per-card velocity inside the window (``GROUP BY`` over window rows).

Partition-safe because ``card`` is both the partition key and the join
key: a batch's sub-batch on a partition contains *all* of that batch's
rows for each card it owns, so per-card joins and counts are identical
to the single-engine run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.common.types import ColumnType as T
from repro.storage.schema import schema
from repro.workloads.gen import Rng
from repro.workloads.scenario import Op, Scale, Scenario, ingest

VELOCITY = 3  # >= this many swipes of one card in one batch is "hot"


def card_limit(card: int) -> int:
    """Deterministic per-card limit; the test oracle recomputes it."""
    return 100 + (card * 37) % 400


def deploy(db, part) -> None:
    db.create_table(
        schema(
            "cards",
            ("card", T.INTEGER, False),
            ("lim", T.INTEGER, False),
            primary_key=["card"],
        )
    )
    db.executemany(
        "INSERT INTO cards (card, lim) VALUES (?, ?)",
        ((c, card_limit(c)) for c in range(FraudScenario.CARDS) if part.owns(c)),
    )
    db.create_stream(
        schema(
            "txns",
            ("txn_id", T.INTEGER),
            ("card", T.INTEGER),
            ("amount", T.INTEGER),
        )
    )
    db.create_table(
        schema(
            "alerts",
            ("txn_id", T.INTEGER, False),
            ("card", T.INTEGER, False),
            ("amount", T.INTEGER, False),
            ("lim", T.INTEGER, False),
            primary_key=["txn_id"],
        )
    )
    db.create_table(
        schema(
            "hot_cards",
            ("card", T.INTEGER, False),
            ("hits", T.INTEGER, False),
            primary_key=["card"],
        )
    )

    # the owner must exist before the window that names it
    @db.register_procedure
    def fraud_detect(ctx, batch):
        # window-to-table join: the planner chooses inl/hash/bnl
        over = ctx.query(
            "SELECT r.txn_id AS txn_id, r.card AS card, r.amount AS amount, "
            "c.lim AS lim FROM recent r JOIN cards c ON r.card = c.card "
            "WHERE r.amount > c.lim"
        )
        for row in over:
            ctx.execute(
                "INSERT INTO alerts (txn_id, card, amount, lim) VALUES (?, ?, ?, ?)",
                (row["txn_id"], row["card"], row["amount"], row["lim"]),
            )
        for row in ctx.query("SELECT card, COUNT(*) AS n FROM recent GROUP BY card"):
            if row["n"] >= VELOCITY:
                hot = ctx.query(
                    "SELECT hits FROM hot_cards WHERE card = ?", (row["card"],)
                )
                if hot:
                    ctx.execute(
                        "UPDATE hot_cards SET hits = hits + 1 WHERE card = ?",
                        (row["card"],),
                    )
                else:
                    ctx.execute(
                        "INSERT INTO hot_cards (card, hits) VALUES (?, 1)",
                        (row["card"],),
                    )

    db.create_window(
        "recent", "txns", size=1, slide=1, unit="batches", owner="fraud_detect"
    )
    db.create_workflow("fraud", [("txns", "fraud_detect")])


@dataclass
class FraudScenario(Scenario):
    CARDS = 24

    name: str = "fraud"
    partition_keys: dict = field(default_factory=lambda: {"txns": "card"})
    output_tables: tuple = ("alerts", "hot_cards")

    def deploy(self, db, part) -> None:
        deploy(db, part)

    def ops(self, seed: int, scale: Scale) -> list[Op]:
        rng = Rng(seed)
        script: list[Op] = []
        txn_id = 0
        for _ in range(scale.batches):
            rows = []
            # a couple of "hot" cards per batch drive the velocity rule
            hot = [rng.randint(0, self.CARDS - 1) for _ in range(2)]
            for _ in range(scale.rows_per_batch):
                card = hot[0] if rng.chance(30) else rng.randint(0, self.CARDS - 1)
                if rng.chance(15):
                    card = hot[1]
                amount = rng.randint(1, 700)  # limits span 100..499
                rows.append((txn_id, card, amount))
                txn_id += 1
            script.append(ingest("txns", rows))
        return script

    def expected_alerts(self, ops: Sequence[Op]) -> list[tuple]:
        """Pure-python oracle: recompute the alert set from the script."""
        return sorted(
            (txn_id, card, amount, card_limit(card))
            for txn_id, card, amount in self.ingested_rows(ops, "txns")
            if amount > card_limit(card)
        )

    def expected_hot(self, ops: Sequence[Op]) -> list[tuple]:
        hits: dict[int, int] = {}
        for op in ops:
            if op.kind != "ingest":
                continue
            per_card: dict[int, int] = {}
            for _txn, card, _amt in op.rows:
                per_card[card] = per_card.get(card, 0) + 1
            for card, n in per_card.items():
                if n >= VELOCITY:
                    hits[card] = hits.get(card, 0) + 1
        return sorted(hits.items())

    def check(
        self,
        read: Callable[[str], list[tuple]],
        ops: Sequence[Op],
        aborts: int,
    ) -> list[str]:
        bad: list[str] = []
        got = sorted(read("SELECT txn_id, card, amount, lim FROM alerts"))
        want = self.expected_alerts(ops)
        if got != want:
            missing = set(want) - set(got)
            extra = set(got) - set(want)
            bad.append(f"alerts diverge: missing={sorted(missing)} extra={sorted(extra)}")
        got_hot = sorted(read("SELECT card, hits FROM hot_cards"))
        if got_hot != self.expected_hot(ops):
            bad.append(f"hot_cards diverge: {got_hot} != {self.expected_hot(ops)}")
        return bad
