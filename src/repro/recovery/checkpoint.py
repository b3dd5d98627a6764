"""Checkpoint files: a consistent cut of one partition's durable state.

A checkpoint is **one** framed :func:`repro.common.serde.encode_record`
line holding:

* ``lsn`` — the command-log sequence number the checkpoint covers:
  every logged command with ``LSN <= lsn`` is reflected in the snapshot,
  none after it (the log is flushed before the snapshot is taken, and
  checkpoints are only taken between transactions);
* ``catalog`` — :meth:`repro.storage.catalog.Catalog.snapshot`: the full
  physical state (rowids, rows, next rowid) of every table, stream, and
  window;
* ``streaming`` — the runtime's watermarks and scheduler positions
  (per-stream ``last_committed``/``next_seq``/GC horizon, the
  ``delivered`` map of per-subscription progress, and the ``undelivered``
  workflow hops still queued) — everything needed to resume the dataflow
  exactly where the snapshot cut it.  :func:`write_checkpoint` alone
  builds this payload.

Invariants:

* **Atomic visibility.**  Checkpoints are written to a temp file and
  renamed into place; a crash mid-write leaves either no file or a file
  whose checksum fails.  Recovery selects the newest checkpoint that
  *decodes cleanly*.  An older one stands in for a corrupt newest one
  only while the log still holds every record after its LSN; once the
  newest truncated the log, recovery refuses (:class:`RecoveryError`
  naming the missing LSN range) rather than skip committed transactions.
* **Checkpoints never invent state.**  Everything in a checkpoint is
  recomputable by replaying the whole log from LSN 0; a checkpoint only
  shortens replay (and permits log truncation up to its LSN).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from ..common.clock import EventLedger
from ..common.errors import RecoveryError
from ..common.serde import decode_record, encode_record
from .log import fsync_dir, replace_durably

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.database import Database

#: ``checkpoint-<lsn>.ckpt`` — the LSN rides in the name so selection can
#: order candidates without opening them.
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".ckpt"


def checkpoint_path(directory: str | Path, lsn: int) -> Path:
    return Path(directory) / f"{CHECKPOINT_PREFIX}{lsn:012d}{CHECKPOINT_SUFFIX}"


def _snapshot_rows(catalog_snapshot: dict[str, Any]) -> int:
    return sum(len(state["rows"]) for state in catalog_snapshot.values())


def write_checkpoint(path: str | Path, db: "Database", lsn: int) -> Path:
    """Write one checkpoint of ``db`` covering ``lsn`` atomically (temp
    file + fsync + rename + directory fsync).  Counts one ``snapshot_row``
    event per serialised row.  Returns the final path.
    """
    path = Path(path)
    catalog = db.catalog.snapshot()
    db.events.snapshot_row += _snapshot_rows(catalog)
    payload = {"lsn": lsn, "catalog": catalog, "streaming": db.streaming.persistent_state()}
    replace_durably(path, encode_record(payload) + "\n")
    return path


def load_checkpoint(path: str | Path, events: EventLedger) -> dict[str, Any]:
    """Decode one checkpoint file, verifying its checksum.

    Raises :class:`RecoveryError` on any corruption (the caller decides
    whether to fall back to an older checkpoint).  Counts one
    ``snapshot_row`` event per loaded row.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise RecoveryError(f"cannot read checkpoint {path.name!r}: {exc}") from exc
    payload = decode_record(text.strip())
    for key in ("lsn", "catalog", "streaming"):
        if key not in payload:
            raise RecoveryError(f"checkpoint {path.name!r} is missing {key!r}")
    events.snapshot_row += _snapshot_rows(payload["catalog"])
    return payload


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files in ``directory``, newest (highest LSN) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        p
        for p in directory.iterdir()
        if p.name.startswith(CHECKPOINT_PREFIX) and p.name.endswith(CHECKPOINT_SUFFIX)
    ]
    return sorted(found, reverse=True)


def newest_valid_checkpoint(
    directory: str | Path, events: EventLedger
) -> Optional[tuple[Path, dict[str, Any]]]:
    """The newest checkpoint that decodes cleanly, or None.

    Corrupt/torn candidates are skipped; the caller refuses an older
    one whose LSN the log was already truncated past.
    """
    for path in list_checkpoints(directory):
        try:
            return path, load_checkpoint(path, events)
        except RecoveryError:
            continue
    return None


def prune_checkpoints(directory: str | Path, keep: int = 2) -> list[Path]:
    """Remove all but the ``keep`` newest checkpoints; returns removed
    paths.  Two are kept by default; the predecessor is no stand-in for a
    corrupt newest once the log was truncated to the newest's LSN."""
    removed = []
    for path in list_checkpoints(directory)[keep:]:
        path.unlink(missing_ok=True)
        removed.append(path)
    if removed:
        fsync_dir(directory)
    return removed
