"""The durable command log: one framed record per committed command.

Invariants this module maintains (the rest of the recovery subsystem
builds on them):

* **Append-only, commit order.**  Records are appended in the order
  their transactions commit; replaying the file front to back re-executes
  history in the original serial order.  Log sequence numbers (LSNs) are
  positional: the *n*-th data record in a file with header ``base_lsn=B``
  has LSN ``B + n``.
* **Framed and checksummed.**  Every line is one
  :func:`repro.common.serde.encode_record` frame (CRC32 + version +
  payload).  A corrupt *final* line is a write torn by a crash and is
  silently dropped on scan; corruption anywhere else raises
  :class:`~repro.common.errors.RecoveryError` — the log is damaged, not
  merely truncated.
* **Group commit bounds the loss window, not correctness.**  Appends are
  buffered and fsynced in groups (flush when ``group_size`` records or
  ``DEFAULT_GROUP_BYTES`` (64 KiB) are pending).  A crash loses at most the
  unflushed group — a bounded suffix of *acknowledged-but-undurable*
  commands.  This is not H-Store's group commit, which holds each reply
  until its group is fsynced: here an in-process return, and a served
  reply, can precede the fsync.  ``Database.flush_log()`` is the barrier
  — everything before the last flush is durable.
* **A failed write or fsync stops the log.**  Records are durable only
  once their fsync returned, and a retried fsync proves nothing about
  pages the kernel may have dropped: the failing flush raises
  :class:`RecoveryError` naming the first LSN not durable, and so does
  every later append and flush.
* **The header names the mode.**  A log written in weak mode holds
  only the border records (``ingest``/``call``/``txn``) and its header
  says ``"mode": "weak"``; a strong header carries no mode.  Every record
  after a header was written in that header's mode.
* **Directory entries are durable too.**  Creating, renaming or
  unlinking a file changes its directory, which a file's own fsync does
  not cover: :func:`fsync_dir` follows the log's creation, each
  :func:`replace_durably` of a log or checkpoint, and the pruning of old
  checkpoints.
* **Events.**  An append counts one ``log_group_commit``, an fsync of the
  log one ``log_write``; ``stats()`` reads ``appended``/``flushes`` off
  them.  A directory fsync counts nothing.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Optional

from ..common.clock import EventLedger
from ..common.errors import RecoveryError
from ..common.serde import decode_record, encode_record
from ..obs import DISABLED

#: Sentinel op of the one header record that starts every log file.
HEADER_OP = "_header"

#: Group-commit thresholds: records pending before an fsync (the default
#: ``group_size``) and bytes pending before one (fixed).
DEFAULT_GROUP_SIZE = 8
DEFAULT_GROUP_BYTES = 64 * 1024


def fsync_dir(directory: str | Path) -> None:
    """fsync ``directory``, making the creations, renames and unlinks of
    the files in it survive a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replace_durably(path: Path, text: str) -> None:
    """Atomically replace ``path`` with ``text``: write a temp file beside
    it, fsync that, rename it into place and fsync the directory."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def scan_log(path: str | Path) -> tuple[Optional[dict], list[dict[str, Any]], int]:
    """Read a command-log file tolerating a torn tail.

    Returns ``(header, records, valid_end_offset)`` where ``header`` is
    the header record (``base_lsn`` and the writer's ``mode``), ``records``
    are the decoded data records in LSN order (record *i*, 0-based, has
    LSN ``base_lsn + i + 1``) and ``valid_end_offset`` is the byte offset
    just past the last valid line — the point to truncate to before
    appending again.

    Raises :class:`RecoveryError` when the header is missing/invalid or a
    *non-final* record is corrupt (damage, not a torn write).
    A missing or empty file yields ``(None, [], 0)``.
    """
    path = Path(path)
    if not path.exists():
        return None, [], 0
    data = path.read_bytes()
    # The writer terminates every record with a newline in the same write;
    # a file not ending in one therefore ends in a torn write — drop that
    # fragment before decoding (even if its checksum would happen to pass,
    # appending after a newline-less line would corrupt the next record).
    if not data.endswith(b"\n"):
        nl = data.rfind(b"\n")
        data = b"" if nl < 0 else data[: nl + 1]
    records: list[dict[str, Any]] = []
    header: Optional[dict[str, Any]] = None
    offset = 0
    valid_end = 0
    lines = data.split(b"\n")  # trailing b"" after the final newline
    payload_lines = [raw for raw in lines if raw.strip()]
    last_index = len(payload_lines) - 1
    seen = 0
    for raw in lines:
        line_end = offset + len(raw) + 1
        if not raw.strip():
            offset = line_end
            continue
        try:
            record = decode_record(raw.decode("utf-8"))
        except (RecoveryError, UnicodeDecodeError):
            if seen == last_index:
                break  # corrupt final record: torn by the crash, dropped
            raise RecoveryError(
                f"command log {path.name!r}: corrupt record mid-file "
                f"(byte offset {offset}); the log is damaged, not truncated"
            ) from None
        if header is None:
            if record.get("op") != HEADER_OP:
                raise RecoveryError(
                    f"command log {path.name!r} does not start with a header record"
                )
            header = {"mode": "strong", **record}
        else:
            records.append(record)
        seen += 1
        offset = line_end
        valid_end = offset
    return header, records, valid_end


class CommandLog:
    """Writer half of the command log (reading is :func:`scan_log`).

    One instance per open :class:`~repro.engine.Database` with recovery
    enabled.  The manager opens it *after* replay, pointing at the byte
    offset past the last valid record, so appends continue the LSN
    sequence; a torn tail has already been truncated away.
    """

    def __init__(
        self,
        path: str | Path,
        events: EventLedger,
        *,
        base_lsn: int = 0,
        existing_records: int = 0,
        group_size: int = DEFAULT_GROUP_SIZE,
        mode: str = "strong",
    ):
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.path = Path(path)
        self._events = events
        self.group_size = group_size
        self.mode = mode
        self.base_lsn = base_lsn
        #: data records durably in the file (header excluded)
        self._flushed_records = existing_records
        self._buffer: list[str] = []
        self._pending_bytes = 0
        self._closed = False
        #: the error that stopped the log after a failed write or fsync
        self.failure: Optional[RecoveryError] = None
        #: observability handle; the recovery manager points this at its
        #: database's ``obs`` after opening the writer
        self.obs = DISABLED
        #: perf-counter stamps of buffered appends, for the group-commit
        #: buffer-wait histogram (only populated while obs is enabled)
        self._append_ns: list[int] = []
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._file = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._file.write(self._header_line(base_lsn))
            self._fsync()
            fsync_dir(self.path.parent)

    def _header_line(self, base_lsn: int) -> str:
        header = {"op": HEADER_OP, "base_lsn": base_lsn}
        if self.mode == "weak":  # a strong header carries no mode
            header["mode"] = "weak"
        return encode_record(header) + "\n"

    # -- appending -----------------------------------------------------------

    @property
    def lsn(self) -> int:
        """LSN of the newest appended record (durable or buffered)."""
        return self.base_lsn + self._flushed_records + len(self._buffer)

    @property
    def durable_lsn(self) -> int:
        """LSN of the newest *flushed* (crash-surviving) record."""
        return self.base_lsn + self._flushed_records

    def append(self, record: dict[str, Any]) -> int:
        """Buffer one logical command record; returns its LSN.

        The record becomes durable at the next group-commit flush (count
        or byte threshold, an explicit :meth:`flush`, or :meth:`close`).
        Raises :class:`RecoveryError` if the record is not
        JSON-serialisable — command logging requires JSON-safe statement
        parameters and procedure arguments.
        """
        if self._closed:
            raise RecoveryError("command log is closed")
        self._check_failed()
        try:
            line = encode_record(record) + "\n"
        except TypeError as exc:
            raise RecoveryError(
                f"command record is not JSON-serialisable: {exc} — with "
                f"recovery enabled, statement parameters and procedure "
                f"arguments must be JSON-safe values"
            ) from exc
        self._buffer.append(line)
        self._pending_bytes += len(line)
        if self.obs.enabled:
            self._append_ns.append(time.perf_counter_ns())
        self._events.log_group_commit += 1
        if (
            len(self._buffer) >= self.group_size
            or self._pending_bytes >= DEFAULT_GROUP_BYTES
        ):
            self.flush()
        return self.lsn

    def flush(self) -> None:
        """Write and fsync every buffered record (one batched fsync).

        When observability is on, the flush is a ``log.fsync`` span and
        each record's buffered dwell time (append → this flush) feeds the
        ``log.buffer_wait`` histogram — the group-commit latency the
        paper trades against throughput.
        """
        self._check_failed()
        if not self._buffer:
            return
        obs = self.obs
        records = len(self._buffer)
        pending = self._pending_bytes
        with obs.span("log.fsync", records=records, bytes=pending):
            try:
                self._file.write("".join(self._buffer))
                self._fsync()
            except OSError as exc:
                self.failure = RecoveryError(
                    f"command log {self.path.name!r}: write or fsync failed ({exc}); "
                    f"records from LSN {self.durable_lsn + 1} on are not durable"
                )
                raise self.failure from exc
            self._flushed_records += records
            self._buffer.clear()
            self._pending_bytes = 0
        if self._append_ns:
            now_ns = time.perf_counter_ns()
            for t0 in self._append_ns:
                obs.observe("log.buffer_wait", (now_ns - t0) / 1000.0)
            self._append_ns.clear()

    def _fsync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._events.log_write += 1

    def _check_failed(self) -> None:
        if self.failure is not None:
            raise RecoveryError(
                f"stopped by an earlier failure: {self.failure}"
            ) from self.failure.__cause__

    def close(self) -> None:
        """Flush (unless failed) and close; later appends raise RecoveryError."""
        if self._closed:
            return
        self._closed = True
        with self._file:
            if self.failure is None:
                self.flush()

    # -- truncation ----------------------------------------------------------

    def truncate_to(self, new_base_lsn: int) -> None:
        """Drop every record at or below ``new_base_lsn`` (checkpoint
        truncation): the file is atomically replaced by a fresh log whose
        header carries the new base and this writer's mode.  Callers must
        :meth:`flush` first so the checkpoint's LSN is well-defined."""
        if self._buffer:
            self.flush()
        replace_durably(self.path, self._header_line(new_base_lsn))
        self._file.close()
        self.base_lsn = new_base_lsn
        self._flushed_records = 0
        self._file = open(self.path, "a", encoding="utf-8")

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "base_lsn": self.base_lsn,
            "lsn": self.lsn,
            "durable_lsn": self.durable_lsn,
            "appended": self._events.log_group_commit,
            "pending": len(self._buffer),
            "flushes": self._events.log_write,
            "group_size": self.group_size,
            "group_bytes": DEFAULT_GROUP_BYTES,
            "failed": None if self.failure is None else str(self.failure),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommandLog({self.path.name!r}, lsn={self.lsn}, "
            f"pending={len(self._buffer)}/{self.group_size})"
        )
