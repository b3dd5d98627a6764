"""Stable serialisation for snapshots and the command log.

Checkpoints and command-log records must survive a (simulated or real)
process crash, so both are serialised to JSON with a small framing layer:
a format version and a CRC32 checksum per record.  Corrupt or truncated
trailing records are detected and dropped during replay, matching the
behaviour of H-Store's command log (a torn final write is discarded).

Only JSON-safe SQL values appear in rows (int/float/str/bool/None), so no
custom value encoding is needed beyond the framing.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from .errors import RecoveryError

#: Bump when the record layout changes incompatibly.
FORMAT_VERSION = 1


def encode_record(record: dict[str, Any]) -> str:
    """Encode one record as a single framed line: ``<crc> <json>``.

    The JSON payload embeds the format version; the CRC32 covers the payload
    so truncated/corrupt lines can be rejected on replay.
    """
    payload = json.dumps({"v": FORMAT_VERSION, "d": record}, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def decode_record(line: str) -> dict[str, Any]:
    """Decode one framed line, verifying checksum and version.

    Raises :class:`RecoveryError` on any corruption.
    """
    try:
        crc_hex, payload = line.split(" ", 1)
        expected = int(crc_hex, 16)
    except ValueError:
        raise RecoveryError(f"malformed log line: {line[:60]!r}") from None
    actual = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise RecoveryError("log record checksum mismatch")
    try:
        wrapper = json.loads(payload)
    except json.JSONDecodeError:
        raise RecoveryError("log record is not valid JSON") from None
    if wrapper.get("v") != FORMAT_VERSION:
        raise RecoveryError(f"unsupported log format version {wrapper.get('v')!r}")
    return wrapper["d"]

