"""Fault tolerance: command logging, checkpoints, weak/strong recovery.

This package is the engine's durability boundary (paper §3.1, §4.4).
Everything below it is memory-only; everything above it can assume that a
:class:`~repro.engine.Database` opened with ``recovery_dir=`` survives
process death with all *committed* state intact.

The design is H-Store **command logging**, not ARIES-style physical
logging:

* the command log records one **logical** record per committed
  transaction — the stored-procedure invocation, the ingested batch, or
  the ad-hoc statements — never physical row images;
* recovery = load the newest valid checkpoint, then **re-execute** the
  logged commands in commit order against deterministic procedures;
* a torn final record (a write cut short by the crash) is detected by
  its checksum and discarded, per the :mod:`repro.common.serde` framing
  contract.

Two replay modes (paper §4.4):

* **strong** recovery replays *every* logged transaction exactly —
  ingests, ad-hoc transactions, procedure calls, and each workflow
  delivery (popped from the delivery queue replay rebuilds) —
  reproducing the pre-crash committed state byte-for-byte
  (``Catalog.snapshot()`` equality).
* **weak** recovery replays only the dataflow's *inputs* (ingested
  batches, ad-hoc transactions, user procedure calls) and lets the
  workflow scheduler regenerate every downstream delivery by re-driving
  the DAG through ``drain()``.  It replays strictly fewer records and
  reaches the same state, provided procedures are deterministic.

Module map:

* :mod:`~repro.recovery.log` — the durable command log with group commit;
* :mod:`~repro.recovery.checkpoint` — checkpoint files and selection;
* :mod:`~repro.recovery.manager` — capture hooks, replay, and the
  open-time recovery protocol.
"""

from .log import CommandLog, scan_log
from .checkpoint import load_checkpoint, newest_valid_checkpoint, write_checkpoint
from .manager import RecoveryManager

__all__ = [
    "CommandLog",
    "RecoveryManager",
    "load_checkpoint",
    "newest_valid_checkpoint",
    "scan_log",
    "write_checkpoint",
]
