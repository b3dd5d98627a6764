"""The system under test, as a user deploys it: one server process.

``ReproServer`` (default admission budgets) in front of
``PartitionedDatabase(2, workers="process", recovery="strong")`` with
group commit at its default (8 records / 64 KiB) and ``obs`` off.  The
benchmark spawns this file in its own session, reads ``READY <port>``
from its stdout, drives it over TCP, and ``SIGKILL``s the whole process
group — there is no graceful path on purpose: every run ends in the
crash the recovery phase then measures.

Stdin is the lifeline: when the benchmark process goes away for any
reason (including its own ``SIGKILL``), stdin reaches EOF and this
process kills its group, so no run leaves workers behind.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parents[1] / "src"))
sys.path.insert(0, str(_HERE))

PARTITIONS = 2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--recovery-dir", required=True)
    args = ap.parse_args()

    from repro.partition import PartitionedDatabase
    from repro.server import ReproServer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    pdb = PartitionedDatabase(
        PARTITIONS,
        wl.deploy,
        partition_keys=wl.scenario.partition_keys,
        workers="process",
        recovery_dir=args.recovery_dir,
        recovery="strong",
    )
    server = ReproServer(pdb).start()

    def lifeline() -> None:
        sys.stdin.buffer.read()
        os.killpg(0, signal.SIGKILL)

    threading.Thread(target=lifeline, daemon=True).start()
    print(f"READY {server.address[1]}", flush=True)
    signal.pause()


if __name__ == "__main__":
    main()
