"""Multi-core scale-out (paper §4.7): partitioned execution.

:class:`PartitionedDatabase` fronts N single-partition engines — one
worker process each — routing ingest batches and keyed transactions by
partition column and running cross-partition transactions under an
ordered-commit protocol.  See :mod:`repro.partition.coordinator` for the
routing rules and protocol, :mod:`repro.partition.worker` for the worker
loop, and :mod:`repro.partition.rpc` for the wire format.
"""

from .coordinator import PartitionedDatabase
from .worker import InlineWorker, PartitionInfo, WorkerServer

__all__ = [
    "InlineWorker",
    "PartitionInfo",
    "PartitionedDatabase",
    "WorkerServer",
]
