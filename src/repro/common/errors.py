"""Exception hierarchy for the S-Store reproduction.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still being able to discriminate on the specific subclass.

The hierarchy mirrors the layering of the system:

* storage-level errors (:class:`StorageError` and subclasses),
* SQL front-end errors (:class:`SQLError` and subclasses),
* transaction/engine errors (:class:`TransactionError` and subclasses),
* streaming-model errors (:class:`StreamingError` and subclasses).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``retryable`` marks errors that describe a *transient* condition the
    caller may safely retry (today: admission-control rejections).  It is
    a class attribute so the flag survives a trip across a process or
    socket boundary, where errors are rebuilt by class name.
    """

    retryable = False


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage-layer failures."""


class SchemaError(StorageError):
    """Invalid schema definition (duplicate column, bad type, missing key)."""


class DuplicateTableError(StorageError):
    """A table with the same name already exists in the catalog."""


class NoSuchTableError(StorageError):
    """The referenced table does not exist."""


class NoSuchColumnError(StorageError):
    """The referenced column does not exist in the table/row source."""


class NoSuchIndexError(StorageError):
    """The referenced index does not exist."""


class NoSuchRowError(StorageError):
    """The referenced rowid is not present in the table (stale undo record,
    replay of a corrupt log, or a caller bug)."""


class ConstraintViolation(StorageError):
    """A NOT NULL / UNIQUE / PRIMARY KEY constraint was violated."""


class TypeMismatchError(StorageError):
    """A value could not be converted to the declared column type."""


# ---------------------------------------------------------------------------
# SQL front-end
# ---------------------------------------------------------------------------

class SQLError(ReproError):
    """Base class for SQL front-end failures."""


class LexError(SQLError):
    """The SQL text could not be tokenised."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """The token stream does not form a valid statement."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class PlanningError(SQLError):
    """The statement is well-formed but cannot be planned (unknown table,
    ambiguous column, aggregate misuse, wrong parameter count, ...)."""


class ExpressionError(SQLError):
    """Runtime failure while evaluating a SQL expression."""


# ---------------------------------------------------------------------------
# Transactions / engine
# ---------------------------------------------------------------------------

class TransactionError(ReproError):
    """Base class for transaction-processing failures."""


class TransactionAborted(TransactionError):
    """Raised (or recorded) when a transaction aborts.

    User stored-procedure code can raise this to request a rollback; the
    engine also raises it when a constraint violation forces an abort.
    """


class UserAbort(TransactionAborted):
    """Transaction aborted explicitly by stored-procedure code."""


class NoSuchProcedureError(TransactionError):
    """An unknown stored procedure was invoked."""


class ProcedureError(TransactionError):
    """A stored procedure raised an unexpected exception; wraps the cause."""


class RecoveryError(TransactionError):
    """Crash-recovery could not restore a consistent state."""


class PartitionError(TransactionError):
    """A partitioned-execution failure: a worker process died, a remote
    reply could not be decoded, or the ordered-commit protocol observed a
    partition fail after some participants had already committed."""


# ---------------------------------------------------------------------------
# Network front door / wire layer
# ---------------------------------------------------------------------------

class ServerError(ReproError):
    """Base class for network front-door failures (framing, protocol,
    handshake, admission control)."""


class ConnectionClosedError(ServerError):
    """The peer hung up — cleanly between frames, or tearing one mid-read
    (``mid_frame=True``)."""

    def __init__(self, message: str, *, mid_frame: bool = False):
        super().__init__(message)
        self.mid_frame = mid_frame


class ProtocolError(ServerError):
    """The byte stream violated the wire protocol: bad handshake, corrupt
    or malformed frame, or an unknown operation."""


class FrameTooLargeError(ProtocolError):
    """A frame announced a length beyond the configured limit.  Raised
    sender-side before writing and receiver-side before reading the body,
    so neither end ever materialises an oversized payload."""


class BackpressureError(ServerError):
    """Admission control rejected the request: an in-flight budget (per
    connection or global) was full.  Nothing was queued or executed; the
    request is safe to retry — the typed, retryable shed-load signal."""

    retryable = True


# ---------------------------------------------------------------------------
# Streaming model
# ---------------------------------------------------------------------------

class StreamingError(ReproError):
    """Base class for streaming-model failures."""


class WorkflowError(StreamingError):
    """Invalid workflow definition (cycle, unknown SP, disconnected edge)."""


class WindowVisibilityError(StreamingError):
    """A window table was accessed outside its owning stored procedure.

    Per paper §3.2.2, a window must only be visible to transaction
    executions of the stored procedure that defined it.
    """


class TriggerError(StreamingError):
    """Invalid trigger definition (e.g., a PE trigger on a window table)."""


class BatchOrderError(StreamingError):
    """Atomic batches were observed out of order on a stream."""


class ScheduleViolation(StreamingError):
    """A committed schedule violated the workflow/stream order constraints."""


# ---------------------------------------------------------------------------
# Wire registry: errors that cross a process or socket boundary are sent
# by class name and rebuilt here on the other side.
# ---------------------------------------------------------------------------

#: name → class for every public error in this module.
ERROR_CLASSES: dict[str, type] = {
    _name: _obj
    for _name, _obj in list(globals().items())
    if isinstance(_obj, type) and issubclass(_obj, ReproError)
}


def error_class(name: str, default: type = ReproError) -> type:
    """Resolve a wire error-class name; foreign names fall back to
    ``default`` so a peer can never make the caller raise a non-library
    exception type."""
    return ERROR_CLASSES.get(name, default)
