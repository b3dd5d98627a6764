"""The engine's operation surface, declared once.

An *operation* is one verb of the engine facade — the unit a client sends,
admission control counts, a span names and a worker executes.  Every
engine shape (``Database``, ``PartitionedDatabase``, ``ReproClient``,
``AsyncReproClient``) exposes each verb as a method of the same name and
signature, so all that differs per verb is one row of :data:`OPERATIONS`.
Everything mechanical is derived from that table, here: the request record
for a method call (:meth:`Operation.record` — the clients), applying a
record to an engine (:func:`bind` / :func:`perform` — the network server
and the partition worker alike) and the name sets the layers gate on.
What a verb *means* stays hand-written in ``Database``; how it is routed
across partitions stays hand-written in ``PartitionedDatabase``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

#: ``record -> result``: one operation resolved against one engine
Call = Callable[[dict[str, Any]], Any]


@dataclass(frozen=True)
class Operation:
    #: the engine method *and* the wire ``"op"``
    name: str
    #: wire names of the positional operands, in the method's order
    operands: tuple[str, ...] = ()
    #: the operand passed after those as ``*args``
    splat: Optional[str] = None
    #: the keyword-only routing hint: a partitioned engine routes by it, a
    #: single engine ignores it (it *is* the one partition every key
    #: routes to)
    hint: Optional[str] = None
    #: bypasses the server's in-flight budgets (observability must keep
    #: working while the server sheds load)
    admission_exempt: bool = False
    #: gets a ``client.`` / ``server.`` / ``rpc.`` / ``worker.`` span
    traced: bool = True

    def record(self, args: tuple, kwargs: Mapping[str, Any]) -> dict[str, Any]:
        """The request record for the call ``name(*args, **kwargs)``.
        Unset operands are omitted (the receiver reads them as ``None``); a
        surplus positional or unknown keyword is a :class:`TypeError`, as
        it would be from the engine method."""
        names = self.operands
        record: dict[str, Any] = {"op": self.name}
        if self.splat is not None:
            record[self.splat] = list(args[len(names):])
        elif len(args) > len(names):
            raise TypeError(
                f"{self.name}() takes at most {len(names)} positional "
                f"argument(s) ({len(args)} given)"
            )
        for name, value in zip(names, args):
            record[name] = _wire(value)
        for name, value in kwargs.items():
            if name in record or (name != self.hint and name not in names):
                raise TypeError(f"{self.name}() got an unexpected argument {name!r}")
            record[name] = _wire(value)
        return record

    def caller(self, method: Callable[..., Any]) -> Call:
        """The inverse of :meth:`record`: ``record -> method(*operands,
        *splat, hint=...)``.  Trailing unset operands (and an unset hint)
        are dropped so the method's own defaults apply."""
        names, splat, hint = self.operands, self.splat, self.hint

        def call(record: dict[str, Any]) -> Any:
            get = record.get
            args = [get(name) for name in names]
            while args and args[-1] is None:
                args.pop()
            if splat is not None:
                args.extend(get(splat) or ())
            routed = get(hint) if hint is not None else None
            if routed is not None:
                return method(*args, **{hint: routed})
            return method(*args)

        return call


def _wire(value: Any) -> Any:
    """Row/parameter operands may be any iterable; the wire wants a list."""
    if value is None or isinstance(value, (list, tuple, str, int, float)):
        return value
    return list(value)


OPERATIONS: tuple[Operation, ...] = (
    Operation("execute", ("sql", "params"), hint="key"),
    Operation("explain", ("sql", "params"), hint="key"),
    Operation("executemany", ("sql", "rows"), hint="key_position"),
    Operation("call", ("proc",), splat="args", hint="key"),
    Operation("ingest", ("stream", "rows", "batch_id")),
    Operation("drain"),
    Operation("flush_log"),
    Operation("checkpoint"),
    Operation("analyze", ("table",)),
    Operation("stats", ("section",), admission_exempt=True, traced=False),
)

BY_NAME: dict[str, Operation] = {op.name: op for op in OPERATIONS}

#: engine operations exempt from admission control
EXEMPT_OPS = frozenset(op.name for op in OPERATIONS if op.admission_exempt)

#: requests that never get a span: the untraced verbs plus every
#: connection- and control-plane op of the two wires (spanning
#: ``obs_spans`` would refill the ring it drains)
UNTRACED_OPS = frozenset(op.name for op in OPERATIONS if not op.traced) | {
    "hello", "bye", "ping",
    "snapshot", "obs_spans", "inject_fault", "shutdown",
}


def bind(engine: Any) -> dict[str, Call]:
    """Resolve every declared operation to ``engine``'s bound method, once
    per engine rather than per request."""
    return {op.name: op.caller(getattr(engine, op.name)) for op in OPERATIONS}


def perform(bound: Mapping[str, Call], record: dict[str, Any]) -> Any:
    """Apply one request record to a :func:`bind`-resolved engine and
    return the verb's raw result (engine errors propagate)."""
    return bound[record["op"]](record)


class StatsSections:
    """The ``stats`` verb's section contract, shared by every engine shape:
    built-in sections the engine computes, plus sections registered by
    whatever fronts or instruments it."""

    def __init__(self) -> None:
        self._stats_sections: dict[str, Callable[[], Any]] = {}

    def add_stats_section(self, name: str, thunk: Callable[[], Any]) -> None:
        """Attach an extra section to :meth:`stats`.

        ``thunk()`` is called on every stats snapshot and its return value
        appears under ``name``.  This is how subsystems that *front* the
        engine (the network server's ``"server"`` counters, the
        observability registry's ``"obs"`` section) surface their state
        through the one stats API benchmarks and dashboards already read.
        Re-registering a name replaces the previous thunk; a registered
        section shadows any built-in key of the same name.  A thunk that
        raises does **not** break :meth:`stats` — its section becomes
        ``{"error": "<class>: <message>"}``.
        """
        self._stats_sections[name] = thunk

    def remove_stats_section(self, name: str) -> None:
        """Detach a section added by :meth:`add_stats_section` (no-op if
        absent)."""
        self._stats_sections.pop(name, None)

    def _stats_snapshot(
        self, section: Optional[str], builtins: Mapping[str, Callable[[], Any]]
    ) -> Any:
        """The whole snapshot — every built-in section, then every
        registered one — or, with ``section``, that one section's value,
        computing nothing else (:class:`KeyError` if unknown)."""
        registered = self._stats_sections
        if section is None:
            snapshot = {name: thunk() for name, thunk in builtins.items()}
            for name, thunk in registered.items():
                snapshot[name] = _safe_section(thunk)
            return snapshot
        thunk = registered.get(section)
        if thunk is not None:
            return _safe_section(thunk)
        builtin = builtins.get(section)
        if builtin is not None:
            return builtin()
        known = sorted(set(builtins) | set(registered))
        raise KeyError(f"unknown stats section {section!r} (have: {', '.join(known)})")


def _safe_section(thunk: Callable[[], Any]) -> Any:
    """Evaluate a registered stats-section thunk, degrading a raising
    thunk to an ``{"error": ...}`` value so one broken section can never
    take down the whole ``stats()`` snapshot."""
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001 - stats must never raise
        return {"error": f"{type(exc).__name__}: {exc}"}
