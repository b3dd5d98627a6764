"""Wall-clock trace spans with cross-process context propagation.

A **span** is one timed stage of a batch's journey — ``client.ingest``,
``server.request``, ``rpc.ingest``, ``worker.ingest``, ``txn``,
``trigger.ee``, ``log.fsync`` — carrying ``trace_id`` / ``span_id`` /
``parent_id``, an epoch-aligned start, a monotonic-clock duration, and
free-form tags.  Spans of one request share a ``trace_id``; rendering the
parent tree (:mod:`tools.tracetool`) gives the per-stage latency
breakdown the paper's §4.4–§4.7 evaluation reasons about.

Two clocks on purpose: ``start_us`` is ``time.time_ns()`` (epoch µs) so
spans recorded in *different processes* — coordinator and partition
workers, client and server — line up on one timeline; ``duration_us`` is
``perf_counter_ns`` so stage durations are monotonic and immune to
clock steps.

**Propagation.**  A span crossing a process hop rides as a tiny JSON
context (``{"trace_id", "span_id"}``) under
:data:`repro.common.framing.TRACE_KEY` inside the request dict — the
frames already carry plain dicts, so no wire-format change is needed.
The receiving side :meth:`Tracer.activate`\\ s the context, making the
remote span the parent of everything it does for that request.

**Storage.**  Finished spans land in a bounded ring (``deque(maxlen)``);
when it is full the oldest spans fall out and ``dropped`` counts them.
:meth:`Tracer.drain` empties the ring (the worker RPC op ``obs_spans``
is exactly that), and :func:`write_jsonl` exports spans for
``tools/tracetool.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Optional

from .metrics import ObserveFn


class _RemoteParent:
    """A parent adopted from another process's trace context."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id


class Span:
    """One in-flight pipeline stage.  Context-manager friendly: the span
    starts when created (:meth:`Tracer.start`) and ends at
    :meth:`finish` / ``with``-exit."""

    __slots__ = (
        "_tracer", "trace_id", "span_id", "parent_id",
        "name", "tags", "start_us", "_t0_ns", "duration_us", "_stacked",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        tags: Optional[dict[str, Any]],
        stacked: bool,
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.start_us = time.time_ns() // 1000
        self._t0_ns = time.perf_counter_ns()
        self.duration_us: Optional[float] = None
        self._stacked = stacked

    def set(self, **tags: Any) -> "Span":
        if self.tags is None:
            self.tags = tags
        else:
            self.tags.update(tags)
        return self

    def context(self) -> dict[str, str]:
        """The propagation context that makes this span a remote parent."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def finish(self, **tags: Any) -> None:
        if self.duration_us is not None:
            return  # already finished (e.g. explicit finish inside a with)
        self.duration_us = (time.perf_counter_ns() - self._t0_ns) / 1000.0
        if tags:
            self.set(**tags)
        self._tracer._finished(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # a generator closed early (a LIMIT stops pulling rows) is no error
        if exc_type not in (None, GeneratorExit) and self.duration_us is None:
            self.set(error=exc_type.__name__)
        self.finish()

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "process": self._tracer.process,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "tags": self.tags or {},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, trace={self.trace_id}, dur={self.duration_us})"


class _NoopSpan:
    """The disabled fast path: one shared, stateless, do-nothing span."""

    __slots__ = ()

    def set(self, **tags: Any) -> "_NoopSpan":
        return self

    def finish(self, **tags: Any) -> None:
        pass

    def context(self) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: the shared no-op span every disabled ``span()`` call returns
NOOP_SPAN = _NoopSpan()


class _Activation:
    """Context manager that installs a remote parent on the span stack."""

    __slots__ = ("_tracer", "_parent")

    def __init__(self, tracer: "Tracer", parent: Optional[_RemoteParent]):
        self._tracer = tracer
        self._parent = parent

    def __enter__(self) -> "_Activation":
        if self._parent is not None:
            self._tracer._stack().append(self._parent)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._parent is not None:
            stack = self._tracer._stack()
            if self._parent in stack:
                stack.remove(self._parent)


class Tracer:
    """Creates spans, keeps the current-parent stack, owns the ring.

    ``process`` labels every span with where it ran (``client``,
    ``server``, ``coord``, ``p000``, ...).  ``record=False`` runs the
    full timing path but skips the ring — the metrics-only mode, where
    spans exist solely to feed their name's latency histogram through
    ``on_finish``.
    """

    def __init__(
        self,
        *,
        capacity: int = 4096,
        process: str = "main",
        record: bool = True,
        on_finish: Optional[ObserveFn] = None,
    ):
        if capacity < 1:
            raise ValueError("tracer ring capacity must be >= 1")
        self.process = process
        self.capacity = capacity
        self.record = record
        self.on_finish = on_finish
        self.emitted = 0
        self.dropped = 0
        # the ring holds Span objects; they serialize at drain time, off
        # the instrumentation hot path
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._tls = threading.local()
        # itertools.count.__next__ is atomic in CPython — no lock needed
        self._ids = itertools.count(1)
        # pid in the prefix keeps ids unique across forked workers; the
        # urandom salt keeps them unique across successive processes that
        # happen to reuse a pid
        self._prefix = f"{os.getpid():x}-{os.urandom(2).hex()}."

    # -- ids and the parent stack ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _new_id(self) -> str:
        return self._prefix + format(next(self._ids), "x")

    def current(self) -> Optional[Any]:
        stack = self._stack()
        return stack[-1] if stack else None

    def context(self) -> Optional[dict[str, str]]:
        """The current span's propagation context (None outside a span)."""
        top = self.current()
        if top is None:
            return None
        return {"trace_id": top.trace_id, "span_id": top.span_id}

    def activate(self, ctx: Optional[dict[str, Any]]) -> _Activation:
        """Adopt a remote trace context for the duration of a ``with``
        block: spans started inside parent to the remote span.  A None or
        malformed context activates nothing (spans start a new trace)."""
        parent = None
        if isinstance(ctx, dict):
            trace_id, span_id = ctx.get("trace_id"), ctx.get("span_id")
            if isinstance(trace_id, str) and isinstance(span_id, str):
                parent = _RemoteParent(trace_id, span_id)
        return _Activation(self, parent)

    # -- span lifecycle --------------------------------------------------------

    def start(
        self,
        name: str,
        tags: Optional[dict[str, Any]] = None,
        *,
        detached: bool = False,
    ) -> Span:
        """Open a span under the current parent (or as a new trace root).

        ``detached=True`` keeps the span **off** the parent stack: it is
        a leaf that may finish out of creation order — the coordinator's
        pipelined per-worker RPC spans, the client's pipelined request
        spans.  Stacked (default) spans must finish innermost-first,
        which every ``with`` usage guarantees.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = self._new_id()
            parent_id = None
        span = Span(self, trace_id, self._new_id(), parent_id, name, tags, not detached)
        if not detached:
            stack.append(span)
        return span

    def _finished(self, span: Span) -> None:
        if span._stacked:
            stack = self._stack()
            # well-nested spans finish innermost-first: top of stack
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
        self.emitted += 1
        if self.record:
            ring = self._ring
            if len(ring) == self.capacity:
                self.dropped += 1
            ring.append(span)
        if self.on_finish is not None:
            self.on_finish(span.name, span.duration_us or 0.0)

    # -- the ring --------------------------------------------------------------

    def spans(self) -> list[dict[str, Any]]:
        """The buffered finished spans as dicts (oldest first)."""
        return [span.to_dict() for span in self._ring]

    def drain(self) -> list[dict[str, Any]]:
        """Take and clear the buffered spans (the ``obs_spans`` RPC op)."""
        spans = [span.to_dict() for span in self._ring]
        self._ring.clear()
        return spans

    def stats(self) -> dict[str, Any]:
        return {
            "buffered": len(self._ring),
            "capacity": self.capacity,
            "emitted": self.emitted,
            "dropped": self.dropped,
        }


def write_jsonl(path: str, spans: list[dict[str, Any]]) -> int:
    """Write spans as JSON lines (one span per line, start-time ordered);
    returns the number written.  The file format ``tools/tracetool.py``
    renders."""
    ordered = sorted(spans, key=lambda s: (s.get("trace_id", ""), s.get("start_us", 0)))
    with open(path, "w", encoding="utf-8") as f:
        for span in ordered:
            f.write(json.dumps(span, sort_keys=True) + "\n")
    return len(ordered)


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Load a span JSONL file (blank lines skipped)."""
    spans = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans
