"""Workflow DAGs: stored procedures wired into dataflow graphs (paper §2, §3.2).

A workflow is a set of **edges** ``(in_stream, procedure[, out_stream])``:
a committed atomic batch in ``in_stream`` triggers one invocation of
``procedure`` with that :class:`~repro.streaming.stream.Batch` — one
transaction per (procedure, batch) pair, exactly as the paper's
"transaction execution = (stored procedure, input batch)".  ``out_stream``
declares where the procedure emits its results; it closes the graph so
cycles can be rejected at definition time.

Execution guarantees (enforced by the runtime's scheduler):

* **batch-id order** — deliveries are dispatched smallest-batch-first, so
  batch *b* flows through the whole DAG path before batch *b+1* enters it,
  and each subscription observes strictly increasing batch ids
  (:class:`~repro.common.errors.ScheduleViolation` otherwise);
* **exactly-once** — a delivery is recorded as processed only when its
  transaction commits; an aborted delivery stays at the head of the queue
  and is re-run (its rolled-back effects never became visible, so the
  retry's effects happen exactly once);
* **no interleaving** — the single-partition serial model runs one
  delivery transaction at a time.

Exactly-once **survives crashes** when the database is opened with
``recovery_dir=`` (paper §4.4): every committed delivery is command-
logged with its ``(stream, batch_id, procedure)`` position, strong
recovery replays those records in commit order against the delivery
queue it rebuilds, and the deliveries whose records died in the crash
(committed upstream, never delivered) are what is left queued — the
lost hops never committed, so running them is their first execution.
Weak recovery skips delivery records entirely and re-derives the whole
DAG by re-driving it through the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..common.errors import WorkflowError


def stream_arcs(edges: Iterable["WorkflowEdge"]) -> list[tuple[str, str]]:
    """``(in_stream, out_stream)`` arcs of the given edges (hops with no
    declared output contribute nothing to the graph)."""
    return [(e.in_stream, e.out_stream) for e in edges if e.out_stream is not None]


def find_cycle(arcs: Sequence[tuple[str, str]]) -> Optional[list[str]]:
    """The first cycle in a stream graph, as ``[s1, s2, ..., s1]``; None
    when the graph is acyclic."""
    graph: dict[str, list[str]] = {}
    for src, dst in arcs:
        graph.setdefault(src, []).append(dst)
    WHITE, GREY, BLACK = 0, 1, 2
    state: dict[str, int] = {}

    def visit(node: str, path: list[str]) -> Optional[list[str]]:
        state[node] = GREY
        path.append(node)
        for nxt in graph.get(node, ()):
            colour = state.get(nxt, WHITE)
            if colour == GREY:
                return path[path.index(nxt):] + [nxt]
            if colour == WHITE:
                found = visit(nxt, path)
                if found is not None:
                    return found
        path.pop()
        state[node] = BLACK
        return None

    for node in graph:
        if state.get(node, WHITE) == WHITE:
            found = visit(node, [])
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class WorkflowEdge:
    """One dataflow hop: ``in_stream`` batches drive ``procedure``."""

    in_stream: str
    procedure: str
    out_stream: Optional[str] = None


def _normalise_edge(spec) -> WorkflowEdge:
    if isinstance(spec, WorkflowEdge):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) in (2, 3):
        in_stream, procedure = spec[0], spec[1]
        out_stream = spec[2] if len(spec) == 3 else None
        return WorkflowEdge(
            in_stream.lower(),
            procedure.lower(),
            out_stream.lower() if out_stream else None,
        )
    raise WorkflowError(
        f"bad workflow edge {spec!r}: expected (in_stream, procedure) "
        f"or (in_stream, procedure, out_stream)"
    )


class Workflow:
    """A validated dataflow DAG over registered streams and procedures."""

    __slots__ = ("name", "edges")

    def __init__(self, name: str, edges: Sequence):
        if not name:
            raise WorkflowError("workflow name must be non-empty")
        if not edges:
            raise WorkflowError(f"workflow {name!r} must have at least one edge")
        self.name = name.lower()
        self.edges: tuple[WorkflowEdge, ...] = tuple(_normalise_edge(e) for e in edges)
        seen: set[tuple[str, str]] = set()
        for edge in self.edges:
            key = (edge.in_stream, edge.procedure)
            if key in seen:
                raise WorkflowError(
                    f"workflow {name!r}: duplicate subscription of procedure "
                    f"{edge.procedure!r} to stream {edge.in_stream!r}"
                )
            seen.add(key)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Reject cycles in this workflow's stream graph.

        A cyclic dataflow would re-trigger its own ancestors forever; the
        paper's workflows are DAGs.  The runtime additionally re-checks the
        *union* of all registered workflows at creation time, so two
        individually acyclic workflows cannot form a joint cycle either.
        """
        cycle = find_cycle(stream_arcs(self.edges))
        if cycle is not None:
            raise WorkflowError(
                f"workflow {self.name!r} is cyclic: {' -> '.join(cycle)}"
            )

    def subscriptions(self) -> list[tuple[str, str]]:
        """``(in_stream, procedure)`` pairs, in edge order."""
        return [(e.in_stream, e.procedure) for e in self.edges]

    def describe(self) -> list[dict[str, Optional[str]]]:
        return [
            {"stream": e.in_stream, "procedure": e.procedure, "out": e.out_stream}
            for e in self.edges
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        hops = ", ".join(
            f"{e.in_stream}->{e.procedure}" + (f"->{e.out_stream}" if e.out_stream else "")
            for e in self.edges
        )
        return f"Workflow({self.name!r}: {hops})"
