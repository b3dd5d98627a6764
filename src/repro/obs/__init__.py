"""End-to-end observability: metrics registry + wall-clock trace spans.

This package is the measurement substrate of the engine (ISSUE 8): a
:class:`MetricsRegistry` of gauges and mergeable latency histograms
and a :class:`~repro.obs.tracing.Tracer` of per-stage wall-clock spans,
bundled behind one :class:`Observability` facade that every layer —
engine, streaming, recovery, partition coordinator/workers, network
server, clients — holds as its ``obs`` attribute.

Three operating points:

* ``DISABLED`` (the default everywhere) — a shared singleton whose
  ``enabled`` is False and whose :meth:`~Observability.span` returns the
  stateless :data:`~repro.obs.tracing.NOOP_SPAN`.  Engine stages open
  spans unguarded (``with obs.span(name, **tags):``), so a disabled site
  costs 0.32–0.34 µs with two tags (CPython 3.11, 2-core Xeon VM, best of
  5 one-second loops).  At ``Scale.smoke()``, seed 3, an op opens 2.5
  (contention), 4.8 (fraud), 7.7 (Linear Road) and 9.3 (leaderboard)
  spans, cold ``plan.compile`` included: 0.8–3.2 µs per op;
* ``Observability(tracing=False)`` — **metrics only**: every span site
  still times itself and feeds its name's latency histogram, but nothing
  is buffered in the span ring;
* ``Observability()`` — **full tracing**: spans additionally land in the
  bounded ring, stitched across process hops by the trace context that
  rides request dicts (:data:`repro.common.framing.TRACE_KEY`).

The registry *backs* ``stats()`` rather than duplicating it: a database
built with ``obs=`` registers :meth:`Observability.stats_section` as the
``"obs"`` section through the ``add_stats_section`` hook, so dashboards
read p99s from the same snapshot API as every other counter.
"""

from __future__ import annotations

from typing import Any, Union

from .metrics import BUCKET_BOUNDS_US, LatencyHistogram, MetricsRegistry
from .tracing import NOOP_SPAN, Span, Tracer, read_jsonl, write_jsonl

__all__ = [
    "BUCKET_BOUNDS_US",
    "DISABLED",
    "LatencyHistogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Observability",
    "Span",
    "Tracer",
    "observability",
    "read_jsonl",
    "write_jsonl",
]


class Observability:
    """One subsystem's metrics + tracing handle.

    Args:
        tracing: buffer finished spans in the ring (full mode).  With
            ``False`` the span sites still time themselves and feed the
            latency histograms — metrics-only mode.
        capacity: span ring size (oldest spans drop beyond it).
        process: label stamped on every span (``client``, ``server``,
            ``coord``, ``p000``, ...) so a stitched trace names where
            each stage ran.
    """

    __slots__ = ("enabled", "tracing", "metrics", "tracer")

    def __init__(
        self,
        *,
        tracing: bool = True,
        capacity: int = 4096,
        process: str = "engine",
    ):
        self.enabled = True
        self.tracing = tracing
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            capacity=capacity,
            process=process,
            record=tracing,
            on_finish=self.metrics.observe,
        )

    # -- instrumentation entry points ----------------------------------------

    def span(self, name: str, **tags: Any) -> Span:
        """Open a span under the current parent; it starts now, ends at
        ``finish()``/``with``-exit, and feeds the ``name`` histogram."""
        return self.tracer.start(name, tags or None)

    def observe(self, name: str, us: float) -> None:
        self.metrics.observe(name, us)

    # -- surfacing -------------------------------------------------------------

    def stats_section(self) -> dict[str, Any]:
        """The ``"obs"`` section registered through ``add_stats_section``."""
        snap = self.metrics.snapshot()
        snap["enabled"] = True
        snap["tracing"] = self.tracing
        snap["spans"] = self.tracer.stats()
        return snap

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Observability(process={self.tracer.process!r}, "
            f"tracing={self.tracing})"
        )


class _Disabled:
    """The shared do-nothing observability (the no-op fast path).

    Span sites call :meth:`span` unguarded and enter the stateless
    :data:`~repro.obs.tracing.NOOP_SPAN` it returns: 0.32–0.34 µs per
    site with two tags, 0.8–3.2 µs per scenario op (figures in the
    package docstring).  Only sites that need the tracer, which this
    object lacks, or skip more than a span read ``enabled`` first:
    ``rpc.open_span`` (detached spans), the server's and the worker's
    request handlers (a clock read, a remote-context activation) and the
    command log's buffer-wait timestamp.
    """

    __slots__ = ()

    enabled = False
    tracing = False
    metrics = None
    tracer = None

    def span(self, name: str, **tags: Any):
        return NOOP_SPAN

    def observe(self, name: str, us: float) -> None:
        pass

    def stats_section(self) -> dict[str, Any]:
        return {"enabled": False}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Observability(DISABLED)"


#: the one disabled instance every un-instrumented component shares
DISABLED = _Disabled()


def observability(
    spec: Union[None, str, Observability], *, process: str = "engine"
) -> Union[Observability, _Disabled]:
    """Normalise an ``obs=`` constructor argument.

    Accepts an :class:`Observability` (used as-is), ``None``/``"off"``
    (→ :data:`DISABLED`), ``"metrics"`` (metrics-only), or ``"full"``
    (tracing).  The string forms are what crosses the fork to partition
    workers, which build their own instance labelled ``process``.
    """
    if spec is None or spec is DISABLED:
        return DISABLED
    if isinstance(spec, Observability):
        return spec
    if spec == "off":
        return DISABLED
    if spec == "metrics":
        return Observability(tracing=False, process=process)
    if spec == "full":
        return Observability(tracing=True, process=process)
    raise ValueError(
        f"obs must be an Observability, None, 'off', 'metrics', or 'full' "
        f"(got {spec!r})"
    )
