"""Index-nested-loop, hash and block-nested-loop join operators.

Each step follows one protocol — built once at plan time by
:func:`~repro.sql.costing.choose_join`, then ``apply(rows, ctx)`` maps
the outer row iterator to the joined iterator — and joins the outer
prefix (everything planned so far) against one named inner table.  The
combined row is always ``outer + inner`` regardless of which side
builds, so downstream
projection slots are stable across algorithms; only the *row order* may
differ between algorithms (SQL makes no ordering promise without
ORDER BY, and the differential tests compare sorted row sets).

* :class:`IndexNestedLoopStep` — equi-join with an inner-table index
  covering the key: one index probe per outer row, no inner scan.
* :class:`HashJoinStep` — equi-join; builds a hash table on the side the
  planner estimated smaller (``build_inner``) and probes with the other.
  NULL join keys never match (SQL equality), and LEFT OUTER rows are
  null-padded after probing.  Emits ``join.build`` / ``join.probe``
  observability spans when tracing is on.
* :class:`BlockNestedLoopStep` — the fallback for arbitrary (non-equi)
  ON predicates: materialises the inner table **once** and loops, unlike
  the legacy per-outer-row rescan.

``rows_scanned`` counts each inner-table row visit exactly once per
statement for hash and block-nested-loop (the build/materialise pass),
which is the point: the legacy nested loop charged ``outer × inner``.
Index-nested-loop counts only the inner rows its probes fetch.
"""

from __future__ import annotations

from typing import Iterator

from .executor import ExecutionContext, KeyFn

__all__ = ["BlockNestedLoopStep", "HashJoinStep", "IndexNestedLoopStep"]


class HashJoinStep:
    """Hash equi-join against ``table_name``: ``outer_key(row, params)``
    and ``inner_key(row, params)`` build each side's key tuple in one
    generated frame."""

    __slots__ = (
        "table_name",
        "arity",
        "outer_key",
        "inner_key",
        "residual",
        "kind",
        "build_inner",
        "op_id",
        "_null_pad",
    )

    def __init__(
        self,
        table_name: str,
        arity: int,
        outer_key: KeyFn,
        inner_key: KeyFn,
        residual,
        kind: str,
        *,
        build_inner: bool = True,
    ):
        self.table_name = table_name
        self.arity = arity
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.residual = residual
        self.kind = kind
        self.build_inner = build_inner
        self.op_id = -1
        self._null_pad = (None,) * arity

    def apply(self, rows: Iterator[tuple], ctx: ExecutionContext) -> Iterator[tuple]:
        if self.build_inner:
            yield from self._apply_build_inner(rows, ctx)
        else:
            yield from self._apply_build_outer(rows, ctx)

    def _apply_build_inner(self, rows, ctx) -> Iterator[tuple]:
        table = ctx.read_table(self.table_name)
        obs = ctx.obs
        params = ctx.params
        residual = self.residual
        left_outer = self.kind == "left"
        inner_key, outer_key = self.inner_key, self.outer_key

        span = obs.span("join.build", table=self.table_name, side="inner") if obs.enabled else None
        build: dict[tuple, list[tuple]] = {}
        scanned = 0
        for _rowid, right in table.scan_visible():
            scanned += 1
            key = inner_key(right, params)
            if None in key:
                continue  # NULL never joins
            bucket = build.get(key)
            if bucket is None:
                build[key] = [right]
            else:
                bucket.append(right)
        ctx.rows_scanned += scanned
        if span is not None:
            span.finish()

        span = obs.span("join.probe", table=self.table_name, side="inner") if obs.enabled else None
        emitted = 0
        try:
            for left in rows:
                matched = False
                bucket = build.get(outer_key(left, params))  # a NULL in the key simply misses
                if bucket is not None:
                    for right in bucket:
                        combined = left + right
                        if residual is None or residual(combined, params):
                            matched = True
                            emitted += 1
                            yield combined
                if left_outer and not matched:
                    emitted += 1
                    yield left + self._null_pad
        finally:
            if span is not None:
                span.finish()
            if ctx.explain_counts is not None:
                ctx.explain_counts[self.op_id] = (
                    ctx.explain_counts.get(self.op_id, 0) + emitted
                )

    def _apply_build_outer(self, rows, ctx) -> Iterator[tuple]:
        table = ctx.read_table(self.table_name)
        obs = ctx.obs
        params = ctx.params
        residual = self.residual
        left_outer = self.kind == "left"
        inner_key, outer_key = self.inner_key, self.outer_key

        span = obs.span("join.build", table=self.table_name, side="outer") if obs.enabled else None
        outer_rows = list(rows)
        build: dict[tuple, list[int]] = {}
        for idx, left in enumerate(outer_rows):
            key = outer_key(left, params)
            if None in key:
                continue
            bucket = build.get(key)
            if bucket is None:
                build[key] = [idx]
            else:
                bucket.append(idx)
        if span is not None:
            span.finish()

        span = obs.span("join.probe", table=self.table_name, side="outer") if obs.enabled else None
        emitted = 0
        matched: set[int] = set()
        scanned = 0
        try:
            for _rowid, right in table.scan_visible():
                scanned += 1
                bucket = build.get(inner_key(right, params))
                if bucket is None:
                    continue
                for idx in bucket:
                    combined = outer_rows[idx] + right
                    if residual is None or residual(combined, params):
                        matched.add(idx)
                        emitted += 1
                        yield combined
            if left_outer:
                pad = self._null_pad
                for idx, left in enumerate(outer_rows):
                    if idx not in matched:
                        emitted += 1
                        yield left + pad
        finally:
            ctx.rows_scanned += scanned
            if span is not None:
                span.finish()
            if ctx.explain_counts is not None:
                ctx.explain_counts[self.op_id] = (
                    ctx.explain_counts.get(self.op_id, 0) + emitted
                )


class IndexNestedLoopStep:
    """Index-nested-loop join: per outer row, probe an inner-table equality
    index with the key ``key_fn(row, params)`` builds from the outer row in
    one generated frame, instead of scanning the whole inner table.
    Residual ON conjuncts (those not covered by the index key) are
    evaluated on the combined row."""

    __slots__ = (
        "table_name", "arity", "index_name", "key_fn", "residual", "kind",
        "op_id", "_null_pad",
    )

    def __init__(
        self,
        table_name: str,
        arity: int,
        index_name: str,
        key_fn: KeyFn,
        residual,
        kind: str,
    ):
        self.table_name = table_name
        self.arity = arity
        self.index_name = index_name
        self.key_fn = key_fn
        self.residual = residual
        self.kind = kind
        self.op_id = -1
        self._null_pad = (None,) * arity

    def apply(self, rows: Iterator[tuple], ctx: ExecutionContext) -> Iterator[tuple]:
        table = ctx.read_table(self.table_name)
        index = table.index(self.index_name)
        residual = self.residual
        params = ctx.params
        left_outer = self.kind == "left"
        visible = table.is_visible
        key_fn = self.key_fn
        emitted = 0
        try:
            for left in rows:
                matched = False
                key = key_fn(left, params)
                ctx.index_probes += 1
                if None not in key:  # col = NULL never matches
                    for rowid in index.lookup(key):
                        right = table.get(rowid)
                        if right is None or not visible(right):
                            continue
                        ctx.rows_scanned += 1
                        combined = left + right
                        if residual is None or residual(combined, params):
                            matched = True
                            emitted += 1
                            yield combined
                if left_outer and not matched:
                    emitted += 1
                    yield left + self._null_pad
        finally:
            if ctx.explain_counts is not None:
                ctx.explain_counts[self.op_id] = (
                    ctx.explain_counts.get(self.op_id, 0) + emitted
                )



class BlockNestedLoopStep:
    """Nested loop with the inner table materialised **once** — the
    fallback for non-equi ON predicates (and CROSS joins)."""

    __slots__ = ("table_name", "arity", "on_pred", "kind", "op_id", "_null_pad")

    def __init__(self, table_name: str, arity: int, on_pred, kind: str):
        self.table_name = table_name
        self.arity = arity
        self.on_pred = on_pred
        self.kind = kind
        self.op_id = -1
        self._null_pad = (None,) * arity

    def apply(self, rows: Iterator[tuple], ctx: ExecutionContext) -> Iterator[tuple]:
        table = ctx.read_table(self.table_name)
        params = ctx.params
        on_pred = self.on_pred
        left_outer = self.kind == "left"
        inner_rows = [row for _rowid, row in table.scan_visible()]
        ctx.rows_scanned += len(inner_rows)
        emitted = 0
        try:
            for left in rows:
                matched = False
                for right in inner_rows:
                    combined = left + right
                    if on_pred is None or on_pred(combined, params):
                        matched = True
                        emitted += 1
                        yield combined
                if left_outer and not matched:
                    emitted += 1
                    yield left + self._null_pad
        finally:
            if ctx.explain_counts is not None:
                ctx.explain_counts[self.op_id] = (
                    ctx.explain_counts.get(self.op_id, 0) + emitted
                )
