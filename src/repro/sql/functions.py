"""Aggregate function accumulators (COUNT/SUM/AVG/MIN/MAX, with DISTINCT).

The planner instantiates one accumulator per aggregate call per group; the
executor feeds every group row through :meth:`Accumulator.add` and reads
:meth:`Accumulator.result` at the end.  SQL NULL handling: all aggregates
ignore NULL inputs; ``COUNT(*)`` counts rows regardless; SUM/AVG/MIN/MAX of
an all-NULL (or empty) input are NULL, while COUNT is 0.  An input the
aggregate cannot combine (``SUM`` of a VARCHAR, ``MAX`` over mixed types)
raises :class:`ExpressionError`, as it would in a scalar expression.
"""

from __future__ import annotations

from typing import Any, Callable

from ..common.errors import ExpressionError, PlanningError


class Accumulator:
    """Base class for one aggregate computation over one group."""

    __slots__ = ()

    def _reject(self, value: Any) -> ExpressionError:
        return ExpressionError(
            f"{type(self).__name__.upper()} cannot combine a {type(value).__name__} value"
        )

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountStar(Accumulator):
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def add(self, value: Any) -> None:
        self.n += 1

    def result(self) -> int:
        return self.n


class Count(Accumulator):
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.n += 1

    def result(self) -> int:
        return self.n


class Sum(Accumulator):
    __slots__ = ("total", "seen")

    def __init__(self) -> None:
        self.total: Any = 0
        self.seen = False

    def add(self, value: Any) -> None:
        if value is not None:
            try:
                self.total += value
            except TypeError:
                raise self._reject(value) from None
            self.seen = True

    def result(self) -> Any:
        return self.total if self.seen else None


class Avg(Accumulator):
    __slots__ = ("total", "n")

    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            try:
                self.total += value
            except TypeError:
                raise self._reject(value) from None
            self.n += 1

    def result(self) -> Any:
        return self.total / self.n if self.n else None


class Min(Accumulator):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        try:
            if value is not None and (self.best is None or value < self.best):
                self.best = value
        except TypeError:
            raise self._reject(value) from None

    def result(self) -> Any:
        return self.best


class Max(Accumulator):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        try:
            if value is not None and (self.best is None or value > self.best):
                self.best = value
        except TypeError:
            raise self._reject(value) from None

    def result(self) -> Any:
        return self.best


class Distinct(Accumulator):
    """Wraps another accumulator, feeding each distinct non-NULL value once."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner: Accumulator) -> None:
        self.inner = inner
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_FACTORIES: dict[str, Callable[[], Accumulator]] = {
    "count": Count,
    "sum": Sum,
    "avg": Avg,
    "min": Min,
    "max": Max,
}


def make_accumulator(name: str, *, star: bool = False, distinct: bool = False) -> Accumulator:
    """Build the accumulator for one aggregate call.

    >>> acc = make_accumulator("count", star=True)
    >>> acc.add(None); acc.add(1); acc.result()
    2
    """
    if star:
        if name != "count":
            raise PlanningError(f"{name.upper()}(*) is not valid SQL")
        if distinct:
            raise PlanningError("COUNT(DISTINCT *) is not valid SQL")
        return CountStar()
    factory = _FACTORIES.get(name)
    if factory is None:
        raise PlanningError(f"unknown aggregate function {name!r}")
    acc = factory()
    if distinct:
        return Distinct(acc)
    return acc
