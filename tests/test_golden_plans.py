"""Golden outputs of the planner and the constant folder.

``golden_plans.json`` holds, keyed by SQL text:

* ``db.explain(sql)`` for every join query of ``test_joins.QUERIES``, on
  that module's fixture database;
* ``db.explain(sql)`` for every statement of ``LINEAR_ROAD_SQL``,
  planned on the empty deployment and explained after the smoke script;
* ``repr(fold_constants(...))`` over the differential corpus of
  ``test_compile.EXPRESSIONS`` plus a corpus of constant expressions
  (``"raises <Error>"`` where folding raises).

A refactor of the SQL layer must leave all three byte-identical.  After
an intended change to plans or folding, re-record and review the diff:

    PYTHONPATH=src python tests/test_golden_plans.py --record
"""

from __future__ import annotations

import json
import sys
from contextlib import closing
from pathlib import Path

import pytest

from repro.engine.database import Database
from repro.sql.compile import fold_constants
from repro.sql.parser import parse_expression
from repro.workloads.conformance import _single_db, run_ops
from repro.workloads.linear_road import LinearRoadScenario
from repro.workloads.scenario import Scale

GOLDEN = Path(__file__).with_name("golden_plans.json")

#: every SQL text the Linear Road procedures prepare, or prepared before
#: segstat, accident and account became upserts
LINEAR_ROAD_SQL = [
    "SELECT seg, stops FROM vehicle WHERE vid = ?",
    "UPDATE vehicle SET xway = ?, seg = ?, stops = ?, last_t = ? WHERE vid = ?",
    "INSERT INTO vehicle (vid, xway, seg, stops, last_t) VALUES (?, ?, ?, ?, ?)",
    "SELECT cars, speed_sum FROM segstat WHERE xway = ? AND seg = ?",
    "UPDATE segstat SET cars = ?, speed_sum = ? WHERE xway = ? AND seg = ?",
    "INSERT INTO segstat (xway, seg, cars, speed_sum) VALUES (?, ?, ?, ?)",
    "SELECT hits FROM accident WHERE xway = ? AND seg = ?",
    "UPDATE accident SET hits = hits + 1 WHERE xway = ? AND seg = ?",
    "INSERT INTO accident (xway, seg, hits) VALUES (?, ?, 1)",
    "DELETE FROM accident WHERE xway = ? AND seg = ?",
    "SELECT charged FROM account WHERE vid = ?",
    "UPDATE account SET charged = charged + ? WHERE vid = ?",
    "INSERT INTO account (vid, xway, charged) VALUES (?, ?, ?)",
    "INSERT INTO segstat (xway, seg, cars, speed_sum) VALUES (?, ?, 1, ?) "
    "ON CONFLICT (xway, seg) DO UPDATE SET cars = cars + 1, speed_sum = speed_sum + ? "
    "RETURNING cars, speed_sum",
    "INSERT INTO accident (xway, seg, hits) VALUES (?, ?, 1) "
    "ON CONFLICT (xway, seg) DO UPDATE SET hits = hits + 1",
    "INSERT INTO account (vid, xway, charged) VALUES (?, ?, ?) "
    "ON CONFLICT (vid) DO UPDATE SET charged = charged + ?",
]

#: constant expressions: folding, deferred errors and short circuits
CONSTANTS = [
    "1 + 2 * 3",
    "CASE WHEN 1 = 1 THEN 5 ELSE 1/0 END",
    "FALSE AND 1/0 = 1",
    "1/0 = 1 AND FALSE",
    "1 IN (1, 1/0)",
    "COALESCE(NULL, 3, 1/0)",
    "NULLIF(1, 1)",
    "abs('x')",
    "power(-8, 0.5)",
]


def _explain_all(db: Database, queries) -> dict:
    return {sql: db.explain(sql, (1,) * sql.count("?")) for sql in queries}


def _join_plans() -> dict:
    import test_joins

    return _explain_all(test_joins.db.__wrapped__(), test_joins.QUERIES)


def _linear_road_plans() -> dict:
    scenario = LinearRoadScenario()
    with closing(_single_db(scenario)) as db:
        for sql in LINEAR_ROAD_SQL:  # planned on empty tables, as a first call plans
            db.prepare(sql)
        run_ops(db, scenario.ops(20260808, Scale.smoke()))
        return _explain_all(db, LINEAR_ROAD_SQL)


def _fold(sql: str) -> str:
    try:
        return repr(fold_constants(parse_expression(sql)))
    except Exception as exc:  # the error class is the output
        return f"raises {type(exc).__name__}"


def _folds() -> dict:
    from test_compile import EXPRESSIONS

    return {sql: _fold(sql) for sql in [*EXPRESSIONS, *CONSTANTS]}


SECTIONS = {
    "explain_joins": _join_plans,
    "explain_linear_road": _linear_road_plans,
    "fold": _folds,
}


def _normalised(value):
    """JSON round trip, so tuples compare equal to the stored lists."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_matches_golden(section):
    expected = json.loads(GOLDEN.read_text())[section]
    actual = _normalised(SECTIONS[section]())
    assert list(actual) == list(expected)
    for key, value in expected.items():
        assert actual[key] == value, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    golden = {name: _normalised(capture()) for name, capture in SECTIONS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
