"""A SQL value error is an ExpressionError on every engine shape.

An operand Python cannot compute with (the square root of a negative
number through ``power``, an overflowing float, a VARCHAR digit count, a
``SUM`` over text) raises :class:`ExpressionError` at execute — never a
raw ``ValueError``/``OverflowError``/``TypeError``, never at prepare when
the operands are constants, and never re-labelled as a worker failure by
a partitioned engine.
"""

import pytest

from repro.common.errors import ExpressionError
from repro.common.types import ColumnType as T
from repro.engine.database import Database
from repro.partition import PartitionedDatabase
from repro.storage.schema import schema

BAD_STATEMENTS = [
    "SELECT power(f, 0.5) FROM m WHERE id = 1",
    "SELECT power(10.0, 1000) FROM m WHERE id = 1",
    "SELECT round(f, s) FROM m WHERE id = 1",
    "SELECT sum(s) FROM m",
    "SELECT avg(s) FROM m",
    "SELECT abs('x')",
    "SELECT power(-8, 0.5)",
]

#: MIN/MAX over a text and a number: needs both rows on one engine
MIXED_TYPES = [
    "SELECT max(CASE WHEN id = 1 THEN s ELSE f END) FROM m",
    "SELECT min(CASE WHEN id = 1 THEN s ELSE f END) FROM m",
]


def deploy(db, part=None):
    db.create_table(
        schema(
            "m",
            ("id", T.BIGINT, False),
            ("f", T.FLOAT),
            ("s", T.VARCHAR),
            primary_key=["id"],
        )
    )


def load(engine):
    for row in ((1, -4.0, "two"), (2, 9.0, "one")):
        engine.execute("INSERT INTO m VALUES (?, ?, ?)", row, key=row[0])


@pytest.mark.parametrize("sql", BAD_STATEMENTS + MIXED_TYPES)
def test_single_engine_raises_expression_error(sql):
    db = Database(bootstrap=deploy)
    load(db)
    db.prepare(sql)  # constant operands still prepare cleanly
    with pytest.raises(ExpressionError):
        db.execute(sql)
    # the engine is still usable
    assert db.execute("SELECT COUNT(*) FROM m").rows == [(2,)]


@pytest.mark.parametrize("sql", BAD_STATEMENTS)
def test_inline_partitions_raise_expression_error_not_partition_error(sql):
    with PartitionedDatabase(
        2, deploy, partition_keys={"m": "id"}, workers="inline"
    ) as pdb:
        load(pdb)
        with pytest.raises(ExpressionError) as info:
            pdb.execute(sql, key=1)
        assert "[partition" in str(info.value)
