"""Table constraint enforcement, index maintenance, undo, snapshots."""

import enum
import itertools

import pytest

from repro.common.errors import ConstraintViolation, SchemaError
from repro.common.types import ColumnType as T
from repro.common.types import coerce_value
from repro.storage.schema import Column, TableSchema, schema
from repro.storage.table import Table


def users_table():
    return Table(
        schema(
            "users",
            ("id", T.BIGINT, False),
            ("email", T.VARCHAR),
            ("age", T.INTEGER),
            primary_key=["id"],
            unique_keys=[["email"]],
        )
    )


def test_primary_key_enforced():
    t = users_table()
    t.insert((1, "a@x", 30))
    with pytest.raises(ConstraintViolation):
        t.insert((1, "b@x", 31))
    assert t.row_count() == 1  # failed insert left no partial state


def test_unique_key_enforced_but_nulls_allowed():
    t = users_table()
    t.insert((1, "a@x", 30))
    with pytest.raises(ConstraintViolation):
        t.insert((2, "a@x", 31))
    # NULL is distinct from every value including NULL: multiple NULL emails ok
    t.insert((2, None, 31))
    t.insert((3, None, 32))
    assert t.row_count() == 3


def test_not_null_enforced_and_coercion():
    t = users_table()
    with pytest.raises(ConstraintViolation):
        t.insert((None, "a@x", 30))
    rowid = t.insert(("7", "a@x", "41"))  # strings coerced to ints
    assert t.get(rowid) == (7, "a@x", 41)


def test_update_maintains_indexes():
    t = users_table()
    r1 = t.insert((1, "a@x", 30))
    t.insert((2, "b@x", 31))
    with pytest.raises(ConstraintViolation):
        t.update_row(r1, (1, "b@x", 30))  # collides with row 2's email
    old = t.update_row(r1, (1, "c@x", 33))
    assert old == (1, "a@x", 30)
    email_idx = t.find_equality_index(["email"])
    assert list(email_idx.lookup(("c@x",))) == [r1]
    assert list(email_idx.lookup(("a@x",))) == []


def test_delete_and_restore_row_undo():
    t = users_table()
    rowid = t.insert((1, "a@x", 30))
    old = t.delete_row(rowid)
    assert old == (1, "a@x", 30)
    assert t.get(rowid) is None
    pk = t.find_equality_index(["id"])
    assert list(pk.lookup((1,))) == []

    t.restore_row(rowid, old)  # undo
    assert t.get(rowid) == old
    assert list(pk.lookup((1,))) == [rowid]
    with pytest.raises(ConstraintViolation):
        t.restore_row(rowid, old)  # rowid already live


def test_missing_rowid_raises_no_such_row():
    from repro.common.errors import NoSuchRowError

    t = users_table()
    with pytest.raises(NoSuchRowError):
        t.delete_row(99)
    with pytest.raises(NoSuchRowError):
        t.update_row(99, (1, "a@x", 30))


def test_restore_row_preserves_arrival_order_and_snapshot():
    t = users_table()
    rowids = [t.insert((i, f"u{i}@x", 20 + i)) for i in range(4)]
    before = t.snapshot_state()
    old = t.delete_row(rowids[1])
    t.insert((9, "new@x", 99))
    t.delete_row(rowids[3] + 1)  # remove the row just inserted
    t.restore_row(rowids[1], old)  # out-of-order restore re-sorts
    assert [rowid for rowid, _row in t.scan()] == rowids
    assert t.snapshot_state()["rows"] == before["rows"]


def test_rowids_monotonic_never_reused():
    t = users_table()
    r1 = t.insert((1, None, 1))
    t.delete_row(r1)
    r2 = t.insert((2, None, 2))
    assert r2 > r1


def test_scan_insertion_order():
    t = users_table()
    for i in (3, 1, 2):
        t.insert((i, None, i))
    assert [row[0] for row in t.scan_rows()] == [3, 1, 2]
    assert [row[0] for _rid, row in t.scan()] == [3, 1, 2]
    assert [row[0] for _rid, row in t.scan_visible()] == [3, 1, 2]


def test_materialised_scan_survives_mutation():
    # The scan contract: materialise before mutating (what DML runners do).
    t = users_table()
    for i in range(5):
        t.insert((i, None, i))
    targets = list(t.scan())
    for rowid, _row in targets:
        t.delete_row(rowid)
    assert t.row_count() == 0


def test_find_equality_index_exact_and_subset():
    t = users_table()
    # exact match, preferring the unique pk
    assert t.find_equality_index(["id"]).name == "users_pkey"
    assert t.find_equality_index(["email"]).name == "users_uniq0"
    # no exact index on {id, age}: plain lookup misses, subset mode probes pk
    assert t.find_equality_index(["id", "age"]) is None
    assert t.find_equality_index(["id", "age"], subset=True).name == "users_pkey"
    assert t.find_equality_index(["age"], subset=True) is None


def test_create_index_backfills_and_rejects_duplicates():
    t = users_table()
    t.insert((1, None, 30))
    t.insert((2, None, 35))
    idx = t.create_index("users_age", ["age"], ordered=True)
    assert list(idx.range_scan(30, 35)) == [1, 2]
    with pytest.raises(SchemaError):
        t.create_index("users_age", ["age"])


def test_create_unique_index_over_null_keys():
    # the backfill follows the insert path: NULL keys are never indexed
    t = users_table()
    t.insert((1, None, None))
    t.insert((2, None, None))
    t.create_index("users_age_uniq", ["age"], unique=True)
    t.insert((3, None, 40))
    with pytest.raises(ConstraintViolation):
        t.insert((4, None, 40))


def test_create_index_leaves_no_null_key_behind_a_delete():
    t = users_table()
    rowid = t.insert((1, None, None))
    idx = t.create_index("users_age_hash", ["age"])
    t.delete_row(rowid)
    assert len(idx) == 0


def test_snapshot_roundtrip():
    t = users_table()
    t.insert((1, "a@x", 30))
    rid = t.insert((2, "b@x", 31))
    t.delete_row(rid)
    state = t.snapshot_state()

    t2 = users_table()
    t2.load_snapshot_state(state)
    assert t2.row_count() == 1
    assert t2.get(1) == (1, "a@x", 30)
    pk = t2.find_equality_index(["id"])
    assert list(pk.lookup((1,))) == [1]
    # next_rowid preserved: new inserts do not collide with old rowids
    assert t2.insert((3, None, 1)) == 3


def test_truncate_clears_rows_and_indexes():
    t = users_table()
    t.insert((1, "a@x", 30))
    assert t.truncate() == 1
    assert t.row_count() == 0
    t.insert((1, "a@x", 30))  # pk free again


# -- the generated row coercer vs a reference loop over coerce_value ----------


def reference_coerce_row(sch: TableSchema, values) -> tuple:
    """``TableSchema.coerce_row`` as a plain loop: the behaviour the
    per-schema generated coercer must reproduce cell for cell."""
    if len(values) != len(sch.columns):
        raise SchemaError(
            f"table {sch.name!r} expects {len(sch.columns)} values, got {len(values)}"
        )
    out = []
    for col, value in zip(sch.columns, values):
        if value is None:
            value = col.default
        if value is None and not col.nullable:
            raise ConstraintViolation(
                f"column {col.name!r} of table {sch.name!r} is NOT NULL"
            )
        out.append(coerce_value(value, col.ctype, column=col.name))
    return tuple(out)


def outcome(fn, *args):
    """The value *and types* a call produced, or its exception class and
    message (``repr`` so that NaN compares equal to itself)."""
    try:
        row = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raised", type(exc), str(exc))
    return ("row", repr(row), tuple(type(v) for v in row))


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


CELLS = [
    None, True, False,
    0, 1, -1, Colour.RED,
    2**31 - 1, 2**31, -(2**31), -(2**31) - 1,       # INTEGER's edges
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1,       # BIGINT's edges
    3.0, -0.0, 2.5, 1e300, float("nan"), float("inf"),
    "42", "-7", "4.5", "1e3", "abc", "", " 12 ", Name("n"),
    b"42", (1,), [1], {"a": 1}, object,
]
DEFAULTS = {
    T.INTEGER: 7, T.BIGINT: 7, T.TIMESTAMP: 7,
    T.FLOAT: 1.5, T.VARCHAR: "dflt", T.BOOLEAN: True,
}


@pytest.mark.parametrize("ctype", list(T), ids=lambda t: t.name)
@pytest.mark.parametrize("nullable", [True, False], ids=["null", "notnull"])
@pytest.mark.parametrize("with_default", [False, True], ids=["nodefault", "default"])
def test_generated_coercer_matches_reference_per_cell(ctype, nullable, with_default):
    default = DEFAULTS[ctype] if with_default else None
    sch = TableSchema("t", [Column("c", ctype, nullable, default)])
    for cell in CELLS:
        assert outcome(sch.coerce_row, [cell]) == outcome(
            reference_coerce_row, sch, [cell]
        ), (ctype, cell)


def test_generated_coercer_matches_reference_across_a_row():
    sch = TableSchema(
        "wide",
        [Column(f"c_{t.name.lower()}", t, nullable=(i % 2 == 0)) for i, t in enumerate(T)]
        + [Column("d", T.INTEGER, False, 9)],
    )
    good = {
        T.INTEGER: 5, T.BIGINT: 2**40, T.TIMESTAMP: 17, T.FLOAT: 0.5,
        T.VARCHAR: "s", T.BOOLEAN: False,
    }
    base = [good[c.ctype] for c in sch.columns]
    assert sch.coerce_row(base) == tuple(base)
    assert sch.coerce_row(tuple(base)) == tuple(base)  # any sequence type
    # one odd cell at a time: the first failing column decides the error
    for slot, cell in itertools.product(range(len(base)), CELLS):
        row = list(base)
        row[slot] = cell
        assert outcome(sch.coerce_row, row) == outcome(reference_coerce_row, sch, row)
    # two bad cells: the error is the leftmost one's, as in the loop
    row = ["x"] + base[1:-1] + ["y"]
    assert outcome(sch.coerce_row, row) == outcome(reference_coerce_row, sch, row)


@pytest.mark.parametrize("values", [[], [1], [1, 2], (1, "a", 2, 3)], ids=str)
def test_generated_coercer_arity_errors_match_reference(values):
    sch = users_table().schema
    assert outcome(sch.coerce_row, values) == outcome(reference_coerce_row, sch, values)
    assert outcome(sch.coerce_row, values)[1] is SchemaError


def test_coercer_is_built_on_first_use_and_only_falls_back_per_cell():
    sch = users_table().schema
    assert sch._coercer is None  # a schema never written compiles nothing
    coerce = sch.coerce_row
    assert sch.coerce_row is coerce  # built once
    # the fast path calls nothing: coerce_value appears only via the fallback
    assert "coerce_value" not in coerce._source
    assert coerce._source.count("cell(") == len(sch.columns)
