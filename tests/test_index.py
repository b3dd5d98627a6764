"""Index behaviour: hash lookup, unique enforcement, ordered range scans."""

import pytest

from repro.common.errors import ConstraintViolation
from repro.storage.index import HashIndex, OrderedIndex, rebuild


# -- HashIndex ---------------------------------------------------------------

def test_hash_insert_lookup_delete():
    idx = HashIndex("i", ["k"])
    idx.insert((1,), 10)
    idx.insert((1,), 11)
    idx.insert((2,), 12)
    assert list(idx.lookup((1,))) == [10, 11]  # deterministic (sorted)
    idx.delete((1,), 10)
    assert list(idx.lookup((1,))) == [11]
    idx.delete((1,), 11)
    assert list(idx.lookup((1,))) == []
    assert len(idx) == 1


def test_hash_unique_rejects_duplicates():
    idx = HashIndex("pk", ["k"], unique=True)
    idx.insert((1,), 10)
    with pytest.raises(ConstraintViolation):
        idx.insert((1,), 11)
    assert list(idx.lookup((1,))) == [10]


def test_hash_delete_ignores_stale_rowid():
    idx = HashIndex("pk", ["k"], unique=True)
    idx.insert((1,), 10)
    idx.delete((1,), 99)  # wrong rowid: entry survives
    assert list(idx.lookup((1,))) == [10]


# -- OrderedIndex ------------------------------------------------------------

def test_ordered_range_scan_bounds():
    idx = OrderedIndex("o", ["k"])
    for i, rid in [(5, 1), (3, 2), (8, 3), (5, 4), (1, 5)]:
        idx.insert((i,), rid)
    assert list(idx.range_scan(3, 5)) == [2, 1, 4]                    # inclusive
    assert list(idx.range_scan(3, 5, lo_inclusive=False)) == [1, 4]
    assert list(idx.range_scan(3, 5, hi_inclusive=False)) == [2]
    assert list(idx.range_scan(None, 3)) == [5, 2]                    # open low
    assert list(idx.range_scan(6, None)) == [3]                       # open high
    assert list(idx.range_scan(None, None)) == [5, 2, 1, 4, 3]


def test_ordered_insert_delete_and_min_max():
    idx = OrderedIndex("o", ["k"])
    idx.insert((5,), 1)
    idx.insert((5,), 2)
    idx.insert((2,), 3)
    assert idx.min_key() == 2 and idx.max_key() == 5
    idx.delete((5,), 1)
    assert list(idx.lookup((5,))) == [2]
    idx.delete((5,), 2)
    assert idx.max_key() == 2


def test_ordered_skips_null_keys():
    idx = OrderedIndex("o", ["k"])
    idx.insert((None,), 1)
    assert len(idx) == 0
    assert list(idx.lookup((None,))) == []
    assert idx.contains((None,)) is False


def test_ordered_requires_single_column():
    with pytest.raises(ValueError):
        OrderedIndex("o", ["a", "b"])


def test_rebuild():
    idx = HashIndex("i", ["a"])
    idx.insert((9,), 99)
    rows = [(1, (10, "x")), (2, (20, "y"))]
    rebuild(idx, rows, key_of=lambda row, cols: (row[0],))
    assert list(idx.lookup((9,))) == []
    assert list(idx.lookup((10,))) == [1]
    assert list(idx.lookup((20,))) == [2]


def test_rebuild_skips_null_keys():
    idx = HashIndex("i", ["a"], unique=True)
    rows = [(1, (None, "x")), (2, (None, "y")), (3, (30, "z"))]
    rebuild(idx, rows, key_of=lambda row, cols: (row[0],))
    assert len(idx) == 1
    assert list(idx.lookup((None,))) == []
    assert list(idx.lookup((30,))) == [3]
