"""Unit coverage of ``partition/partitioning.py``: the stable hash, routing
modes, key registration, and the strict-mode error paths."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import SchemaError
from repro.partition.partitioning import PartitionMap, stable_hash


# ---------------------------------------------------------------------------
# stable_hash
# ---------------------------------------------------------------------------


def test_stable_hash_is_deterministic_within_process():
    for value in (None, True, False, 0, 1, -17, 2**40, 0.0, 3.25, "", "voter"):
        assert stable_hash(value) == stable_hash(value)


def test_stable_hash_is_stable_across_processes():
    """No PYTHONHASHSEED dependence: a child process with a different seed
    computes identical hashes (placement must survive restarts)."""
    values = [None, True, False, 0, 1, 41, "x-way-3", 2.5]
    expected = [stable_hash(v) for v in values]
    code = (
        "from repro.partition.partitioning import stable_hash\n"
        f"print([stable_hash(v) for v in {values!r}])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            "PYTHONHASHSEED": "12345",
        },
    )
    assert eval(out.stdout.strip()) == expected


def test_stable_hash_type_tags_separate_collision_classes():
    """None/0, False/0, True/1 compare equal across Python types but must
    hash to distinct partitioning classes (the satellite fix)."""
    classes = [None, 0, False, True, 1, 2]
    hashes = [stable_hash(v) for v in classes]
    assert len(set(hashes)) == len(classes)


def test_stable_hash_is_non_negative_31_bit():
    for value in (None, True, -1, -(2**50), 2**50, -2.75, "z" * 100):
        h = stable_hash(value)
        assert 0 <= h <= 0x7FFFFFFF


def test_stable_hash_rejects_unhashable_values():
    with pytest.raises(SchemaError, match="not hashable"):
        stable_hash([1, 2])


# ---------------------------------------------------------------------------
# PartitionMap construction and routing
# ---------------------------------------------------------------------------


def test_partition_of_round_robin_uses_modulo_for_ints():
    pmap = PartitionMap(4, mode="round_robin")
    assert [pmap.partition_of(x) for x in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    # non-int keys fall back to the stable hash
    assert pmap.partition_of("abc") == stable_hash("abc") % 4


def test_partition_of_hash_mode_spreads_and_stays_in_range():
    pmap = PartitionMap(4)
    placements = {pmap.partition_of(k) for k in range(64)}
    assert placements == {0, 1, 2, 3}


def test_single_partition_routes_everything_to_zero():
    pmap = PartitionMap(1)
    assert pmap.partition_of("anything") == 0


def test_constructor_error_paths():
    with pytest.raises(SchemaError, match="at least one partition"):
        PartitionMap(0)
    with pytest.raises(SchemaError, match="unknown partitioning mode"):
        PartitionMap(2, mode="range")


def test_partition_key_registration_is_case_insensitive():
    pmap = PartitionMap(2)
    pmap.set_partition_key("Votes", "Phone")
    assert pmap.partition_key("votes") == "phone"
    assert pmap.partition_key("VOTES") == "phone"
    assert pmap.require_partition_key("vOtEs") == "phone"


def test_strict_mode_rejects_unkeyed_tables():
    """An unkeyed table on a multi-partition map fails loudly instead of
    hot-spotting one partition."""
    pmap = PartitionMap(2)
    with pytest.raises(SchemaError, match="no partition key"):
        pmap.require_partition_key("lookup")


def test_require_partition_key_is_lenient_on_single_partition():
    assert PartitionMap(1).require_partition_key("t") == ""
