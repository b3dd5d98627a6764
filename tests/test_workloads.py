"""Workload scenarios × engine shapes: the cross-engine conformance matrix.

Every scenario replays one seeded script against each engine shape; the
single-``Database`` digest is the reference and any divergence fails.
The process-worker column forks real processes, so it is marked
``slow``/``multicore`` and the fast tier runs the inline column (same
wire discipline, no forks).
"""

from contextlib import closing

import pytest

from repro.partition import PartitionedDatabase
from repro.recovery.log import scan_log
from repro.workloads import (
    ALL_SCENARIOS,
    ContentionScenario,
    FraudScenario,
    Rng,
    run_shape,
    state_digest,
)
from repro.workloads.conformance import _single_db, run_ops
from repro.workloads.scenario import Scale, call

SEED = 20260808
NAMES = [cls().name for cls in ALL_SCENARIOS]


@pytest.fixture(scope="module")
def refs():
    """Single-engine reference run per scenario: (scenario, ops, result)."""
    out = {}
    for cls in ALL_SCENARIOS:
        s = cls()
        ops = s.ops(SEED, Scale.smoke())
        out[s.name] = (s, ops, run_shape(s, ops, "single"))
    return out


# ---------------------------------------------------------------------------
# The deterministic generator (satellite: seeded, byte-for-byte stable)
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_splitmix64_known_vector(self):
        # published splitmix64 test vector: first output for seed 0
        assert Rng(0).next_u64() == 0xE220A8397B1DCDAF

    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        assert [a.randint(0, 999) for _ in range(50)] == [
            b.randint(0, 999) for _ in range(50)
        ]

    def test_fork_streams_are_independent(self):
        r = Rng(5)
        c1, c2 = r.fork(1), r.fork(2)
        assert [c1.next_u64() for _ in range(5)] != [c2.next_u64() for _ in range(5)]

    def test_shuffle_and_choice_are_deterministic(self):
        items = list(range(10))
        Rng(9).shuffle(items)
        again = list(range(10))
        Rng(9).shuffle(again)
        assert items == again
        assert Rng(9).choice("abcdef") == Rng(9).choice("abcdef")

    @pytest.mark.parametrize("name", NAMES)
    def test_scripts_reproduce_byte_for_byte(self, name, refs):
        s, ops, _ = refs[name]
        assert type(s)().ops(SEED, Scale.smoke()) == ops

    @pytest.mark.parametrize("name", NAMES)
    def test_scripts_vary_with_seed(self, name, refs):
        s, ops, _ = refs[name]
        assert type(s)().ops(SEED + 1, Scale.smoke()) != ops


# ---------------------------------------------------------------------------
# Conformance matrix
# ---------------------------------------------------------------------------


def assert_conforms(ref, got):
    assert got.violations == []
    assert got.aborts == ref.aborts
    if got.digest != ref.digest:
        diverged = {
            t for t in got.tables if got.tables[t] != ref.tables[t]
        }
        pytest.fail(f"{got.shape} digest diverges from reference in {sorted(diverged)}")


@pytest.mark.parametrize("name", NAMES)
def test_single_reference_upholds_invariants(name, refs):
    _s, _ops, ref = refs[name]
    assert ref.violations == []


@pytest.mark.parametrize("name", NAMES)
def test_inline_partitioned_matches_reference(name, refs):
    s, ops, ref = refs[name]
    assert_conforms(ref, run_shape(s, ops, "inline"))


@pytest.mark.parametrize("name", NAMES)
def test_three_partitions_match_reference(name, refs):
    s, ops, ref = refs[name]
    assert_conforms(ref, run_shape(s, ops, "inline", partitions=3))


@pytest.mark.parametrize("name", NAMES)
def test_served_over_tcp_matches_reference(name, refs):
    s, ops, ref = refs[name]
    assert_conforms(ref, run_shape(s, ops, "served"))


@pytest.mark.parametrize("name", NAMES)
def test_crash_recover_matches_reference(name, refs, tmp_path):
    s, ops, ref = refs[name]
    assert_conforms(ref, run_shape(s, ops, "recover", tmp_path=tmp_path))


@pytest.mark.parametrize("cut_frac", [0.25, 0.9])
def test_crash_boundary_position_is_immaterial(cut_frac, refs, tmp_path):
    s, ops, ref = refs["linear_road"]
    cut = max(1, int(len(ops) * cut_frac))
    got = run_shape(s, ops, "recover", tmp_path=tmp_path / str(cut), crash_at=cut)
    assert_conforms(ref, got)


@pytest.mark.parametrize("mode", ["strong", "weak"])
@pytest.mark.parametrize("name", NAMES)
def test_op_boundary_crash_sweep(name, mode, refs, tmp_path):
    """Crash (``flush_log``, then abandon) after every op k, reopen in the
    same mode and run halfway through the rest, crash again, reopen and
    finish: every run ends at the reference digest, invariants intact."""
    s, ops, ref = refs[name]
    for k in range(len(ops) + 1):
        d = tmp_path / f"k{k}"
        mid = k + (len(ops) - k) // 2
        aborts = 0
        for start, stop in ((0, k), (k, mid)):
            crashed = _single_db(s, recovery_dir=d, recovery=mode)
            aborts += run_ops(crashed, ops[start:stop])
            crashed.flush_log()
        with closing(_single_db(s, recovery_dir=d, recovery=mode)) as db:
            aborts += run_ops(db, ops[mid:])
            read = lambda sql: [tuple(r) for r in db.execute(sql).rows]  # noqa: E731
            assert state_digest(read, s.output_tables)[0] == ref.digest, f"crash after op {k}"
            assert s.check(read, ops, aborts) == [], f"crash after op {k}"


#: records in a weak-mode command log at seed 3 (the border only: no
#: workflow delivery is logged)
WEAK_LOG_RECORDS = {
    "smoke": {"linear_road": 6, "fraud": 6, "leaderboard": 12, "contention": 16},
    "full": {"linear_road": 40, "fraud": 40, "leaderboard": 80, "contention": 189},
}


@pytest.mark.parametrize("scale", sorted(WEAK_LOG_RECORDS))
def test_weak_log_record_counts_are_pinned(scale, tmp_path):
    counts = {}
    for cls in ALL_SCENARIOS:
        s = cls()
        d = tmp_path / s.name
        with closing(_single_db(s, recovery_dir=d, recovery="weak")) as db:
            run_ops(db, s.ops(3, getattr(Scale, scale)()))
        _header, records, _end = scan_log(d / "command.log")
        assert {r["op"] for r in records} <= {"ingest", "call", "txn"}
        counts[s.name] = len(records)
    assert counts == WEAK_LOG_RECORDS[scale]


@pytest.mark.slow
@pytest.mark.multicore
@pytest.mark.parametrize("name", NAMES)
def test_process_partitioned_matches_reference(name, refs):
    s, ops, ref = refs[name]
    assert_conforms(ref, run_shape(s, ops, "process"))


# ---------------------------------------------------------------------------
# Scenario-specific behaviour
# ---------------------------------------------------------------------------


def test_contention_workload_actually_contends(refs):
    _s, _ops, ref = refs["contention"]
    assert ref.aborts > 0  # otherwise the scenario stresses nothing


def test_linear_road_produces_accidents_and_tolls(refs):
    s, ops, ref = refs["linear_road"]
    assert ref.tables["account"], "no tolls were ever charged"
    # the generator must exercise the accident path: some vehicle reports
    # zero speed twice in a row without changing segment
    streak: dict[int, tuple] = {}
    declared = False
    for vid, _t, _xway, seg, speed in s.ingested_rows(ops, "position"):
        prev_seg, n = streak.get(vid, (None, 0))
        n = (n + 1 if seg == prev_seg else 1) if speed == 0 else 0
        streak[vid] = (seg, n)
        declared = declared or n >= 2
    assert declared, "generator never produced an accident"


def test_linear_road_statements_probe_instead_of_scanning(refs):
    # every Linear Road table is probed by its primary key, and every
    # plan is pinned at first call, against empty tables: those plans
    # must already be index probes.  A count, so it repeats exactly.
    s, ops, _ref = refs["linear_road"]
    input_rows = sum(len(op.rows) for op in ops)
    scanned = []
    for _ in range(2):
        with closing(_single_db(s)) as db:
            run_ops(db, ops)
            scanned.append(db.stats()["counters"]["rows_scanned"])
    assert scanned[0] == scanned[1]
    assert scanned[0] / input_rows <= 10


LINEAR_ROAD_EVENTS = {
    "client_submit": 6, "index_probes": 203, "pe_trigger": 12,
    "procedure_call": 12, "rows_inserted": 101, "rows_scanned": 129,
    "rows_updated": 86, "sql_plan": 8, "sql_stmt": 210, "txn_begin": 18,
    "txn_commit": 18, "txn_implicit": 6,
}


def test_linear_road_event_counts_are_pinned(refs):
    # the work one Database does for the smoke script, event by event: a
    # faster statement path that skips or repeats a probe, a scan or a
    # write changes a count here
    s, ops, _ref = refs["linear_road"]
    with closing(_single_db(s)) as db:
        run_ops(db, ops)
        assert db.stats("events") == LINEAR_ROAD_EVENTS


def test_fraud_alerts_match_pure_python_oracle(refs):
    s, ops, ref = refs["fraud"]
    assert ref.tables["alerts"] == s.expected_alerts(ops)
    assert ref.tables["hot_cards"] == s.expected_hot(ops)
    assert ref.tables["alerts"], "no over-limit transaction was generated"
    assert ref.tables["hot_cards"], "velocity rule never fired"


def test_leaderboard_closes_sessions(refs):
    _s, _ops, ref = refs["leaderboard"]
    assert any(r[5] > 0 for r in ref.tables["sessions"]), "no session ever closed"


def test_leaderboard_pe_trigger_fires_per_batch(refs):
    s, ops, _ref = refs["leaderboard"]
    db = _single_db(s)
    try:
        run_ops(db, ops)
        fires = db.execute("SELECT fires FROM monitor").rows[0][0]
        assert fires == sum(1 for op in ops if op.kind == "ingest")
    finally:
        db.close()


# ---------------------------------------------------------------------------
# force_join differential sweep on the streaming hot path (satellite)
# ---------------------------------------------------------------------------


class TestFraudJoinSweep:
    """Every join strategy must produce identical alerts from the
    window-to-table join — the PR 9 differential sweep extended from
    static tables to a live window on the ingest path."""

    STRATEGIES = (None, "inl", "hash", "bnl")

    @pytest.fixture(scope="class")
    def sweep(self):
        s = FraudScenario()
        ops = s.ops(SEED, Scale.smoke())
        results = {}
        for strategy in self.STRATEGIES:
            def pin(db, strategy=strategy):
                db.force_join = strategy
            results[strategy] = run_shape(s, ops, "single", setup=pin)
        return s, ops, results

    def test_all_strategies_agree(self, sweep):
        _s, _ops, results = sweep
        digests = {k: v.digest for k, v in results.items()}
        assert len(set(digests.values())) == 1, f"strategies diverge: {digests}"

    def test_all_strategies_match_oracle(self, sweep):
        s, ops, results = sweep
        for strategy, res in results.items():
            assert res.violations == [], f"{strategy}: {res.violations}"
            assert res.tables["alerts"] == s.expected_alerts(ops), strategy


# ---------------------------------------------------------------------------
# Harness plumbing
# ---------------------------------------------------------------------------


def test_unknown_shape_rejected(refs):
    s, ops, _ = refs["contention"]
    with pytest.raises(ValueError, match="unknown engine shape"):
        run_shape(s, ops, "quantum")


def test_recover_shape_requires_tmp_path(refs):
    s, ops, _ = refs["contention"]
    with pytest.raises(ValueError, match="tmp_path"):
        run_shape(s, ops, "recover")


def test_unexpected_abort_propagates():
    s = ContentionScenario()
    # a withdraw guaranteed to fail, not marked may_abort
    ops = [call("withdraw", 0, 10_000, key=0, may_abort=False)]
    from repro.common.errors import TransactionAborted

    with pytest.raises(TransactionAborted):
        run_shape(s, ops, "single")


def test_state_digest_is_order_insensitive():
    def read_a(sql):
        return [(1, 2), (3, 4)]

    def read_b(sql):
        return [(3, 4), (1, 2)]

    da, _ = state_digest(read_a, ("t",))
    db_, _ = state_digest(read_b, ("t",))
    assert da == db_


def test_partitioned_crash_recover_round_trip(refs, tmp_path):
    """Inline-partitioned durable run: kill mid-script, reopen, finish,
    and match the single-engine reference digest."""
    s, ops, ref = refs["leaderboard"]
    cut = len(ops) // 2
    kwargs = dict(
        partition_keys=s.partition_keys,
        workers="inline",
        recovery_dir=tmp_path / "lb",
        recovery="weak",
    )
    pdb = PartitionedDatabase(2, s.deploy, **kwargs)
    for op in ops[:cut]:
        pdb.ingest(op.target, [list(r) for r in op.rows])
    pdb.drain()
    pdb.flush_log()
    pdb.kill()

    recovered = PartitionedDatabase(2, s.deploy, **kwargs)
    try:
        for op in ops[cut:]:
            recovered.ingest(op.target, [list(r) for r in op.rows])
        recovered.drain()
        read = lambda sql: [tuple(r) for r in recovered.execute(sql).rows]  # noqa: E731
        digest, _ = state_digest(read, s.output_tables)
        assert digest == ref.digest
        assert s.check(read, ops, 0) == []
    finally:
        recovered.close()
