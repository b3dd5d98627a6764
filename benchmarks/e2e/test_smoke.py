"""Smoke test of the benchmark itself (run explicitly; not in tier-1):

    python3 -m pytest benchmarks/e2e/test_smoke.py -q

Drives ``run.py --smoke`` as the driver would and checks the contract:
every metric ``BENCHMARK.json`` names is emitted with its unit, counts
repeat exactly for a seed, the digest follows the seed, and the gate
trips when ``expected.json`` is wrong.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1  # workloads.DEFAULT_SEED, the seed expected.json pins


def run(workload: str, seed: int, trace: int, out: Path, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--smoke", "--trace", str(trace), "--out", str(out), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    full = json.loads(out.read_text())[0] if out.exists() else None
    return proc.returncode, last, full


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two same-seed runs and one other-seed run per workload and mode."""
    tmp = tmp_path_factory.mktemp("e2e")
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            for tag, seed in (("a", SEED), ("b", SEED), ("other", SEED + 1)):
                if trace and tag == "other":
                    continue
                out[workload, trace, tag] = run(
                    workload, seed, trace, tmp / f"{workload}-{trace}-{tag}.json"
                )
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(runs, workload, trace):
    code, last, _full = runs[workload, trace, "a"]
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_counts_repeat_exactly_for_a_seed(runs, workload, trace):
    _, last_a, a = runs[workload, trace, "a"]
    _, last_b, b = runs[workload, trace, "b"]
    assert a["counts"] == b["counts"]
    assert a["digest"] == b["digest"]
    assert (last_a["attempted"], last_a["failed"]) == (last_b["attempted"], last_b["failed"])
    counted = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "share", "B")}
    for name in counted & set(a["metrics"]):
        assert a["metrics"][name] == b["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_the_digest(runs, workload):
    assert runs[workload, 0, "a"][2]["digest"] != runs[workload, 0, "other"][2]["digest"]


def test_gate_trips_on_a_corrupted_expected_json(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    key = f"oltp_mix:{SEED}:1.2"
    assert key in expected
    expected[key] = "0" * 64
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(expected))
    code, last, full = run("oltp_mix", SEED, 0, tmp_path / "r.json", "--expected", str(bad))
    assert code != 0
    assert last["correct"] is False
    assert full["gate"]["matches_expected_json"] is False
    # a failed gate still reports every metric
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
