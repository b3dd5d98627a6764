#!/usr/bin/env python3
"""One wall-clock benchmark of the full stack.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--smoke] [--trace [0|1]] [--out F]
                                  [--update-expected]

Without ``--trace`` every workload runs against the served stack
(``serve.py``) through four phases — setup, saturate, crash + recover,
paced — and the end-to-end metrics of ``BENCHMARK.json`` are printed by
name with their units.  With ``--trace`` the same script's first batches
are replayed in-process through the seven-rung layer ladder
(``ladder.py``) and the per-layer metrics are printed instead.

Every run verifies state and exits non-zero if verification fails.  With
one ``--workload`` the last line of stdout is the contract's result
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC}/repro not found: this benchmark measures the repository around it")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import fullstack  # noqa: E402
import ladder  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
EXPECTED_PATH = HERE / "expected.json"
SMOKE_SECONDS = 1.2
#: the whole invocation may not outlive the contract's 180 s per run
WATCHDOG_S = 170


def expected_key(workload: str, seed: int, seconds: float) -> str:
    return f"{workload}:{seed}:{seconds:g}"


def update_expected(seconds_list: list[float]) -> None:
    """Regenerate ``expected.json``: the default seed's final digest per
    workload and size, computed by the **single engine** (``run_shape``),
    and required to agree with the pure-Python model."""
    from repro.workloads import run_shape

    expected = {}
    for name, wl in WORKLOADS.items():
        for seconds in seconds_list:
            sizes = fullstack.Sizes.of(wl, seconds)
            script = wl.script(DEFAULT_SEED, sizes.batches)
            single = run_shape(wl.scenario, script, "single")
            model = fullstack.table_digest(wl.model(script), wl.scenario.output_tables)
            if single.digest != model or single.violations:
                sys.exit(f"{name}: single engine and model disagree ({single.violations})")
            expected[expected_key(name, DEFAULT_SEED, seconds)] = single.digest
            print(f"{expected_key(name, DEFAULT_SEED, seconds)} {single.digest}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def gate(result: dict, expected: dict) -> bool:
    """Fold the ``expected.json`` pin (end-to-end runs of the default
    seed; ``None`` = no pin for this run) into the gate; True = pass."""
    g = result["gate"]
    pinned = expected.get(expected_key(result["workload"], result["seed"], result["seconds"]))
    g["matches_expected_json"] = None if pinned is None else pinned == result["digest"]
    return all(v is not False for k, v in g.items() if k != "violations") and not g["violations"]


def report(result: dict, names: list[str]) -> None:
    """Every metric by name with its unit; ``*`` marks the ones
    ``BENCHMARK.json`` names (the rest are measured but not gated)."""
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']:g}")
    for name, m in result["metrics"].items():
        print(f"  {'*' if name in names else ' '} {name:<36} {m['value']:>14.4f} {m['unit']}")
    speed = result["detail"].get("speed_factor")
    if speed is not None:
        print(f"    (timings normalised by this run's machine-speed factor {speed:.3f})")
    print(f"    attempted={result['attempted']} failed={result['failed']} gate={result['gate']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--smoke", action="store_true", help=f"--seconds {SMOKE_SECONDS}")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    ap.add_argument("--out", help="also write the full result (JSON) here")
    ap.add_argument("--expected", default=str(EXPECTED_PATH), help=argparse.SUPPRESS)
    ap.add_argument("--update-expected", action="store_true")
    args = ap.parse_args()
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if args.update_expected:
        update_expected([float(SPEC["run_seconds"]), SMOKE_SECONDS])
        return 0

    signal.signal(signal.SIGALRM, lambda *_: sys.exit("watchdog: run exceeded its time cap"))
    expected = json.loads(Path(args.expected).read_text())
    names = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    results, ok = [], True
    for name in [args.workload] if args.workload else list(WORKLOADS):
        wl = WORKLOADS[name]
        signal.alarm(WATCHDOG_S)
        try:
            if args.trace:
                fullstack.OUT_DIR.mkdir(exist_ok=True)
                with tempfile.TemporaryDirectory(dir=fullstack.OUT_DIR) as tmp:
                    result = ladder.run_ladder(wl, args.seed, seconds, Path(tmp))
            else:
                result = asyncio.run(fullstack.run_workload(wl, args.seed, seconds))
        except fullstack.PhaseTimeout as exc:
            sys.exit(f"{name}: {exc}")
        finally:
            signal.alarm(0)
        result["gate_ok"] = gate(result, {} if args.trace else expected)
        result["ok"] = result["gate_ok"] and result["failed"] == 0
        ok = ok and result["ok"]
        report(result, names)
        results.append(result)

    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if args.workload:
        r = results[0]
        print(
            json.dumps(
                {
                    "correct": r["gate_ok"],
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                    "metrics": {n: r["metrics"][n] for n in names},
                }
            )
        )
    else:
        print(json.dumps({"ok": ok, "workloads": [r["workload"] for r in results]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
