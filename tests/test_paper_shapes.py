"""The paper-shape figures of ``benchmarks/paper_shapes.py``, pinned.

Simulated time is a pure function of the engine's event counts, so the
``--smoke`` run at the default seed prints the same floats on every
machine.  Any drift here means an event count or a price changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "paper_shapes.py"


def test_smoke_figures_are_pinned(capsys):
    spec = importlib.util.spec_from_file_location("paper_shapes", SCRIPT)
    paper_shapes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paper_shapes)
    assert paper_shapes.main(["--smoke"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == paper_shapes.DEFAULT_SEED
    assert report["lost_shapes"] == []
    c = report["comparison_4_6"]
    assert c["sstore"]["rows_per_sec"] == pytest.approx(39137.02852110953, rel=1e-9)
    assert c["sstore_vs_spark_streaming"] == pytest.approx(49.997553935717434, rel=1e-9)
    assert c["sstore_vs_storm_trident"] == pytest.approx(3.1505307959493174, rel=1e-9)
    two = report["scaling_4_7"]["points"]["2"]
    assert two["speedup"] == pytest.approx(1.650524847684064, rel=1e-9)
    assert two["rel_err"] == pytest.approx(0.17473757615796803, rel=1e-9)
