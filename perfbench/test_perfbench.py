"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, ema_node_values, tiny  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]).__next__
    tracer = Tracer(clock=clock)
    root = tracer.open("root")
    a = tracer.open("child")
    g = tracer.open("leaf")
    tracer.close(g)
    tracer.close(a)
    b = tracer.open("child")
    tracer.close(b)
    tracer.close(root)

    _, parent, start, end = tracer.table()
    assert parent.tolist() == [-1, 0, 1, 0]
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert tracer.aggregate() == {
        "root": [1, 10.0, 3.0],
        "child": [2, 7.0, 6.0],
        "leaf": [1, 1.0, 1.0],
    }


def test_wrapper_closes_span_when_call_raises():
    tracer = Tracer(clock=iter(range(100)).__next__)

    def boom():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: tracer.wrap("inner", boom)())
    with pytest.raises(ValueError):
        outer()
    calls = tracer.wrap("after", lambda: 7)
    assert calls() == 7
    _, parent, _, end = tracer.table()
    assert parent.tolist() == [-1, 0, -1]
    assert not np.isnan(end).any()


def _fixture_steps():
    """The fixture dump in the oracle's layout, parsed without ggm_select."""
    by_step = {}
    for path in sorted((FIXTURES / "score_dump").glob("*.json")):
        for record in json.loads(path.read_text()):
            layer = by_step.setdefault(record["step"], {}).setdefault(record["layer_id"], {})
            layer[(record["tensor"], record.get("index"))] = record
    steps = []
    for step in sorted(by_step):
        layers = []
        for layer_id in sorted(by_step[step]):
            records = by_step[step][layer_id]
            arrays = {}
            for kind in "AB":
                rows = sorted(i for k, i in records if k == kind)
                for field in ("values", "grads"):
                    arrays[f"{kind}_{field}"] = np.array(
                        [records[(kind, i)][field] for i in rows])
            for field in ("values", "grads"):
                arrays[f"b_{field}"] = np.array(records[("b", None)][field])
            layers.append(arrays)
        steps.append(layers)
    return steps


def test_ema_oracle_reproduces_golden_samples():
    golden = np.loadtxt(FIXTURES / "score_samples_golden.csv", delimiter=",", skiprows=1)
    assert np.array_equal(ema_node_values(_fixture_steps(), 0.85, 0.85), golden)


@pytest.mark.parametrize("traced", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(name, traced, tmp_path):
    record = run.run(tiny(WORKLOADS[name]), seed=5, seconds=0.1, traced=traced,
                     work=tmp_path / "work")
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.declared_units(traced))
    if traced:
        assert record["count_mismatches"] == []
        assert result["metrics"]["ggm.sweeps"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-n300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
