"""The streaming JSON writer: the bytes of ``json.dumps(sort_keys=True, indent=2)``, small peak."""

import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nps

from ggm_select import cli
from ggm_select.cli import main
from ggm_select.ggm import PrecisionMatrix, SolverReport

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def _expected(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2, default=np.ndarray.tolist)
            + "\n").encode()


def _written(payload, path: Path) -> bytes:
    cli._dump_json(payload, path)
    return path.read_bytes()


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]
# 1-D float64 arrays, the form of report.json's omega and group_norms: short
# ones span several of the patched blocks of 1, 2 or 3 items, and the long
# ones fill one block of 4096 or spill one item past it (a fill value makes
# them quick to draw)
ARRAYS = nps.arrays(
    np.float64,
    st.sampled_from([*range(10), 4096, 4097]),
    elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
    fill=st.sampled_from(SPECIAL_FLOATS),
)
NUMBERS = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.booleans(),
)
TEXT = st.one_of(st.text(), st.sampled_from(["a, b", ", ", "é, ü", "Ω, λ\n, ∞", "1, 2"]))
SCALARS = st.one_of(NUMBERS, st.none(), TEXT, ARRAYS)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(NUMBERS, max_size=12),  # number lists, the C-encoder path
        st.dictionaries(TEXT, children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(payload=TREES, block=st.sampled_from([1, 2, 3, cli._NUMBER_BLOCK]))
def test_writer_bytes_equal_json_dumps(tmp_path_factory, payload, block):
    # a small block makes short number lists span several blocks
    path = tmp_path_factory.getbasetemp() / "property.json"
    with mock.patch.object(cli, "_NUMBER_BLOCK", block):
        assert _written(payload, path) == _expected(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}}, {"a": [], "b": ()}, [[], {}, [[]]], None, 1.5, "x, y",
    {"nested": {"empty": {}, "list": [{}, [], {"k": []}]}},
], ids=repr)
def test_writer_empty_containers_and_scalars(tmp_path, payload):
    assert _written(payload, tmp_path / "out.json") == _expected(payload)


@pytest.mark.parametrize("payload", [
    np.array([]), {"a": np.array([])}, np.array(SPECIAL_FLOATS), np.array([True, False]),
    np.arange(-3, 3), np.array([2**64 - 1], dtype=np.uint64), np.array([0.1, 3e38], dtype=np.float32),
], ids=["empty", "empty_in_dict", "special_floats", "bool", "int", "uint64", "float32"])
def test_writer_arrays_as_their_lists(tmp_path, payload):
    assert _written(payload, tmp_path / "out.json") == _expected(payload)


def test_writer_lists_longer_than_one_block(tmp_path):
    rng = np.random.default_rng(0)
    size = 2 * cli._NUMBER_BLOCK + 7
    numbers = rng.standard_normal(size).tolist()
    numbers[::97] = [True, False, 0, -0.0, math.nan, -math.inf, 5e-324, 10**20] * (
        len(numbers[::97]) // 8) + [1] * (len(numbers[::97]) % 8)
    mixed = numbers[:cli._NUMBER_BLOCK + 3] + [[1.0, 2.0], {"a, b": 3}, "s, t"]
    payload = {
        "numbers": numbers,
        "exact_blocks": numbers[:2 * cli._NUMBER_BLOCK],
        "tuple": tuple(numbers),
        "mixed": mixed,
        "inner": [[numbers[:cli._NUMBER_BLOCK + 1]]],
        "array": np.array(numbers, dtype=float),
        "arrays": [np.array(numbers[:cli._NUMBER_BLOCK], dtype=float),
                   np.array(numbers[:cli._NUMBER_BLOCK + 1], dtype=float)],
    }
    assert _written(payload, tmp_path / "out.json") == _expected(payload)


def test_writer_refuses_non_string_keys(tmp_path):
    with pytest.raises(TypeError, match="keys must be strings"):
        cli._dump_json({"a": {1: 2}}, tmp_path / "out.json")


@pytest.mark.parametrize("array", [np.eye(2), np.array(["a, b"]), np.array([1.0], dtype=object)],
                         ids=["2-D", "text", "object"])
def test_writer_refuses_arrays_other_than_1d_numbers(tmp_path, array):
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._dump_json({"a": array}, tmp_path / "out.json")


def test_simulate_and_solve_write_json_dumps_bytes(tmp_path, monkeypatch):
    dumped = []
    dump_json = cli._dump_json

    def recorded(payload, path):
        dump_json(payload, path)
        dumped.append((payload, path))

    monkeypatch.setattr(cli, "_dump_json", recorded)
    assert main(["simulate", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path / "sim"),
                 "--seed", "1", "--quiet"]) == 0
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 12))
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, np.cov(x, rowvar=False), delimiter=",", fmt="%.17g")
    assert main(["solve", "--cov", str(cov), "--important", "0,1", "--out",
                 str(tmp_path / "solve"), "--quiet"]) == 0
    assert sorted(str(path.relative_to(tmp_path)) for _, path in dumped) == [
        "sim/manifest.json", "sim/report.json", "sim/selection.json",
        "solve/manifest.json", "solve/report.json",
    ]
    for payload, path in dumped:
        assert path.read_bytes() == _expected(payload), path


def test_writer_peak_memory_on_a_300_by_300_report(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((300, 300))
    report = SolverReport(
        omega_star=PrecisionMatrix(a @ a.T / 300.0 + np.eye(300)),
        objective_trace=tuple((t, -1e3 + t * math.pi) for t in range(60)),
        converged=True,
        iterations=59,
        group_norms=rng.random(300),
    )
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        # the payload is built in the traced region: 90,000 Python floats
        # in it would take about 3 MB
        payload = report.to_json_dict()
        cli._dump_json(payload, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # json.dumps with indent=2 peaks at about 9.5 MB on this payload
    assert peak < 1 << 20
    assert path.read_bytes() == _expected(payload)
