"""The score-dump reader: helper processes, the reduced form and strict values.

``read_score_dump`` parses a large dump in ``spawn`` helper processes.  Here
``_HELPER_MIN_BYTES`` is patched to 0 and ``_usable_cpus`` to 2, so the small
dumps below take that path on any machine; every result and every error must
be the one of the file-by-file read (``_HELPER_MIN_BYTES`` patched beyond any
dump).  ``Spy`` records that the helpers really ran.
"""

import concurrent.futures
import json
import multiprocessing
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from ggm_select import nodes
from ggm_select.nodes import TensorKey, _spells_a_boolean, _vector, read_score_dump, replay_scores

FIXTURE_DUMP = Path(__file__).parent / "fixtures" / "score_dump"


class Spy(concurrent.futures.ProcessPoolExecutor):
    maps = 0

    def map(self, *args, **kwargs):
        Spy.maps += 1
        return super().map(*args, **kwargs)


@pytest.fixture
def helpers(monkeypatch):
    """Read every dump of the test in helper processes; yields the spy class."""
    monkeypatch.setattr(nodes, "_HELPER_MIN_BYTES", 0)
    monkeypatch.setattr(nodes, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    Spy.maps = 0
    yield Spy
    assert multiprocessing.active_children() == []


def _serial(dump, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodes, "_HELPER_MIN_BYTES", 1 << 62)
        return read_score_dump(dump, **kwargs)


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


def _assert_same_steps(got, want):
    assert len(got) == len(want)
    for got_step, want_step in zip(got, want):
        assert list(got_step) == list(want_step)
        for key in want_step:
            pairs = zip(*(x if isinstance(x, tuple) else (x,) for x in (got_step[key], want_step[key])))
            for got_array, want_array in pairs:
                assert got_array.dtype == want_array.dtype == np.float64
                assert got_array.tobytes() == want_array.tobytes()


def _seeded_dump(directory, files=4, steps=6, seed=11):
    """Two layers' records shuffled over ``files`` files, steps split across files."""
    rng = np.random.default_rng(seed)
    records = []
    for step in range(steps):
        for layer_id, d1, d2, r in ((0, 5, 4, 2), (3, 3, 6, 1)):
            for index in range(r):
                for tensor, d in (("A", d1), ("B", d2)):
                    records.append({"step": step, "layer_id": layer_id, "tensor": tensor,
                                    "index": index, "values": rng.standard_normal(d).round(3).tolist(),
                                    "grads": rng.standard_normal(d).round(3).tolist()})
            records.append({"step": step, "layer_id": layer_id, "tensor": "b",
                            "values": [0.0, 1.0, 2] + rng.standard_normal(d1 - 3).tolist(),
                            "grads": rng.standard_normal(d1).tolist()})
    order = rng.permutation(len(records))
    directory.mkdir()
    for k in range(files):
        chunk = [records[i] for i in order[k::files]]
        (directory / f"part{k}.json").write_text(json.dumps(chunk))
    return directory


@pytest.mark.parametrize("sensitivities", [False, True])
def test_helpers_read_the_fixture_as_the_serial_reader(helpers, sensitivities):
    got = read_score_dump(FIXTURE_DUMP, sensitivities=sensitivities)
    assert helpers.maps == 1
    _assert_same_steps(got, _serial(FIXTURE_DUMP, sensitivities=sensitivities))


def test_helpers_read_a_seeded_dump_as_the_serial_reader(helpers, tmp_path):
    dump = _seeded_dump(tmp_path / "dump")
    pairs = read_score_dump(dump)
    reduced = read_score_dump(dump, sensitivities=True)
    assert helpers.maps == 2
    assert multiprocessing.active_children() == []
    _assert_same_steps(pairs, _serial(dump))
    _assert_same_steps(reduced, _serial(dump, sensitivities=True))
    for pair_step, reduced_step in zip(pairs, reduced):
        for key, (values, grads) in pair_step.items():
            assert reduced_step[key].tobytes() == nodes.sensitivity(values, grads).tobytes()


@pytest.mark.parametrize("dump", ["fixture", "seeded"])
def test_the_reduced_form_replays_bit_equal_to_the_pair_form(tmp_path, dump):
    dump = FIXTURE_DUMP if dump == "fixture" else _seeded_dump(tmp_path / "dump")
    pairs = replay_scores(read_score_dump(dump), 0.85, 0.85)
    reduced = replay_scores(read_score_dump(dump, sensitivities=True), 0.85, 0.85)
    assert reduced.values.tobytes() == pairs.values.tobytes()
    assert reduced.names == pairs.names
    pairs.save_csv(tmp_path / "pairs.csv")
    reduced.save_csv(tmp_path / "reduced.csv")
    assert (tmp_path / "pairs.csv").read_bytes() == (tmp_path / "reduced.csv").read_bytes()


def test_replay_refuses_a_sensitivity_of_the_wrong_length():
    step = {TensorKey(0, "A", 0): np.ones(2), TensorKey(0, "B", 0): np.ones(3),
            TensorKey(0, "b"): np.ones(2)}
    bad = {**step, TensorKey(0, "B", 0): np.ones(4)}
    with pytest.raises(ValueError, match="step 1: layer 0: every B tensor must have length 3"):
        replay_scores([step, bad], 0.5, 0.5)


def _break(directory, name, pos, change):
    path = directory / name
    records = json.loads(path.read_text())
    change(records, pos)
    path.write_text(json.dumps(records))


def _strings(records, pos):
    records[pos]["values"] = [str(v) for v in records[pos]["values"]]


def _duplicate_of_part0(directory):
    first = json.loads((directory / "part0.json").read_text())[0]

    def change(records, pos):
        records[pos] = dict(first)
    return change


@pytest.mark.parametrize("case, first_error", [
    ("bad_record_in_a_later_file", "part2.json: record 3 key 'values': must be numbers, got str"),
    ("duplicate_across_files", "part2.json: record 4: duplicate tensor"),
    ("duplicate_before_a_bad_record", "part1.json: record 2: duplicate tensor"),
    ("invalid_json_in_a_later_file", "part3.json: invalid JSON at line 1"),
    ("boolean_in_a_later_file", "part1.json: record 1 key 'grads': must be numbers, got bool"),
])
def test_helpers_raise_the_serial_readers_first_error(helpers, tmp_path, case, first_error):
    dump = _seeded_dump(tmp_path / "dump")
    if case == "bad_record_in_a_later_file":
        _break(dump, "part2.json", 3, _strings)
        _break(dump, "part3.json", 0, _strings)
    elif case == "duplicate_across_files":
        _break(dump, "part2.json", 4, _duplicate_of_part0(dump))
    elif case == "duplicate_before_a_bad_record":
        _break(dump, "part1.json", 2, _duplicate_of_part0(dump))
        _break(dump, "part1.json", 5, _strings)
    elif case == "invalid_json_in_a_later_file":
        (dump / "part3.json").write_text("[{]")
    else:
        _break(dump, "part1.json", 1, lambda records, pos: records[pos]["grads"].__setitem__(0, True))
    got = _outcome(lambda: read_score_dump(dump, sensitivities=True))
    assert helpers.maps == 1
    assert multiprocessing.active_children() == []
    assert got[0] is ValueError
    assert got[1].startswith(first_error)
    assert got == _outcome(lambda: _serial(dump, sensitivities=True))


class _NoProcesses:
    def __init__(self, *args, **kwargs):
        raise OSError("no processes")


class _DyingPool(concurrent.futures.ThreadPoolExecutor):
    def __init__(self, max_workers, mp_context=None):
        super().__init__(max_workers)

    def map(self, *args, **kwargs):
        raise BrokenProcessPool("a helper died")


@pytest.mark.parametrize("pool", [_NoProcesses, _DyingPool])
def test_the_reader_falls_back_to_a_serial_read(monkeypatch, tmp_path, pool):
    dump = _seeded_dump(tmp_path / "dump")
    want = _serial(dump, sensitivities=True)
    monkeypatch.setattr(nodes, "_HELPER_MIN_BYTES", 0)
    monkeypatch.setattr(nodes, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    _assert_same_steps(read_score_dump(dump, sensitivities=True), want)


def test_small_dumps_one_file_one_cpu_and_child_processes_read_here(monkeypatch, tmp_path):
    attempts = []

    class Refuse(_NoProcesses):
        def __init__(self, *args, **kwargs):
            attempts.append(args)
            super().__init__()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Refuse)
    monkeypatch.setattr(nodes, "_usable_cpus", lambda: 2)
    dump = _seeded_dump(tmp_path / "dump")
    read_score_dump(dump)  # four files, far below the constant
    monkeypatch.setattr(nodes, "_HELPER_MIN_BYTES", 0)
    read_score_dump(_seeded_dump(tmp_path / "one", files=1))
    monkeypatch.setattr(nodes, "_usable_cpus", lambda: 1)
    read_score_dump(dump)
    monkeypatch.setattr(nodes, "_usable_cpus", lambda: 2)
    with monkeypatch.context() as patch:  # as in a `simulate --jobs` worker
        patch.setattr(multiprocessing, "parent_process", lambda: multiprocessing.current_process())
        read_score_dump(dump)
    assert attempts == []
    read_score_dump(dump)
    assert attempts == [(2,)]


# ------------------------------------------------------------------ strict values

@pytest.mark.parametrize("values, refused", [
    (["1.5", "2"], "str"),
    ([1.0, "2"], "str"),
    ([True, 0.5], "bool"),
    ([0.5, False], "bool"),
    ([True, 2], "bool"),
    ([True, False], "bool"),
    ([None, 1.0], "NoneType"),
    ([1.0, {"a": 1}], "dict"),
    ("abc", "str"),
    ("", "str"),
    ({}, "dict"),
    ({"a": 1.0}, "dict"),
    (None, "NoneType"),
    ([[1.0, 0.0]], "list"),
])
def test_vector_refuses_what_is_not_a_number(values, refused):
    with pytest.raises(TypeError, match=f"must be numbers, got {refused}$"):
        _vector(values)


@pytest.mark.parametrize("values", [
    [0.0, 1.0, -0.0, 0.5], [0, 1, 2], [1, 0.5], [2**70, 1.0], [2**64 - 1], [], [0.5, float("inf")],
    [1e308, 5e-324], 2.0,
])
def test_vector_takes_numbers_as_a_float_conversion_does(values):
    got = _vector(values)
    want = np.asarray(values, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_vector_refuses_an_integer_too_large_for_a_float():
    with pytest.raises(ValueError, match="must be numbers, got an integer too large for a float"):
        _vector([0.5, 10**400])


@pytest.mark.parametrize("text, spelled", [
    ('[{"values": [1.0, 0.5], "grads": [0.0, 1e-05]}]', False),
    ("[Infinity, -Infinity, NaN]", False),
    ('{"fu": "uf", "tru": "alse"}', False),
    ("", False),
    ("true", True),
    ("false", True),
    ("[0.5,true]", True),
    ('{"values": [0, false]}', True),
    ('{"note": "untrue"}', True),  # a word in a string only makes the reader scan
])
def test_spells_a_boolean_finds_the_json_words(text, spelled):
    assert _spells_a_boolean(text) is spelled


def test_vector_skips_the_scan_only_when_told_the_text_spells_no_boolean():
    assert _vector([True, 0.5], booleans=False).tolist() == [1.0, 0.5]
    with pytest.raises(TypeError, match="got bool"):
        _vector([True, 0.5])
