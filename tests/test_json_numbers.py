"""The dump reader's array route: number arrays cut out of the text and converted in array code.

``nodes._read_file(path)`` reads a dump file through
``_json_numbers.cut_number_arrays`` and ``json`` parses the rest;
``nodes._read_file(path, cut=False)`` is the plain ``json`` route, kept as
the reference.  Every file must give the same records, the same packed
|values * grads| bytes and, for a refused file, the same error.
"""

import importlib.util
import json
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggm_select import _json_numbers, nodes
from ggm_select._json_numbers import cut_number_arrays

FIXTURE_DUMP = Path(__file__).parent / "fixtures" / "score_dump"

# JSON whitespace, and two bytes that JSON does not take as whitespace
SPACE = st.sampled_from(["", "", " ", "\t", "\n", "\r", "\n      ", " \r\n\t ", "\v", "\f"])
TOKENS = st.one_of(
    st.sampled_from([
        "-0", "-0.0", "0e0", "-0E+0", "0", "7", "-12", "0.5", "1.2e-05", "-2.711162", "0.000123",
        "123456789012345", "-123456789012345e-22", "1.23456789012345", "0.00000000000001",  # 15 digits
        "1234567890123456", "1.234567890123456e3", "12345678901234567", "0.12345678901234567",  # 16, 17
        "1e22", "1e-22", "1e23", "1e-23", "15e21", "1.5e-21", "25e-24", "2.5E+23", "1e0022", "1e-0",
        "2e23", "3e23", "2e-23", "-7e-23", "0.5e24",  # 10**23 is not a double: these would round twice
        "9.999999999999999", "0.9999999999999999", "9007199254740993", "9.007199254740993e-10",  # above 2**53
        "1.", ".5", "01", "-01.5", "+1", "1e", "1e+", "-", "1.5.5", "1e5e5", "0x1", "1_0",
        "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true", "false", "null", '"1"', "[1]", "{}",
    ]),
    st.from_regex(r"-?(0|[1-9][0-9]{0,16})(\.[0-9]{1,17})?([eE][-+]?[0-9]{1,3})?", fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# arrays other than a list of numbers
ODD_ARRAYS = st.sampled_from(["[]", "[ ]", "[1,]", "[,1]", "[1,,2]", "[[1]]", "[[1], [2]]", '["1"]'])


@st.composite
def arrays(draw, length):
    if draw(st.integers(0, 9)) == 0:
        return draw(ODD_ARRAYS)
    return "[" + ",".join(draw(SPACE) + draw(TOKENS) + draw(SPACE) for _ in range(length)) + "]"


@st.composite
def records(draw):
    length = draw(st.integers(1, 5))
    fields = [("step", draw(st.sampled_from(["0", "3", "[1, 2]", "1.5"]))), ("layer_id", "0"),
              ("tensor", '"b"'), ("values", draw(arrays(length))), ("grads", draw(arrays(length)))]
    extras = draw(st.lists(st.sampled_from([
        ("note", '"a [1, 2] b"'), ("note", '"]["'), ("note", '"say \\"[1]\\""'), ("note", '"\\\\"'),
        ("ignored", "[1, 2.5, -0]"), ("ignored", "[1e400, NaN]"), ("meta", '{"values": [1, 2]}'),
        ("values", "[0.25]"), ("grads", "[4]"), ("tensor", '"b"'),
    ]), max_size=3))
    for extra in extras:
        fields.insert(draw(st.integers(0, len(fields))), extra)
    return fields


@st.composite
def dump_texts(draw):
    """A dump file's text, laid out as ``json.dumps`` does by default or with ``indent=2``."""
    layout = draw(st.sampled_from(["compact", "indent"]))
    objects = []
    for fields in draw(st.lists(records(), min_size=1, max_size=3)):
        if layout == "compact":
            objects.append("{" + ", ".join(f'"{key}": {value}' for key, value in fields) + "}")
        else:
            objects.append("{\n" + ",\n".join(f'    "{key}": {value}' for key, value in fields) + "\n  }")
    joint = ", " if layout == "compact" else ",\n  "
    text = ("[" + joint.join(objects) + "]") if layout == "compact" else ("[\n  " + joint.join(objects) + "\n]")
    if len(objects) == 1 and draw(st.booleans()):
        text = objects[0]  # a file may hold one record
    if draw(st.integers(0, 9)) == 0:  # a backslash anywhere
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\\" + text[at:]
    return text


def _bits(values):
    return [struct.pack("<d", float(value)) for value in values]


def _assert_same_tree(cut, plain, arrays):
    """``cut`` (the skeleton's JSON value) with its arrays in place is ``plain``, element for element."""
    if type(cut) is str and cut in arrays:
        assert type(plain) is list and all(type(item) in (int, float) for item in plain)
        assert _bits(plain) == _bits(arrays[cut])
    elif type(cut) is dict:
        assert type(plain) is dict and list(cut) == list(plain)
        for key in cut:
            _assert_same_tree(cut[key], plain[key], arrays)
    elif type(cut) is list:
        assert type(plain) is list and len(cut) == len(plain)
        for a, b in zip(cut, plain):
            _assert_same_tree(a, b, arrays)
    else:
        assert type(cut) is type(plain) and repr(cut) == repr(plain)


def _assert_cut_reads_as_json(text):
    """The cut's text with its arrays in place is ``text`` as ``json`` reads it, or both are not JSON."""
    skeleton, arrays = cut_number_arrays(text.encode())
    try:
        plain = json.loads(text)
    except ValueError:
        with pytest.raises(ValueError):
            json.loads(skeleton)  # the cut never turns text that is not JSON into JSON
        return
    _assert_same_tree(json.loads(skeleton), plain, arrays)


@settings(max_examples=600, deadline=None)
@given(token=TOKENS, lead=SPACE, trail=SPACE)
def test_a_token_is_converted_only_to_what_json_reads(token, lead, trail):
    _assert_cut_reads_as_json(f"[{lead}{token}{trail}]")


def _outcome(result):
    records, packed, error = result
    return records, packed.tobytes(), error and (type(error), str(error))


@settings(max_examples=250, deadline=None)
@given(text=dump_texts())
def test_the_array_route_reads_every_file_as_json_alone_does(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(nodes._read_file(path)) == _outcome(nodes._read_file(path, cut=False))
    if "\\" in text:
        with pytest.raises(ValueError, match="backslash"):
            cut_number_arrays(text.encode())
    else:
        _assert_cut_reads_as_json(text)


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURE_DUMP.glob("*.json")))
def test_the_fixture_files_take_the_array_route(name):
    """The ``indent=2`` fixture: every ``values`` and ``grads`` array is converted, bit-equal to ``json``."""
    data = (FIXTURE_DUMP / name).read_bytes()
    skeleton, arrays = cut_number_arrays(data)
    plain = json.loads(data)
    assert len(arrays) == 2 * len(plain) and skeleton.count("[") == 1  # the list of records
    _assert_same_tree(json.loads(skeleton), plain, arrays)


def test_a_compact_dump_takes_the_array_route(tmp_path):
    """The benchmark's layout: ``json.dumps`` of ``tolist()`` reprs rounded to 6 decimals."""
    rng = np.random.default_rng(5)
    records = [{"step": 0, "layer_id": 0, "tensor": "A", "index": i,
                "values": np.round(rng.standard_normal(64) * 10.0 ** -i, 6).tolist(),
                "grads": np.round(rng.standard_normal(64), 6).tolist()} for i in range(8)]
    text = json.dumps(records)
    assert re.search(r"\de-0\d", text)  # tokens with an exponent, such as 1.2e-05
    skeleton, arrays = cut_number_arrays(text.encode())
    assert len(arrays) == 16 and skeleton.count("[") == 1
    _assert_same_tree(json.loads(skeleton), json.loads(text), arrays)


@pytest.mark.parametrize("text, converted", [
    ('{"values": [1, 2]}', 1),
    ('{"values": [[1, 2]], "grads": [[3]]}', 2),  # the inner arrays; the reader then refuses the outer ones
    ('{"values": [1, 2], "grads": [3, true]}', 1),
    ('{"a": "[1, 2]", "values": [1e-23, 1e23, 12345678901234567]}', 0),
    ('{"values": [-0, 1e22, 123456789012345, 0.1e-21]}', 1),
    ('[[1, 2]]', 1),
    ('{"values": [01], "grads": [-01.5], "x": [00], "y": [10, 0.5, -0, 0]}', 1),  # leading zeros
    ('{[1]: 2}', 0),  # in a key's place an array stays, and json refuses it
    ('{"step": 1, "values": "x"}', 0),  # no array at all
])
def test_which_arrays_the_cut_converts(text, converted):
    assert len(cut_number_arrays(text.encode())[1]) == converted


def test_a_thread_keeps_its_shape_table_until_it_holds_too_many_shapes(monkeypatch):
    data = b'{"values": [1.5, -2, 3e-05], "note": "ab1 c.d", "grads": [0.25, 7, 1E+2]}'
    first = cut_number_arrays(data)
    table = _json_numbers._slots()
    assert len(table.shapes) > 2

    def same(result):
        return result[0] == first[0] and {k: _bits(v) for k, v in result[1].items()} == {
            k: _bits(v) for k, v in first[1].items()}

    assert same(cut_number_arrays(data)) and _json_numbers._slots() is table
    monkeypatch.setattr(_json_numbers, "_MAX_SHAPES", len(table.shapes) - 1)
    assert same(cut_number_arrays(data)) and _json_numbers._slots() is not table


def test_a_backslash_sends_the_file_to_the_json_route():
    with pytest.raises(ValueError, match="backslash"):
        cut_number_arrays(b'{"note": "a\\"b", "values": [1]}')


def test_a_dump_that_spells_true_takes_no_element_type_scan(tmp_path, monkeypatch):
    """Every record spells ``"trainable": true`` and every array holds exact 0.0 and 1.0.

    On the json route each such list goes through ``number_array``, which
    scans its element types because a boolean would read as 0 or 1; on the
    array route no list of ``values`` or ``grads`` reaches it.
    """
    rng = np.random.default_rng(0)
    records = [{"step": 0, "layer_id": 0, "tensor": "A", "index": i, "trainable": True,
                "values": rng.integers(0, 2, 16).astype(float).tolist(),
                "grads": rng.integers(0, 2, 16).astype(float).tolist()} for i in range(4)]
    path = tmp_path / "step0.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    seen, convert = [], nodes.number_array

    def spy(value, booleans=True):
        seen.append((type(value), booleans))
        return convert(value, booleans)

    monkeypatch.setattr(nodes, "number_array", spy)
    got = nodes._read_file(path)
    assert seen and all(kind is np.ndarray for kind, _ in seen)
    seen.clear()
    want = nodes._read_file(path, cut=False)
    assert seen and all(kind is list and booleans for kind, booleans in seen)
    assert _outcome(got) == _outcome(want)


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded by file path under a private module name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchmark_dump_step(tmp_path_factory):
    """The first file of the benchmark dump (``dump-l12``, seed 1), and its arrays as float32 reprs."""
    workloads = _benchmark_workloads()
    shape = workloads.WORKLOADS["dump-l12"].dump
    steps = workloads.dump_arrays(workloads.replace(shape, steps=1), seed=1)
    directory = tmp_path_factory.mktemp("dump-l12")
    workloads.write_dump(steps, directory / "float64")
    # what tolist() of a float32 tensor writes: 17-digit reprs such as 0.3455840051174164
    workloads.write_dump([[{key: a.astype(np.float32) for key, a in layer.items()} for layer in steps[0]]],
                         directory / "float32")
    return directory / "float64" / "step0000.json", directory / "float32" / "step0000.json"


def test_a_float32_dump_leaves_the_array_route_after_its_first_array(benchmark_dump_step, monkeypatch):
    path = benchmark_dump_step[1]
    text = path.read_text()
    assert re.search(r"\d\.\d{15}", text)
    first = json.loads(text)[0]["values"]
    seen, convert = [], _json_numbers._convert

    def spy(windows, codes, separators, store):
        seen.append(separators.size - 1)
        return convert(windows, codes, separators, store)

    monkeypatch.setattr(_json_numbers, "_convert", spy)
    assert cut_number_arrays(text.encode()) == (text, {})
    assert 0 < sum(seen) <= len(first)
    assert _outcome(nodes._read_file(path)) == _outcome(nodes._read_file(path, cut=False))


def test_the_benchmark_dump_still_takes_the_array_route_for_every_array(benchmark_dump_step):
    data = benchmark_dump_step[0].read_bytes()
    skeleton, arrays = cut_number_arrays(data)
    plain = json.loads(data)
    assert len(plain) == 12 * (2 * 8 + 1) and len(arrays) == 2 * len(plain) == 408
    _assert_same_tree(json.loads(skeleton), plain, arrays)
