import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggm_select._inputs import number_array
from ggm_select.nodes import (
    ImportanceState,
    LayerShape,
    NodeLayout,
    SampleSet,
    TensorKey,
    _parse_record,
    decompose_layer,
    node_value_bias,
    node_value_pair,
    read_score_dump,
    replay_scores,
    sample_statistics,
    select_important,
    sensitivity,
    update_score,
)
from ggm_select.pipeline import make_planted

# ---------------------------------------------------------------- decomposition


def test_diagonal_matrix_splits_cleanly():
    dec = decompose_layer(np.diag([3.0, 1.0]), r=1)
    np.testing.assert_allclose(dec.left_scaled[:, 0], [3.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(dec.right_unit[0, :], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(dec.residual, np.diag([0.0, 1.0]), atol=1e-12)


def test_full_rank_reconstruction_is_exact():
    rng = np.random.default_rng(50)
    w = rng.standard_normal((6, 4))
    dec = decompose_layer(w, r=4)
    assert np.linalg.norm(dec.residual) <= 1e-10 * np.linalg.norm(w)
    np.testing.assert_allclose(dec.reconstruction(), w, atol=1e-10)


def test_tail_energy_matches_discarded_spectrum():
    rng = np.random.default_rng(51)
    w = rng.standard_normal((8, 5))
    dec = decompose_layer(w, r=3)
    s = np.linalg.svd(w, compute_uv=False)
    want = float(np.sum(s[3:] ** 2))
    assert dec.tail_energy() == pytest.approx(want, rel=1e-8)


def test_components_plus_residual_rebuild_input():
    rng = np.random.default_rng(52)
    for shape in [(5, 5), (17, 9), (64, 64), (9, 33)]:
        w = rng.standard_normal(shape)
        r = max(1, min(shape) // 2)
        dec = decompose_layer(w, r)
        rebuilt = dec.reconstruction() + dec.residual
        assert np.linalg.norm(rebuilt - w) <= 1e-8 * np.linalg.norm(w)


def test_component_norms_nonincreasing():
    rng = np.random.default_rng(53)
    w = rng.standard_normal((12, 10))
    dec = decompose_layer(w, r=6)
    norms = np.linalg.norm(dec.left_scaled, axis=0)
    assert np.all(np.diff(norms) <= 1e-12)


def test_right_factors_are_unit_rows():
    rng = np.random.default_rng(54)
    dec = decompose_layer(rng.standard_normal((7, 11)), r=5)
    np.testing.assert_allclose(np.linalg.norm(dec.right_unit, axis=1), 1.0, atol=1e-12)


def test_sign_convention_pins_largest_entry_nonnegative():
    rng = np.random.default_rng(55)
    for _ in range(10):
        w = rng.standard_normal((9, 6))
        dec = decompose_layer(w, r=4)
        for i in range(4):
            col = dec.left_scaled[:, i]
            assert col[int(np.argmax(np.abs(col)))] >= 0


def test_decomposition_is_deterministic():
    rng = np.random.default_rng(56)
    w = rng.standard_normal((10, 8))
    a = decompose_layer(w, r=3)
    b = decompose_layer(w, r=3)
    np.testing.assert_array_equal(a.left_scaled, b.left_scaled)
    np.testing.assert_array_equal(a.right_unit, b.right_unit)


def test_rank_bounds_enforced():
    with pytest.raises(ValueError):
        decompose_layer(np.eye(3), r=0)
    with pytest.raises(ValueError):
        decompose_layer(np.eye(3), r=4)


# ----------------------------------------------------------------- sensitivity


def test_sensitivity_is_absolute_product():
    assert sensitivity(np.array([2.0]), np.array([-3.0]))[0] == 6.0
    np.testing.assert_array_equal(
        sensitivity(np.array([[1.0, -2.0], [0.0, 4.0]]), np.array([[-1.0, 1.0], [5.0, 0.5]])),
        np.array([[1.0, 2.0], [0.0, 2.0]]),
    )


def test_sensitivity_zero_gradient_gives_zero():
    w = np.ones((3, 3))
    np.testing.assert_array_equal(sensitivity(w, np.zeros((3, 3))), np.zeros((3, 3)))


def test_sensitivity_shape_mismatch():
    with pytest.raises(ValueError):
        sensitivity(np.ones(3), np.ones(4))


# ------------------------------------------------------------------ EMA scores


def test_zero_coefficients_collapse_score():
    state = ImportanceState.zeros((4,), beta1=0.0, beta2=0.0)
    state, score = update_score(state, np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(score, np.zeros(4))
    np.testing.assert_array_equal(state.spread, np.zeros(4))


def test_single_step_closed_form():
    state = ImportanceState.zeros((1,), beta1=0.5, beta2=0.5)
    state, score = update_score(state, np.array([4.0]))
    assert state.mean[0] == pytest.approx(2.0, abs=1e-15)
    assert state.spread[0] == pytest.approx(1.0, abs=1e-15)
    assert score[0] == pytest.approx(2.0, abs=1e-15)


def test_constant_stream_long_run_matches_series():
    """Closed-form check of both recursions on a constant input stream."""
    beta = 0.9
    c = 1.7
    state = ImportanceState.zeros((1,), beta1=beta, beta2=beta)
    score = None
    for _ in range(50):
        state, score = update_score(state, np.array([c]))
    k = 50
    mean_want = c * (1 - beta**k)
    spread_want = (1 - beta) * c * k * beta**k  # equal-coefficient geometric sum
    assert state.mean[0] == pytest.approx(mean_want, abs=1e-12)
    assert state.spread[0] == pytest.approx(spread_want, abs=1e-6)
    assert score[0] == pytest.approx(mean_want * spread_want, abs=1e-6)
    assert state.spread[0] < 0.05  # spread decays toward zero on constant input


@given(
    beta1=st.floats(min_value=0.0, max_value=0.99),
    beta2=st.floats(min_value=0.0, max_value=0.99),
    stream=st.lists(st.floats(min_value=0.0, max_value=7.5), min_size=1, max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_ema_stays_inside_input_range(beta1, beta2, stream):
    state = ImportanceState.zeros((1,), beta1=beta1, beta2=beta2)
    for value in stream:
        state, score = update_score(state, np.array([value]))
        assert 0.0 <= state.mean[0] <= 7.5 + 1e-9
        assert 0.0 <= state.spread[0] <= 7.5 + 1e-9
        assert score[0] >= 0.0


def test_state_validation():
    with pytest.raises(ValueError):
        ImportanceState.zeros((2,), beta1=1.0, beta2=0.5)
    with pytest.raises(ValueError):
        ImportanceState(np.array([-1.0]), np.array([0.0]), 0.5, 0.5)
    state = ImportanceState.zeros((2,), 0.5, 0.5)
    with pytest.raises(ValueError):
        update_score(state, np.ones(3))


# ----------------------------------------------------------------- node values


def test_pair_value_averages_both_sides():
    assert node_value_pair(np.array([2.0, 4.0]), np.array([6.0])) == pytest.approx(4.5)


def test_pair_value_uniform_scores_pass_through():
    assert node_value_pair(np.full(5, 3.3), np.full(2, 3.3)) == pytest.approx(3.3)


def test_pair_value_zeros():
    assert node_value_pair(np.zeros(3), np.zeros(4)) == 0.0


def test_bias_value_is_half_mean():
    assert node_value_bias(np.array([4.0, 4.0])) == pytest.approx(2.0)
    assert node_value_bias(np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0)
    assert node_value_bias(np.zeros(6)) == 0.0


def test_node_values_reject_empty_vectors():
    with pytest.raises(ValueError):
        node_value_pair(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        node_value_bias(np.array([]))


# ------------------------------------------------------------------ statistics


def test_two_sample_statistics():
    samples = SampleSet(values=np.array([[0.0, 0.0], [2.0, 2.0]]), names=("a", "b"))
    mean, cov = sample_statistics(samples)
    np.testing.assert_allclose(mean, [1.0, 1.0])
    np.testing.assert_allclose(cov, [[2.0, 2.0], [2.0, 2.0]])


def test_identical_rows_zero_covariance():
    samples = SampleSet(values=np.tile([1.0, 2.0, 3.0], (5, 1)), names=("a", "b", "c"))
    _, cov = sample_statistics(samples)
    np.testing.assert_array_equal(cov, np.zeros((3, 3)))


def test_statistics_need_two_rows():
    samples = SampleSet(values=np.ones((1, 2)), names=("a", "b"))
    with pytest.raises(ValueError):
        sample_statistics(samples)


def test_monte_carlo_covariance_recovery():
    rng = np.random.default_rng(57)
    root = rng.standard_normal((5, 5))
    truth = root @ root.T + 0.5 * np.eye(5)
    chol = np.linalg.cholesky(truth)
    draws = rng.standard_normal((10_000, 5)) @ chol.T
    draws = draws - draws.min() + 0.1  # nonnegativity shift leaves covariance alone
    samples = SampleSet(values=draws, names=tuple(f"n{i}" for i in range(5)))
    _, cov = sample_statistics(samples)
    assert np.linalg.norm(cov - truth) <= 0.1 * np.linalg.norm(truth)


def test_statistics_permutation_equivariance():
    rng = np.random.default_rng(59)
    values = np.abs(rng.standard_normal((40, 6)))
    names = tuple(f"n{i}" for i in range(6))
    perm = rng.permutation(6)
    mean_a, cov_a = sample_statistics(SampleSet(values=values, names=names))
    mean_b, cov_b = sample_statistics(
        SampleSet(values=values[:, perm], names=tuple(names[i] for i in perm))
    )
    np.testing.assert_allclose(mean_b, mean_a[perm])
    np.testing.assert_allclose(cov_b, cov_a[np.ix_(perm, perm)])


# -------------------------------------------------------------------- selection


def test_select_top_two():
    assert select_important(np.array([0.1, 0.9, 0.5]), 2) == (1, 2)


def test_select_everything():
    assert select_important(np.array([3.0, 1.0, 2.0]), 3) == (0, 1, 2)


def test_select_tie_prefers_lower_index():
    assert select_important(np.array([0.5, 0.5, 0.1]), 1) == (0,)


def test_select_bounds():
    with pytest.raises(ValueError):
        select_important(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        select_important(np.array([1.0, 2.0]), 3)


def test_selection_permutation_equivariance():
    rng = np.random.default_rng(60)
    mean = rng.uniform(0, 1, size=8)
    mean[mean.argsort()[:4]] = 0  # make the top set unambiguous
    perm = rng.permutation(8)
    base = select_important(mean, 3)
    permuted = select_important(mean[perm], 3)
    assert sorted(perm[list(permuted)]) == sorted(base)


# ------------------------------------------------------------------- SampleSet


def test_sample_csv_round_trip(tmp_path):
    values = np.array([[1.0, 0.25, 3.5], [0.0, 2.0, 1.0 / 3.0]])
    samples = SampleSet(values=values, names=("L0:A0", "L0:b", "L1:A0"))
    path = tmp_path / "samples.csv"
    samples.save_csv(path)
    loaded = SampleSet.load_csv(path)
    assert loaded.names == samples.names
    np.testing.assert_array_equal(loaded.values, values)


def _per_value_csv(samples: SampleSet) -> str:
    """The writer save_csv replaced: one format() call per value."""
    lines = [",".join(samples.names) + "\n"]
    for row in samples.values:
        lines.append(",".join(format(v, ".17g") for v in row) + "\n")
    return "".join(lines)


_AWKWARD_VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e-5, 1e-4,
                   1e16, 1e17, 123456789012345678.0)


def test_sample_csv_bytes_match_per_value_writer(tmp_path):
    awkward = np.array(_AWKWARD_VALUES)
    cases = [
        SampleSet(values=np.vstack([awkward, awkward[::-1]]),
                  names=tuple(f"c{i}" for i in range(awkward.size))),
        SampleSet(values=awkward[:, None], names=("only",)),
        SampleSet(values=np.zeros((0, 3)), names=("a", "b", "c")),
        make_planted(n=30, h=3, k_connected=4, coupling=0.5, m=400, seed=7)[1],
    ]
    for i, samples in enumerate(cases):
        path = tmp_path / f"case{i}.csv"
        samples.save_csv(path)
        assert path.read_bytes() == _per_value_csv(samples).encode()
    assert "-0," in (tmp_path / "case0.csv").read_text()


def test_sample_set_rejects_negative_and_duplicate():
    with pytest.raises(ValueError):
        SampleSet(values=np.array([[-1.0]]), names=("a",))
    with pytest.raises(ValueError):
        SampleSet(values=np.ones((2, 2)), names=("a", "a"))
    with pytest.raises(ValueError):
        SampleSet(values=np.array([[np.nan]]), names=("a",))


# ---------------------------------------------------------------------- layout


def test_layout_size_and_node_names():
    layout = NodeLayout((LayerShape(0, 4, 3, 2), LayerShape(1, 3, 2, 1)))
    assert layout.n == 5
    assert layout.node_names() == ("L0:A0", "L0:A1", "L0:b", "L1:A0", "L1:b")


def test_layout_rejects_duplicate_layers():
    with pytest.raises(ValueError):
        NodeLayout((LayerShape(0, 2, 2, 1), LayerShape(0, 3, 3, 1)))


def test_layer_shape_bounds():
    with pytest.raises(ValueError):
        LayerShape(0, 2, 3, 0)
    with pytest.raises(ValueError):
        LayerShape(0, 2, 3, 3)


# --------------------------------------------------------------------- replay


def _step(a_vals, a_grads, b_vals, b_grads, bias_vals, bias_grads):
    return {
        TensorKey(0, "A", 0): sensitivity(np.asarray(a_vals, float), np.asarray(a_grads, float)),
        TensorKey(0, "B", 0): sensitivity(np.asarray(b_vals, float), np.asarray(b_grads, float)),
        TensorKey(0, "b"): sensitivity(np.asarray(bias_vals, float), np.asarray(bias_grads, float)),
    }


def test_replay_single_layer_hand_computed():
    # step 1, state starts at zero, beta1 = beta2 = 0.5:
    #   sens_A = |(1,2)*(1,1)| = (1,2); mean = (0.5,1); spread = 0.5*|sens-mean|
    #   = (0.25,0.5); score_A = (0.125,0.5) -> mean 0.3125
    #   sens_B = |(2,0)*(1,3)| = (2,0) -> score_B = (0.5*2*0.5*1, 0) = (0.5,0)
    #   -> mean 0.25; pair value = 0.5*0.3125 + 0.5*0.25 = 0.28125
    #   sens_b = |(4,)*(1,)| = 4 -> score 2.0*1.0 = 2 -> bias value 1.0
    steps = [_step([1, 2], [1, 1], [2, 0], [1, 3], [4], [1])]
    samples = replay_scores(steps, beta1=0.5, beta2=0.5)
    assert samples.names == ("L0:A0", "L0:b")
    assert samples.values.shape == (1, 2)
    assert samples.values[0, 0] == pytest.approx(0.28125, abs=1e-15)
    assert samples.values[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_replay_zero_betas_zero_row():
    steps = [_step([1, 2], [3, 4], [5, 6], [7, 8], [9], [1])]
    samples = replay_scores(steps, beta1=0.0, beta2=0.0)
    np.testing.assert_array_equal(samples.values, np.zeros((1, 2)))


def test_replay_requires_consistent_tensor_sets():
    good = _step([1, 2], [1, 1], [2, 0], [1, 3], [4], [1])
    bad = {k: v for k, v in good.items() if k.kind != "b"}
    with pytest.raises(ValueError, match="bias"):
        replay_scores([bad], 0.5, 0.5)
    with pytest.raises(ValueError, match="tensor set"):
        replay_scores([good, bad], 0.5, 0.5)


def test_replay_rejects_empty_stream():
    with pytest.raises(ValueError):
        replay_scores([], 0.5, 0.5)


def test_replay_two_layers_orders_columns():
    step = {
        TensorKey(1, "A", 0): sensitivity(np.ones(2), np.ones(2)),
        TensorKey(1, "b"): sensitivity(np.ones(2), np.ones(2)),
        TensorKey(0, "A", 0): sensitivity(np.ones(3), np.ones(3)),
        TensorKey(0, "b"): sensitivity(np.ones(3), np.ones(3)),
        TensorKey(0, "B", 0): sensitivity(np.ones(4), np.ones(4)),
        TensorKey(1, "B", 0): sensitivity(np.ones(4), np.ones(4)),
    }
    samples = replay_scores([step], 0.5, 0.5)
    assert samples.names == ("L0:A0", "L0:b", "L1:A0", "L1:b")
    assert samples.layout.layers[0].d1 == 3


# ------------------------------------------------------------------ dump files


def _write_dump(tmp_path, records_by_file):
    dump = tmp_path / "dump"
    dump.mkdir()
    for name, records in records_by_file.items():
        (dump / name).write_text(json.dumps(records))
    return dump


def _record(step, layer, tensor, values, grads, index=None):
    rec = {"step": step, "layer_id": layer, "tensor": tensor,
           "values": values, "grads": grads}
    if index is not None:
        rec["index"] = index
    return rec


def test_dump_round_trip(tmp_path):
    dump = _write_dump(tmp_path, {
        "step0.json": [
            _record(0, 0, "A", [1, 2], [1, 1], index=0),
            _record(0, 0, "B", [2, 0], [1, 3], index=0),
            _record(0, 0, "b", [4], [1]),
        ],
        "step1.json": [
            _record(1, 0, "A", [1, 2], [0, 0], index=0),
            _record(1, 0, "B", [2, 0], [0, 0], index=0),
            _record(1, 0, "b", [4], [0]),
        ],
    })
    steps = read_score_dump(dump)
    assert len(steps) == 2
    samples = replay_scores(steps, 0.5, 0.5)
    assert samples.values.shape == (2, 2)
    assert samples.values[0, 0] == pytest.approx(0.28125)


def test_dump_missing_directory(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        read_score_dump(tmp_path / "nope")


def test_dump_empty_directory(tmp_path):
    empty = tmp_path / "dump"
    empty.mkdir()
    with pytest.raises(ValueError, match="no .json records"):
        read_score_dump(empty)


def test_dump_invalid_json_names_file(tmp_path):
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "bad.json").write_text("{not json")
    with pytest.raises(ValueError, match="bad.json"):
        read_score_dump(dump)


def test_dump_missing_key_names_file_and_record(tmp_path):
    dump = _write_dump(tmp_path, {
        "r.json": [{"step": 0, "layer_id": 0, "tensor": "A", "values": [1]}],
    })
    with pytest.raises(ValueError, match=r"r\.json: record 0"):
        read_score_dump(dump)


def test_dump_pair_tensor_needs_index(tmp_path):
    dump = _write_dump(tmp_path, {
        "r.json": [_record(0, 0, "A", [1], [1])],
    })
    with pytest.raises(ValueError, match="index"):
        read_score_dump(dump)


def test_dump_bias_index_may_be_null(tmp_path):
    dump = _write_dump(tmp_path, {
        "r.json": [
            _record(0, 0, "A", [1.0], [2.0], index=0),
            _record(0, 0, "B", [1.0], [2.0], index=0),
            {**_record(0, 0, "b", [1.0], [2.0]), "index": None},
        ],
    })
    (step,) = read_score_dump(dump)
    assert TensorKey(0, "b") in step


def test_dump_duplicate_tensor_rejected(tmp_path):
    dump = _write_dump(tmp_path, {
        "r.json": [
            _record(0, 0, "b", [1], [1]),
            _record(0, 0, "b", [2], [2]),
        ],
    })
    with pytest.raises(ValueError, match="duplicate"):
        read_score_dump(dump)


FIXTURE_DUMP = Path(__file__).parent / "fixtures" / "score_dump"

# The reader converts values/grads while json.loads decodes each record; the
# arrays and the errors must be those of a plain parse followed by _parse_record.
_DUMP_VALUES = {
    "floats": [0.1, -2.5e-300, 3, 1e308],
    "floats_below_overflow": [0.1, -2.5e-300, 3, 1e154],
    "numeric_strings": ["1.5", "2"],
    "strings": ["a", "b"],
    "string": "abc",
    "nested": [[1.0, 2.0], [3.0, 4.0]],
    "ragged": [[1.0], [2.0, 3.0]],
    "objects": [{"values": [1.0]}],
    "booleans": [True, False],
    "null": None,
    "number": 2.0,
    "empty": [],
    "huge_integer": [10**400],
}


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(_DUMP_VALUES))
def test_dump_reader_matches_a_plain_parse(tmp_path, name):
    values = _DUMP_VALUES[name]
    records = [_record(0, 0, "b", values, [5.0, 6.0] if name == "ragged" else values),
               {**_record(0, 1, "b", [1.0], [2.0]), "meta": {"values": values}}]
    dump = _write_dump(tmp_path, {"r.json": records})
    read = _outcome(lambda: read_score_dump(dump)[0][TensorKey(0, "b")])
    text = (dump / "r.json").read_text()
    where = f"{dump / 'r.json'}: record 0"
    plain = _outcome(lambda: _parse_record(json.loads(text)[0], where)[2])
    assert read[0] == plain[0]
    if read[0] == "ok":
        assert read[1].dtype == plain[1].dtype == np.float64
        assert read[1].tobytes() == plain[1].tobytes()
    else:
        assert read[1] == plain[1]
        assert read[0] is OverflowError or read[1].startswith(where)


def test_dump_reader_fixture_arrays_match_a_plain_parse():
    steps = read_score_dump(FIXTURE_DUMP)
    for file in sorted(FIXTURE_DUMP.glob("*.json")):
        for pos, record in enumerate(json.loads(file.read_text())):
            step, key, _ = _parse_record(record, f"{file.name}: record {pos}")
            got = steps[step][key]
            assert got.dtype == np.float64
            want = sensitivity(number_array(record["values"]), number_array(record["grads"]))
            assert got.tobytes() == want.tobytes()
