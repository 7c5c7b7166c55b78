"""Per-layer score replay against the per-tensor recursion it replaced.

``replay_scores`` keeps one EMA state per (layer, tensor kind) and stacks a
layer's tensors row by row.  Every operation is elementwise or a mean over
one row, so its samples must equal those of one state per tensor bit for
bit, also past NumPy's 128-element pairwise-summation block.
"""

import numpy as np
import pytest

from ggm_select import nodes
from ggm_select.nodes import (
    ImportanceState,
    TensorKey,
    node_value_pair,
    replay_scores,
    sensitivity,
    update_score,
)

# (layer_id, d1, d2, r): r in {1, 3}, d1 != d2, every length >= 300
LAYERS = [(0, 300, 417, 3), (3, 513, 301, 1), (7, 350, 300, 3)]
BETAS = [(0.85, 0.85), (0.5, 0.9), (0.0, 0.3), (0.99, 0.0)]


def _stream(seed, steps=6, layers=LAYERS):
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(steps):
        step = {}
        for layer_id, d1, d2, r in layers:
            for i in range(r):
                step[TensorKey(layer_id, "A", i)] = tuple(rng.standard_normal((2, d1)))
                step[TensorKey(layer_id, "B", i)] = tuple(rng.standard_normal((2, d2)))
            step[TensorKey(layer_id, "b")] = tuple(rng.standard_normal((2, d1)))
        keys = list(step)
        rng.shuffle(keys)  # replay must not rely on insertion order
        stream.append({key: step[key] for key in keys})
    return stream


def _per_tensor_replay(steps, beta1, beta2):
    """One EMA state per tensor and one formula call per node, as before stacking."""
    keys = sorted(steps[0], key=TensorKey.sort_key)
    layer_ids = sorted({key.layer_id for key in keys})
    ranks = {lid: sum(k.layer_id == lid and k.kind == "A" for k in keys) for lid in layer_ids}
    states = {key: ImportanceState.zeros(steps[0][key][0].shape, beta1, beta2) for key in keys}
    rows = []
    for step in steps:
        scores = {}
        for key in keys:
            states[key], scores[key] = update_score(states[key], sensitivity(*step[key]))
        row = []
        for lid in layer_ids:
            for i in range(ranks[lid]):
                score_a = scores[TensorKey(lid, "A", i)]
                score_b = scores[TensorKey(lid, "B", i)]
                row.append(0.5 * float(np.mean(score_a)) + 0.5 * float(np.mean(score_b)))
            row.append(0.5 * float(np.mean(scores[TensorKey(lid, "b")])))
        rows.append(row)
    return np.asarray(rows)


@pytest.mark.parametrize("beta1,beta2", BETAS)
@pytest.mark.parametrize("seed", [0, 1])
def test_layer_replay_equals_per_tensor_loop_bit_for_bit(seed, beta1, beta2):
    steps = _stream(seed)
    samples = replay_scores(steps, beta1, beta2)
    expected = _per_tensor_replay(steps, beta1, beta2)
    assert samples.values.shape == expected.shape == (6, sum(r + 1 for *_, r in LAYERS))
    assert np.array_equal(samples.values, expected)


def test_layer_replay_makes_one_update_per_layer_and_kind(monkeypatch):
    calls = []

    def counted(state, sens):
        calls.append(state.mean.shape)
        return update_score(state, sens)

    monkeypatch.setattr(nodes, "update_score", counted)
    replay_scores(_stream(2, steps=5), 0.85, 0.85)
    per_step = [shape for _, d1, d2, r in LAYERS for shape in ((r, d1), (r, d2), (1, d1))]
    assert calls == per_step * 5


@pytest.mark.parametrize("r,d1,d2", [(1, 300, 417), (3, 513, 301), (5, 777, 300)])
def test_pair_value_of_a_stack_equals_row_calls_bit_for_bit(r, d1, d2):
    rng = np.random.default_rng(r)
    score_a = rng.random((r, d1))
    score_b = rng.random((r, d2))
    stacked = node_value_pair(score_a, score_b)
    rows = [node_value_pair(score_a[i], score_b[i]) for i in range(r)]
    assert all(isinstance(value, float) for value in rows)
    assert stacked.shape == (r,)
    assert np.array_equal(stacked, np.asarray(rows))


@pytest.mark.parametrize("kind", ["A", "B", "b"])
def test_later_step_with_wrong_length_names_step_layer_and_kind(kind):
    steps = _stream(3, steps=5)
    key = TensorKey(3, kind, None if kind == "b" else 0)
    values, grads = steps[3][key]
    steps[3][key] = (values[:-1], grads[:-1])
    with pytest.raises(ValueError, match=rf"step 3: layer 3: every {kind} tensor"):
        replay_scores(steps, 0.85, 0.85)


def test_step_zero_pair_tensor_must_match_the_first_of_its_kind():
    steps = _stream(4, steps=2)
    key = TensorKey(7, "A", 2)
    values, grads = steps[0][key]
    steps[0][key] = (values[:-5], grads[:-5])
    with pytest.raises(ValueError, match="step 0: layer 7: every A tensor must have length 350"):
        replay_scores(steps, 0.85, 0.85)
