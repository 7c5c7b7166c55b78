"""Regenerate the recorded score-stream fixture under tests/fixtures/.

Writes one JSON file per step (a list of tensor records) for a two-layer
layout, then replays the stream, read in the |value * grad| form that the
CLI reads, and freezes the resulting node samples as a golden CSV.
Deterministic: fixed seed, fixed record order per file.
"""

import json
from pathlib import Path

import numpy as np

from ggm_select.nodes import read_score_dump, replay_scores

LAYERS = [
    # (layer_id, d1, d2, r)
    (0, 4, 3, 2),
    (1, 3, 2, 1),
]
STEPS = 5
BETA = 0.85
SEED = 2024


def make_records(rng, step):
    records = []
    for layer_id, d1, d2, r in LAYERS:
        for i in range(r):
            records.append({
                "step": step, "layer_id": layer_id, "tensor": "A", "index": i,
                "values": rng.standard_normal(d1).round(6).tolist(),
                "grads": rng.standard_normal(d1).round(6).tolist(),
            })
            records.append({
                "step": step, "layer_id": layer_id, "tensor": "B", "index": i,
                "values": rng.standard_normal(d2).round(6).tolist(),
                "grads": rng.standard_normal(d2).round(6).tolist(),
            })
        records.append({
            "step": step, "layer_id": layer_id, "tensor": "b",
            "values": rng.standard_normal(d1).round(6).tolist(),
            "grads": rng.standard_normal(d1).round(6).tolist(),
        })
    rng.shuffle(records)  # readers must not rely on record order
    return records


def main():
    fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    dump = fixtures / "score_dump"
    dump.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(SEED)
    for step in range(STEPS):
        path = dump / f"step{step}.json"
        path.write_text(json.dumps(make_records(rng, step), indent=2) + "\n")

    samples = replay_scores(read_score_dump(dump, sensitivities=True), beta1=BETA, beta2=BETA)
    samples.save_csv(fixtures / "score_samples_golden.csv")
    print(f"wrote {STEPS} step files and golden CSV ({samples.m} x {samples.n})")


if __name__ == "__main__":
    main()
