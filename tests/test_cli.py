import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ggm_select.cli import main
from ggm_select.nodes import SampleSet, sample_statistics

FIXTURES = Path(__file__).parent / "fixtures"


def _write_cov(path, matrix):
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")


def _small_config(tmp_path, **overrides):
    payload = {
        "mode": "planted",
        "n": 8,
        "h": 2,
        "k_connected": 2,
        "coupling": 0.5,
        "m": 80,
        "seed": 3,
        "surrogate": {"kind": "geman", "params": {"epsilon": 0.5}},
        "tau": 0.1,
        "lambda": 1.0,
        "solver": {"T": 40},
        "selection": {"budget": 2},
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


# ------------------------------------------------------------------------ prox


def test_prox_identity_soft_threshold(capsys):
    rc = main(["prox", "--y", "2.5", "--lam", "0.5", "--kind", "identity"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x_star"] == pytest.approx(2.0, abs=1e-12)
    assert payload["branch"] == "fixed_point"


def test_prox_oracle_gap(capsys):
    rc = main(["prox", "--y", "5.0", "--lam", "0.5", "--kind", "geman",
               "--param", "epsilon=1.0", "--oracle", "--oracle-step", "1e-5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["gap"]) <= 1e-5
    assert payload["objective"] <= payload["objective"] + 1e-12


def test_prox_requires_y():
    with pytest.raises(SystemExit) as excinfo:
        main(["prox", "--lam", "0.5"])
    assert excinfo.value.code == 2


def test_prox_rejects_bad_param(capsys):
    rc = main(["prox", "--y", "1.0", "--lam", "0.5", "--kind", "geman",
               "--param", "epsilon=abc"])
    assert rc == 2
    assert "not a number" in capsys.readouterr().err


# ----------------------------------------------------------------------- solve


def test_solve_identity_covariance(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.eye(3))
    out = tmp_path / "run"
    rc = main(["solve", "--cov", str(cov), "--important", "0", "--tau", "0.0",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    omega = np.array(report["omega"]).reshape(3, 3)
    np.testing.assert_allclose(omega, np.eye(3), atol=1e-8)
    assert (out / "manifest.json").exists()
    assert "converged=true" in capsys.readouterr().out


def test_solve_rejects_asymmetric_covariance(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, [[1.0, 0.5], [0.0, 1.0]])
    rc = main(["solve", "--cov", str(cov), "--important", "0",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "not symmetric" in capsys.readouterr().err


def test_solve_h_needs_mean(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.eye(3))
    rc = main(["solve", "--cov", str(cov), "--h", "1", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "--mean" in capsys.readouterr().err


def test_solve_needs_some_important_spec(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.eye(3))
    rc = main(["solve", "--cov", str(cov), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "--important" in capsys.readouterr().err


def test_solve_full_offdiag_needs_no_important(tmp_path):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.diag([2.0, 1.0]))
    out = tmp_path / "run"
    rc = main(["solve", "--cov", str(cov), "--mode", "full_offdiag", "--tau", "0.0",
               "--out", str(out), "--quiet"])
    assert rc == 0
    omega = np.array(json.loads((out / "report.json").read_text())["omega"]).reshape(2, 2)
    np.testing.assert_allclose(omega, np.diag([0.5, 1.0]), atol=1e-6)


def test_solve_ranks_mean_for_important(tmp_path):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.eye(3))
    mean = tmp_path / "mean.csv"
    mean.write_text("0.1,0.9,0.5\n")
    out = tmp_path / "run"
    rc = main(["solve", "--cov", str(cov), "--h", "1", "--mean", str(mean),
               "--out", str(out), "--quiet"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["important_set"] == [1]
    assert "mean" in manifest["input_digests"]


def test_solve_missing_covariance_is_io_error(tmp_path, capsys):
    rc = main(["solve", "--cov", str(tmp_path / "nope.csv"), "--important", "0",
               "--out", str(tmp_path / "run")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


# -------------------------------------------------------------------- simulate


def test_simulate_writes_outputs(tmp_path, capsys):
    config = _small_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(config), "--out", str(out)])
    assert rc == 0
    for name in ("selection.json", "report.json", "samples.csv", "manifest.json"):
        assert (out / name).exists()
    selection = json.loads((out / "selection.json").read_text())
    assert sorted(selection["important_set"] + selection["solver_selected"]
                  + selection["frozen"]) == list(range(8))
    line = capsys.readouterr().out
    assert "seed=3" in line and "f1=" in line


def test_simulate_deterministic_outputs(tmp_path):
    config = _small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out", str(out_a), "--quiet"]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out_b), "--quiet"]) == 0
    for name in ("selection.json", "report.json", "samples.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_seed_sweep_parallel(tmp_path, capsys):
    config = _small_config(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["simulate", "--config", str(config), "--out", str(out),
               "--seeds", "1,2", "--jobs", "2"])
    assert rc == 0
    assert (out / "seed_1" / "selection.json").exists()
    assert (out / "seed_2" / "selection.json").exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert "seed=1" in lines[0] and "seed=2" in lines[1]


def test_simulate_seed_sweep_prints_average_f1(tmp_path, capsys):
    config = _small_config(tmp_path)
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "sweep"),
               "--seeds", "1,2"])
    assert rc == 0
    captured = capsys.readouterr()
    f1s = [float(line.rsplit("f1=", 1)[1]) for line in captured.out.splitlines()]
    average = float(captured.err.split("average_f1=", 1)[1].split()[0])
    assert average == pytest.approx(sum(f1s) / 2, abs=1e-3)
    assert captured.err.strip().endswith("over 2 seeds")


def test_simulate_seed_flag_overrides_config(tmp_path):
    config = _small_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--seed", "9", "--quiet"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 9


def test_simulate_oversized_coupling_fails_cleanly(tmp_path, capsys):
    config = _small_config(tmp_path, coupling=9.0, k_connected=6)
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "planted precision not PD" in capsys.readouterr().err


def test_simulate_missing_config_is_io_error(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "run")])
    assert rc == 4


def test_simulate_unwritable_out_is_io_error(tmp_path, capsys):
    config = _small_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    rc = main(["simulate", "--config", str(config),
               "--out", str(blocker / "run"), "--quiet"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    config = _small_config(tmp_path, typo_key=1)
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


_MALFORMED_INPUTS = {
    "solver_T_string": {"solver": {"T": "abc"}},
    "solver_T_float": {"solver": {"T": 2.5}},
    "solver_list": {"solver": ["T"]},
    "gradient_inner_max_iter_float": {
        "solver": {"T": 2, "precision_method": "gradient", "inner_max_iter": 1.5},
    },
    "solver_eta_string": {"solver": {"eta": "x"}},
    "h_null": {"h": None},
    "surrogate_null": {"surrogate": None},
    "coupling_null": {"coupling": None},
    "tau_list": {"tau": [1]},
    "seed_null": {"seed": None},
    "budget_null": {"selection": {"budget": None}},
    "h_float": {"h": 2.9},
    "n_float": {"n": 8.0},
    "k_connected_float": {"k_connected": 2.5},
    "m_float": {"m": 80.5},
    "budget_float": {"selection": {"budget": 3.7}},
    "seed_bool": {"seed": True},
    "seed_float": {"seed": 3.0},
    "standardize_string": {"standardize": "no"},
    "standardize_int": {"standardize": 1},
    "cov_json_without_n": {"data": [1.0, 0.0, 0.0, 1.0]},
    "cov_json_list": [1.0, 0.0, 0.0, 1.0],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_config_or_covariance_exits_2(tmp_path, capsys, case):
    content = _MALFORMED_INPUTS[case]
    out = str(tmp_path / "run")
    if case.startswith("cov_json"):
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps(content))
        argv = ["solve", "--cov", str(cov), "--important", "0", "--out", out]
    else:
        argv = ["simulate", "--config", str(_small_config(tmp_path, **content)), "--out", out]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------- score


def test_score_matches_frozen_golden(tmp_path):
    out = tmp_path / "samples.csv"
    rc = main(["score", "--dump", str(FIXTURES / "score_dump"),
               "--beta1", "0.85", "--beta2", "0.85", "--out", str(out), "--quiet"])
    assert rc == 0
    golden = (FIXTURES / "score_samples_golden.csv").read_bytes()
    assert out.read_bytes() == golden
    assert Path(str(out) + ".manifest.json").exists()


def test_score_first_entry_hand_audit(tmp_path):
    """Recompute one golden cell from the raw records with spelled-out EMAs."""
    records = json.loads((FIXTURES / "score_dump" / "step0.json").read_text())
    by_key = {(r["layer_id"], r["tensor"], r.get("index")): r for r in records}

    def first_step_scores(key):
        rec = by_key[key]
        sens = np.abs(np.array(rec["values"]) * np.array(rec["grads"]))
        mean = 0.15 * sens
        spread = 0.15 * np.abs(sens - mean)
        return mean * spread

    expected = 0.5 * first_step_scores((0, "A", 0)).mean() \
        + 0.5 * first_step_scores((0, "B", 0)).mean()
    golden_lines = (FIXTURES / "score_samples_golden.csv").read_text().splitlines()
    assert golden_lines[0].split(",")[0] == "L0:A0"
    first_value = float(golden_lines[1].split(",")[0])
    assert first_value == pytest.approx(expected, rel=1e-12)


def test_score_empty_dump_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["score", "--dump", str(empty), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "no .json records" in capsys.readouterr().err


def test_score_malformed_record_names_file(tmp_path, capsys):
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "broken.json").write_text('[{"step": 0, "layer_id": 0}]')
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "broken.json" in capsys.readouterr().err


# ------------------------------------------------------------------ round trip


def test_simulate_then_solve_round_trip(tmp_path):
    """solve on statistics recomputed from simulate's samples reproduces omega."""
    config = _small_config(tmp_path, m=200)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0

    samples = SampleSet.load_csv(out / "samples.csv")
    mean, cov = sample_statistics(samples)
    cov_path = tmp_path / "cov.csv"
    mean_path = tmp_path / "mean.csv"
    _write_cov(cov_path, cov)
    mean_path.write_text(",".join(format(v, ".17g") for v in mean) + "\n")

    solve_out = tmp_path / "solve"
    rc = main(["solve", "--cov", str(cov_path), "--h", "2", "--mean", str(mean_path),
               "--tau", "0.1", "--lam", "1.0", "--kind", "geman", "--param", "epsilon=0.5",
               "--T", "40", "--out", str(solve_out), "--quiet"])
    assert rc == 0

    omega_sim = np.array(json.loads((out / "report.json").read_text())["omega"])
    omega_solve = np.array(json.loads((solve_out / "report.json").read_text())["omega"])
    np.testing.assert_allclose(omega_solve, omega_sim, atol=1e-10)


# ------------------------------------------------------------------- top level


def test_version_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ggm_select.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ggm-select 0.1.0"


def test_unknown_log_level_falls_back(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GGM_SELECT_LOG", "chatty")
    rc = main(["prox", "--y", "1.0", "--lam", "0.25", "--kind", "identity"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["x_star"] == pytest.approx(0.75)
