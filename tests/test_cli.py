import concurrent.futures
import json
import subprocess
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ggm_select import cli
from ggm_select.cli import build_parser, main
from ggm_select.ggm import load_covariance
from ggm_select.nodes import SampleSet, sample_statistics
from ggm_select.pipeline import PipelineConfig
from ggm_select.scalar_prox import ProxProblem

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


def test_prox_oracle_refuses_a_grid_too_large_to_allocate(capsys):
    rc = main(["prox", "--y", "1", "--lam", "0.5", "--oracle", "--oracle-step", "1e-15"])
    assert rc == 2
    assert "grid of 1e+15 points" in capsys.readouterr().err


def test_prox_oracle_default_grid_still_runs(capsys):
    rc = main(["prox", "--y", "1", "--lam", "0.5", "--oracle"])
    assert rc == 0
    assert abs(json.loads(capsys.readouterr().out)["gap"]) <= 1e-6


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


def test_solve_summary_ranks_tied_group_norms_by_index(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.diag([1.0, 2.0, 2.0, 3.0, 1.0, 4.0, 2.0]))
    out = tmp_path / "run"
    assert main(["solve", "--cov", str(cov), "--important", "0", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["group_norms"] == [0.0] * 7
    assert capsys.readouterr().out.rstrip().endswith(" top_group_norms=0:0,1:0,2:0,3:0,4:0")


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


@pytest.mark.parametrize("text, shown", [("nan,1", "line 1 column 1: must be a finite number, got 'nan'"),
                                         ("1,-inf,0.5", "line 1 column 2: must be a finite number, got '-inf'")],
                         ids=["nan", "minus_inf"])
def test_solve_refuses_a_mean_that_is_not_finite(tmp_path, capsys, text, shown):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.eye(len(text.split(","))))
    mean = tmp_path / "mean.csv"
    mean.write_text(text + "\n")
    out = tmp_path / "run"
    rc = main(["solve", "--cov", str(cov), "--h", "1", "--mean", str(mean), "--out", str(out)])
    assert rc == 2
    assert f"mean file {mean}: {shown}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_missing_covariance_is_io_error(tmp_path, capsys):
    rc = main(["solve", "--cov", str(tmp_path / "nope.csv"), "--important", "0",
               "--out", str(tmp_path / "run")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


# (input, file name, file bytes): text the readers refuse, each naming the file
_UNREADABLE_FILES = {
    "cov_csv_nan": ("cov", "sigma.csv", b"1,0\n0,nan\n"),
    "cov_csv_ragged": ("cov", "sigma.csv", b"1,0\n0\n"),
    "cov_csv_not_a_number": ("cov", "sigma.csv", b"1,x\n0,1\n"),
    "cov_csv_digit_separator": ("cov", "sigma.csv", b"1_0,0\n0,1\n"),
    "cov_csv_empty": ("cov", "sigma.csv", b""),
    "cov_csv_not_utf8": ("cov", "sigma.csv", b"1,0\n0,\xff\n"),
    "cov_json_truncated": ("cov", "sigma.json", b'{"n": 1, "data": [1.0'),
    "cov_json_not_utf8": ("cov", "sigma.json", b'\xff{"n": 1, "data": [1.0]}'),
    "config_truncated": ("config", "run.json", b'{"mode": "planted", '),
    "mean_two_by_two": ("mean", "mu.csv", b"0.1,0.9\n0.5,0.2\n"),
    "mean_empty": ("mean", "mu.csv", b""),
    # refused after the file parses
    "cov_csv_not_square": ("cov", "sigma.csv", b"1,0,0\n0,1,0\n"),
    "cov_json_too_few_values": ("cov", "sigma.json", b'{"n": 2, "data": [1.0]}'),
    "cov_json_data_not_numbers": ("cov", "sigma.json", b'{"n": 2, "data": [1.0, "x", 0.0, 1.0]}'),
    "config_unknown_key": ("config", "run.json", b'{"bogus": 1}'),
    "mean_wrong_length": ("mean", "mu.csv", b"0.1,0.9,0.5\n"),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE_FILES))
def test_an_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, case):
    kind, name, content = _UNREADABLE_FILES[case]
    path = tmp_path / name
    path.write_bytes(content)
    out = str(tmp_path / "run")
    if kind == "config":
        argv = ["simulate", "--config", str(path), "--out", out]
    elif kind == "cov":
        argv = ["solve", "--cov", str(path), "--important", "0", "--out", out]
    else:
        _write_cov(tmp_path / "eye.csv", np.eye(4))
        argv = ["solve", "--cov", str(tmp_path / "eye.csv"), "--h", "1", "--mean", str(path), "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err and "usecols" not in err


def test_csv_comments_blank_lines_spaces_and_crlf_read_as_plain_csv(tmp_path):
    _write_cov(tmp_path / "plain.csv", [[2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [0.0, 0.25, 1.0]])
    loose = tmp_path / "loose.csv"
    loose.write_bytes(b"# covariance\r\n2, 0.5 ,0\r\n\r\n 0.5,1.5,0.25 # row 1\r\n0,0.25,1\r\n")
    column = tmp_path / "column.csv"
    column.write_bytes(b"# mean\r\n0.1\r\n 0.9 \r\n\r\n0.5\r\n")
    np.testing.assert_array_equal(load_covariance(loose), load_covariance(tmp_path / "plain.csv"))
    np.testing.assert_array_equal(cli._load_mean_vector(column), [0.1, 0.9, 0.5])


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
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert "seed=1" in lines[0] and "seed=2" in lines[1]
    serial = tmp_path / "serial"
    assert main(["simulate", "--config", str(config), "--out", str(serial),
                 "--seeds", "1,2", "--jobs", "1", "--quiet"]) == 0
    for seed in ("seed_1", "seed_2"):
        for name in ("selection.json", "report.json", "samples.csv"):
            assert (out / seed / name).read_bytes() == (serial / seed / name).read_bytes()


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
    "gradient_inner_max_iter_zero": {
        "solver": {"T": 2, "precision_method": "gradient", "inner_max_iter": 0},
    },
    "solver_inner_max_iter_negative": {"solver": {"inner_max_iter": -3}},
    "solver_inner_tol_inf": {"solver": {"inner_tol": float("inf")}},
    "solver_outer_tol_nan": {"solver": {"outer_tol": float("nan")}},
    "tau_string": {"tau": "0.1"},
    "lambda_string": {"lambda": "1.0"},
    "coupling_bool": {"coupling": True},
    "beta1_string": {"beta1": "0.85"},
    "beta2_bool": {"beta2": False},
    "threshold_string": {"selection": {"threshold": "0.1"}},
    "surrogate_param_string": {"surrogate": {"kind": "geman", "params": {"epsilon": "0.5"}}},
    "surrogate_param_bool": {"surrogate": {"kind": "geman", "params": {"epsilon": True}}},
    "tau_int_too_large_for_float": {"tau": 10**400},
    "surrogate_param_int_too_large_for_float": {
        "surrogate": {"kind": "geman", "params": {"epsilon": 10**400}},
    },
    "cov_json_without_n": {"data": [1.0, 0.0, 0.0, 1.0]},
    "cov_json_list": [1.0, 0.0, 0.0, 1.0],
    "cov_json_n_float": {"n": 2.9, "data": [1.0, 0.0, 0.0, 1.0]},
    "cov_json_n_string": {"n": "2", "data": [1.0, 0.0, 0.0, 1.0]},
    "cov_json_n_bool": {"n": True, "data": [1.0]},
    "surrogate_unknown_key": {
        "surrogate": {"kind": "geman", "params": {"epsilon": 0.5}, "scale": 2.0},
    },
    "dump_null": {"dump": None},
    "dump_int": {"dump": 5},
    "cov_json_data_strings_and_bools": {"n": 2, "data": ["1", "0", False, True]},
    "cov_json_data_nested": {"n": 2, "data": [[1.0, 0.0], [0.0, 1.0]]},
    "cov_json_data_object": {"n": 1, "data": {"0": 1.0}},
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


@pytest.mark.parametrize("content, refused", [
    ({"solver": {"eta": 0.1}}, "unknown solver keys: ['eta']"),
    ({"solver": {"lam_growth": 1.0}}, "unknown solver keys: ['lam_growth']"),
    ({"standardize": False}, "unknown config keys: ['standardize']"),
], ids=["solver_eta", "solver_lam_growth", "standardize"])
def test_config_refuses_a_removed_setting(tmp_path, capsys, content, refused):
    config = _small_config(tmp_path, **content)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert refused in capsys.readouterr().err


@pytest.mark.parametrize("dump", [None, 5, ["run"]])
def test_config_dump_must_be_a_string(tmp_path, capsys, dump):
    config = _small_config(tmp_path, mode="dump", dump=dump)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert "config key 'dump'" in capsys.readouterr().err


def test_covariance_json_data_names_the_bad_element(tmp_path, capsys):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"n": 2, "data": [1.0, 0.0, "0", 1.0]}))
    rc = main(["solve", "--cov", str(cov), "--important", "0", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "covariance JSON key 'data': must be numbers, got str at element 2" in capsys.readouterr().err


@pytest.mark.parametrize("data, refused", [
    ("[1.0, 0.0, true, 1.0]", "must be numbers, got bool at element 2"),
    ("[1.0, 0.0, NaN, 1.0]", "must be finite, got nan at element 2"),
    ("[1.0, 0.0, Infinity, 1.0]", "must be finite, got inf at element 2"),
    ("[[1.0, 0.0], [0.0, 1.0]]", "must be numbers, got list at element 0"),
    ("2.0", "must be an array of numbers, got float"),
], ids=["true", "nan", "infinity", "nested", "bare_number"])
def test_covariance_json_data_refuses_what_is_not_a_finite_number(tmp_path, capsys, data, refused):
    cov = tmp_path / "cov.json"
    n = 1 if data == "2.0" else 2
    cov.write_text(f'{{"n": {n}, "data": {data}}}')
    rc = main(["solve", "--cov", str(cov), "--important", "0", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert f"covariance JSON key 'data': {refused}" in capsys.readouterr().err


def test_simulate_starts_at_most_one_worker_per_seed(tmp_path, monkeypatch):
    started = []

    class InlineExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers, runs each call inline."""

        def __init__(self, max_workers, mp_context):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    config = _small_config(tmp_path)
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "sweep"),
               "--seeds", "1,2", "--jobs", "8", "--quiet"])
    assert rc == 0
    assert started == [2]
    assert (tmp_path / "sweep" / "seed_2" / "selection.json").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_workers_start_by_the_dump_readers_rule(tmp_path, monkeypatch, threads):
    # one rule for every process the package starts: fork only on Linux and
    # only from a caller running one Python thread
    methods = []

    def record(max_workers, mp_context):
        methods.append(mp_context.get_start_method())
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    config = _small_config(tmp_path)
    stop = threading.Event()
    waiters = [threading.Thread(target=stop.wait) for _ in range(threads - 1)]
    for waiter in waiters:
        waiter.start()
    try:
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "sweep"),
                   "--seeds", "1,2", "--jobs", "2", "--quiet"])
    finally:
        stop.set()
        for waiter in waiters:
            waiter.join(timeout=60)
    assert rc == 0
    fork = sys.platform == "linux" and threads == 1
    assert methods == ["fork" if fork else "spawn"]


def test_a_run_that_starts_no_process_does_not_import_multiprocessing(tmp_path):
    config = _small_config(tmp_path)
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "run"), "--quiet"]
    code = (
        "import sys\n"
        "from ggm_select import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process', 'ggm_select._json_numbers'}\n"
        "             & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "run" / "selection.json").exists()


@pytest.mark.parametrize("where, flags, refused", [
    ("config", [], "planted mode needs seed >= 0, got -1"),
    ("--seed", ["--seed", "-3"], "planted mode needs seed >= 0, got -3"),
    ("--seeds", ["--seeds", "1,-2"], "planted mode needs seed >= 0, got -2"),
], ids=["config", "seed_flag", "seeds_flag"])
def test_planted_runs_refuse_a_negative_seed_before_any_run(tmp_path, capsys, where, flags, refused):
    config = _small_config(tmp_path, **({"seed": -1} if where == "config" else {}))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out), *flags]) == 2
    assert refused in capsys.readouterr().err
    assert not out.exists()


def test_dump_mode_records_a_negative_seed(tmp_path):
    config = _small_config(tmp_path, mode="dump", dump=str(tmp_path), seed=-4)
    assert PipelineConfig.from_json_file(config).seed == -4


@pytest.mark.parametrize("key", ["beta1", "beta2"])
@pytest.mark.parametrize("beta", [1.0, -0.1])
def test_betas_outside_the_ema_range_are_refused_before_the_dump_is_read(tmp_path, capsys, key, beta):
    missing = str(tmp_path / "no_dump")  # reading it would fail with another message
    config = _small_config(tmp_path, mode="dump", dump=missing, **{key: beta})
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert f"config key {key!r}: must be in [0, 1), got {beta}" in capsys.readouterr().err
    assert main(["score", "--dump", missing, f"--{key}", str(beta),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert f"--{key} must be in [0, 1), got {beta}" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, repeated", [("1,1", 1), ("2,1,3,1,2", 2)])
def test_simulate_refuses_repeated_seeds(tmp_path, capsys, seeds, repeated):
    config = _small_config(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["simulate", "--config", str(config), "--out", str(out),
               "--seeds", seeds, "--jobs", "2"])
    assert rc == 2
    assert f"--seeds repeats seed {repeated}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_simulate_refuses_jobs_below_one(tmp_path, capsys, jobs):
    config = _small_config(tmp_path)
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "run"),
               "--seeds", "1,2", "--jobs", jobs])
    assert rc == 2
    assert "--jobs" in capsys.readouterr().err


def test_solve_manifest_records_the_solver_block(tmp_path):
    cov = tmp_path / "cov.csv"
    _write_cov(cov, np.eye(3))
    out = tmp_path / "run"
    rc = main(["solve", "--cov", str(cov), "--important", "0", "--T", "7",
               "--precision-method", "gradient", "--out", str(out), "--quiet"])
    assert rc == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["solver"] == {"T": 7, "inner_tol": 1e-8, "inner_max_iter": 5000,
                                "outer_tol": 1e-7, "precision_method": "gradient"}


@pytest.mark.parametrize("argv", [
    ["prox", "--y", "1", "--lam", "0.5", "--quiet"],
    ["prox", "--y", "1", "--lam", "0.5", "--seed", "1"],
    ["prox", "--y", "1", "--lam", "0.5", "--jobs", "2"],
    ["solve", "--cov", "cov.csv", "--important", "0", "--out", "run", "--jobs", "2"],
    ["score", "--dump", "dump", "--out", "samples.csv", "--jobs", "2"],
], ids=["prox_quiet", "prox_seed", "prox_jobs", "solve_jobs", "score_jobs"])
def test_flags_a_subcommand_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_flag_defaults_come_from_the_library():
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert sub["prox"].get_default("tol") == ProxProblem.tol
    assert sub["score"].get_default("beta1") == PipelineConfig.beta1
    assert sub["score"].get_default("beta2") == PipelineConfig.beta2


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


def _pair_dump_records():
    """One layer with pairs 0 and 1 and a bias, at step 1, in one file."""
    records = [{"step": 1, "layer_id": 1, "tensor": tensor, "index": index,
                "values": [1.0, 2.0], "grads": [0.5, -0.25]}
               for index in (0, 1) for tensor in ("A", "B")]
    return records + [{"step": 1, "layer_id": 1, "tensor": "b", "values": [3.0], "grads": [0.1]}]


@pytest.mark.parametrize("key, old, new", [
    ("step", 1, 1.5),
    ("layer_id", 1, True),
    ("index", 0, 0.9),
    ("index", 1, "1"),
])
def test_score_refuses_a_record_value_that_is_not_an_integer(tmp_path, capsys, key, old, new):
    records = _pair_dump_records()
    changed = [pos for pos, record in enumerate(records) if record.get(key) == old]
    for pos in changed:
        records[pos][key] = new
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "steps.json").write_text(json.dumps(records))
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"steps.json: record {changed[0]} key {key!r}" in err


def _huge_integer_dump(tmp_path):
    """The pair dump with a grads entry too large for a float in record 2."""
    records = _pair_dump_records()
    records[2]["grads"] = [0.5, 10**400]
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "steps.json").write_text(json.dumps(records))
    return dump


def test_score_refuses_an_integer_too_large_for_a_float(tmp_path, capsys):
    dump = _huge_integer_dump(tmp_path)
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "steps.json: record 2 key 'grads': must be numbers, got an integer too large" in err


def test_simulate_dump_mode_refuses_an_integer_too_large_for_a_float(tmp_path, capsys):
    config = _small_config(tmp_path, mode="dump", dump=str(_huge_integer_dump(tmp_path)))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert "steps.json: record 2 key 'grads': must be numbers" in capsys.readouterr().err


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


@pytest.mark.parametrize("key, new, refused", [
    ("values", ["1.5", "2"], "str"),
    ("grads", [True, 0.5], "bool"),
    ("grads", [0.5, False], "bool"),
])
def test_score_refuses_strings_and_booleans_in_values_and_grads(tmp_path, capsys, key, new, refused):
    records = _pair_dump_records()
    records[3][key] = new
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "steps.json").write_text(json.dumps(records))
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert f"steps.json: record 3 key {key!r}: must be numbers, got {refused}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["values", "grads"])
@pytest.mark.parametrize("literal, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"),
])
def test_score_refuses_non_finite_values_and_grads(tmp_path, capsys, key, literal, shown):
    records = _pair_dump_records()
    records[3][key] = [1.0, "NOT_FINITE"]
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "steps.json").write_text(json.dumps(records).replace('"NOT_FINITE"', literal))
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"steps.json: record 3 key {key!r}: must be finite, got {shown} at element 1" in err


def test_score_refuses_values_whose_product_overflows(tmp_path, capsys):
    records = _pair_dump_records()
    records[3]["values"] = records[3]["grads"] = [1.0, 1e200]
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "steps.json").write_text(json.dumps(records))
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "steps.json: record 3: |values * grads| overflows a float" in capsys.readouterr().err


def test_score_names_a_dump_file_that_is_not_utf8(tmp_path, capsys):
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "a.json").write_text(json.dumps(_pair_dump_records()))
    (dump / "b.json").write_bytes(b"\xff\xfe[]")
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert f"error: {dump / 'b.json'}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err



@pytest.mark.parametrize("key, new, refused", [
    ("values", 2.0, "must be an array of numbers, got float"),
    ("tensor", 5, "must be a string, got 5"),
])
def test_score_names_the_key_of_a_record_value_of_the_wrong_type(tmp_path, capsys, key, new, refused):
    records = _pair_dump_records()
    records[3][key] = new
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "steps.json").write_text(json.dumps(records))
    rc = main(["score", "--dump", str(dump), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert f"steps.json: record 3 key {key!r}: {refused}" in capsys.readouterr().err
