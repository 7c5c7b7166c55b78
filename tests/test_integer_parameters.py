"""The one range rule for integer parameters: read from a file, or passed in code."""

import json
from pathlib import Path

import numpy as np
import pytest

from ggm_select._inputs import integer
from ggm_select.cli import main
from ggm_select.ggm import SolverOptions
from ggm_select.pipeline import PipelineConfig, make_planted, run_pipeline
from ggm_select.surrogates import SurrogateSpec

FIXTURES = Path(__file__).parent / "fixtures"


def _dump_config(tmp_path, **overrides):
    """A dump-mode config whose dump directory does not exist: any stage that ran would name it."""
    payload = {
        "mode": "dump",
        "dump": str(tmp_path / "no_such_dump"),
        "h": 2,
        "surrogate": {"kind": "geman", "params": {"epsilon": 0.5}},
        "tau": 0.1,
        "lambda": 1.0,
        "selection": {"budget": 1},
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


# config override, and the refusal that follows the file's path
CONFIG_CASES = {
    "h": ({"h": 0}, "config key 'h': must be >= 1, got 0"),
    "n": ({"n": 0}, "config key 'n': must be >= 1, got 0"),
    "k_connected": ({"k_connected": -1}, "config key 'k_connected': must be >= 0, got -1"),
    "m": ({"m": 1}, "config key 'm': must be >= 2, got 1"),
    "budget": ({"selection": {"budget": -1}},
               "config key 'selection': selection key 'budget': must be >= 0, got -1"),
    "T": ({"solver": {"T": 0}}, "config key 'solver': solver key 'T': must be >= 1, got 0"),
    "inner_max_iter": ({"solver": {"inner_max_iter": 0}},
                       "config key 'solver': solver key 'inner_max_iter': must be >= 1, got 0"),
}


@pytest.mark.parametrize("key", CONFIG_CASES)
def test_simulate_refuses_an_out_of_range_config_key_before_any_stage(tmp_path, capsys, key):
    overrides, refused = CONFIG_CASES[key]
    config = _dump_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {config}: {refused}"]
    assert not (tmp_path / "run").exists()


def test_the_lowest_accepted_values_pass_the_config_reader():
    config = PipelineConfig.from_json_dict({
        "mode": "planted", "n": 1, "h": 1, "k_connected": 0, "coupling": 0.0, "m": 2,
        "surrogate": {"kind": "identity", "params": {}}, "tau": 0.1, "lambda": 1.0,
        "selection": {"budget": 0}, "solver": {"T": 1, "inner_max_iter": 1},
    })
    assert (config.n, config.h, config.k_connected, config.m, config.selection_budget) == (1, 1, 0, 2, 0)
    assert (config.solver.T, config.solver.inner_max_iter) == (1, 1)


@pytest.mark.parametrize("n", [0, -2])
def test_solve_refuses_a_covariance_json_n_below_one(tmp_path, capsys, n):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"n": n, "data": [1.0, 0.0, 0.0, 1.0]}))
    assert main(["solve", "--cov", str(path), "--important", "0", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: covariance JSON key 'n': must be >= 1, got {n}"]


def test_integer_refuses_a_value_below_the_minimum_naming_it():
    with pytest.raises(ValueError) as refused:
        integer(-1, "budget", minimum=0)
    assert str(refused.value) == "budget must be >= 0, got -1"
    with pytest.raises(ValueError) as refused:
        integer(0, minimum=1)
    assert str(refused.value) == "must be >= 1, got 0"
    assert integer(0, "budget", minimum=0) == 0
    assert integer(-5) == -5
    assert type(integer(np.int64(3), "h", minimum=1)) is int


@pytest.mark.parametrize("value", [True, False, 1.0, 2.7, "3", None])
@pytest.mark.parametrize("minimum", [None, 0])
def test_integer_refuses_a_boolean_a_float_or_a_string_with_or_without_a_minimum(value, minimum):
    with pytest.raises(TypeError, match="must be an integer"):
        integer(value, "h", minimum=minimum)


def test_solver_options_in_code_are_refused_by_the_same_rule():
    for name in ("T", "inner_max_iter"):
        with pytest.raises(ValueError) as refused:
            SolverOptions(**{name: 0})
        assert str(refused.value) == f"solver key '{name}': must be >= 1, got 0"


@pytest.mark.parametrize("name, value, minimum", [
    ("n", 0, 1), ("h", 0, 1), ("m", 0, 1), ("k_connected", -1, 0),
])
def test_make_planted_refuses_each_size_below_its_minimum(name, value, minimum):
    sizes = dict(n=4, h=1, k_connected=1, m=10)
    sizes[name] = value
    with pytest.raises(ValueError) as refused:
        make_planted(coupling=0.1, seed=0, **sizes)
    assert str(refused.value) == f"{name} must be >= {minimum}, got {value}"


def test_make_planted_refuses_a_float_size():
    with pytest.raises(TypeError, match="must be an integer, got 4.0"):
        make_planted(n=4.0, h=1, k_connected=1, coupling=0.1, m=10, seed=0)


@pytest.mark.parametrize("mode, sizes, refused", [
    ("planted", dict(h=0), "stage 'data': h must be >= 1, got 0"),
    ("planted", dict(m=1), "stage 'statistics': need at least 2 samples for a covariance, got 1"),
    ("dump", dict(h=0), r"stage 'importance': h=0 outside \[1, n="),
])
def test_a_config_built_in_code_is_refused_where_the_library_uses_the_value(mode, sizes, refused):
    base = dict(mode=mode, h=1, surrogate=SurrogateSpec.geman(0.5), tau=0.1, lam=1.0, selection_budget=1)
    if mode == "planted":
        base.update(n=4, k_connected=1, coupling=0.1, m=10)
    else:
        base.update(dump_dir=str(FIXTURES / "score_dump"))
    base.update(sizes)
    with pytest.raises(ValueError, match=f"^{refused}"):
        run_pipeline(PipelineConfig(**base))
