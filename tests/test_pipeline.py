import json

import numpy as np
import pytest

from ggm_select.ggm import GgmMode, PrecisionMethod, SolverOptions, SolverReport
from ggm_select.pipeline import (
    PipelineConfig,
    PlantedProblem,
    SelectionResult,
    make_planted,
    recovery_f1,
    run_pipeline,
    select_trainable,
)
from ggm_select.surrogates import SurrogateSpec


def _report_with_norms(norms):
    n = len(norms)
    return SolverReport(
        omega_star=np.eye(n),
        objective_trace=((0, -float(n)),),
        converged=True,
        iterations=1,
        group_norms=np.asarray(norms, dtype=float),
        min_eig_trace=(1.0,),
    )


def _config(**overrides):
    base = dict(
        mode="planted",
        n=30,
        h=3,
        k_connected=4,
        coupling=0.5,
        m=4000,
        seed=7,
        surrogate=SurrogateSpec.geman(0.5),
        tau=0.1,
        lam=1.0,
        selection_budget=4,
        solver=SolverOptions(T=200, outer_tol=1e-7, precision_method=PrecisionMethod.EIGEN_CLOSED_FORM),
    )
    base.update(overrides)
    return PipelineConfig(**base)


# ------------------------------------------------------------ select_trainable


def test_budget_keeps_largest_norms():
    report = _report_with_norms([0.0, 0.2, 0.9, 0.1])
    result = select_trainable(report, (0,), budget=1)
    assert result.solver_selected == (2,)
    assert result.frozen == (1, 3)
    assert result.trainable == (0, 2)


def test_threshold_zero_keeps_every_positive_norm():
    report = _report_with_norms([0.0, 0.2, 0.9, 0.0])
    result = select_trainable(report, (0,), threshold=0.0)
    assert result.solver_selected == (1, 2)
    assert result.frozen == (3,)


def test_budget_zero_freezes_everything():
    report = _report_with_norms([0.0, 0.5, 0.5])
    result = select_trainable(report, (0,), budget=0)
    assert result.solver_selected == ()
    assert result.frozen == (1, 2)


def test_budget_ties_break_to_lower_index():
    report = _report_with_norms([0.0, 0.5, 0.5, 0.5])
    result = select_trainable(report, (0,), budget=2)
    assert result.solver_selected == (1, 2)


def test_exactly_one_criterion_required():
    report = _report_with_norms([0.0, 0.5])
    with pytest.raises(ValueError):
        select_trainable(report, (0,), budget=1, threshold=0.1)
    with pytest.raises(ValueError):
        select_trainable(report, (0,))


def test_selection_bounds_checked():
    report = _report_with_norms([0.0, 0.5, 0.1])
    with pytest.raises(ValueError):
        select_trainable(report, (5,), budget=1)
    with pytest.raises(ValueError):
        select_trainable(report, (0,), budget=3)


def test_selection_partitions_nodes():
    report = _report_with_norms([0.0, 0.4, 0.0, 0.7, 0.2])
    result = select_trainable(report, (0, 2), budget=2)
    merged = sorted(result.important_set + result.solver_selected + result.frozen)
    assert merged == list(range(5))


def test_selection_refuses_a_repeated_important_index_as_the_problem_does():
    report = _report_with_norms([0.0, 0.5, 0.1])
    with pytest.raises(ValueError, match=r"^important set has duplicates: \(0, 0\)$"):
        select_trainable(report, (0, 0), budget=1)


def test_selection_budget_must_be_an_integer():
    report = _report_with_norms([0.0, 0.5, 0.1, 0.9])
    with pytest.raises(TypeError, match="must be an integer, got 2.7"):
        select_trainable(report, (0,), budget=2.7)
    assert select_trainable(report, (0,), budget=np.int64(2)).solver_selected == (1, 3)


def test_selection_threshold_must_be_a_number():
    report = _report_with_norms([0.0, 0.5, 0.1])
    with pytest.raises(TypeError, match="must be a number, got '0.15'"):
        select_trainable(report, (0,), threshold="0.15")


def test_selection_leaves_the_flags_of_the_report_it_reads():
    report = _report_with_norms([0.0, 0.5, 0.1])
    flags = (report.group_norms.flags.writeable, report.min_eig_trace.flags.writeable)
    result = select_trainable(report, (0,), budget=1)
    assert (report.group_norms.flags.writeable, report.min_eig_trace.flags.writeable) == flags
    assert not result.scores.flags.writeable


def test_selection_result_rejects_overlap():
    with pytest.raises(ValueError):
        SelectionResult((0,), (0, 1), (2,), np.zeros(3))
    with pytest.raises(ValueError):
        SelectionResult((0,), (1,), (), np.zeros(3))


def test_selection_result_json_shape():
    result = SelectionResult((1,), (0,), (2,), np.array([0.5, 0.0, 0.0]))
    payload = result.to_json_dict()
    assert payload == {
        "important_set": [1],
        "solver_selected": [0],
        "frozen": [2],
        "scores": [0.5, 0.0, 0.0],
    }


# ----------------------------------------------------------------- make_planted


def test_zero_coupling_gives_identity_precision():
    problem, _ = make_planted(n=6, h=2, k_connected=2, coupling=0.0, m=10, seed=0)
    np.testing.assert_array_equal(problem.omega_true, np.eye(6))


def test_planted_precision_positive_definite():
    problem, _ = make_planted(n=10, h=2, k_connected=2, coupling=0.4, m=10, seed=3)
    assert float(np.linalg.eigvalsh(problem.omega_true)[0]) > 0


def test_planted_zero_structure_outside_connected():
    problem, _ = make_planted(n=12, h=3, k_connected=4, coupling=0.3, m=10, seed=1)
    linked = set(problem.important_set) | set(problem.true_connected)
    for j in problem.important_set:
        for i in range(12):
            if i not in linked:
                assert problem.omega_true[j, i] == 0.0


def test_planted_coupling_entries_have_fixed_magnitude():
    problem, _ = make_planted(n=12, h=2, k_connected=3, coupling=0.35, m=10, seed=4)
    for j in problem.important_set:
        for i in problem.true_connected:
            assert abs(problem.omega_true[j, i]) == pytest.approx(0.35)
            assert problem.omega_true[j, i] == problem.omega_true[i, j]


def test_planted_determinism():
    a_problem, a_samples = make_planted(n=8, h=2, k_connected=2, coupling=0.4, m=50, seed=11)
    b_problem, b_samples = make_planted(n=8, h=2, k_connected=2, coupling=0.4, m=50, seed=11)
    np.testing.assert_array_equal(a_problem.omega_true, b_problem.omega_true)
    np.testing.assert_array_equal(a_samples.values, b_samples.values)


def test_planted_seeds_differ():
    _, a_samples = make_planted(n=8, h=2, k_connected=2, coupling=0.4, m=50, seed=11)
    _, b_samples = make_planted(n=8, h=2, k_connected=2, coupling=0.4, m=50, seed=12)
    assert np.any(a_samples.values != b_samples.values)


def test_planted_samples_nonnegative_with_boosted_important_mean():
    problem, samples = make_planted(n=10, h=2, k_connected=3, coupling=0.4, m=400, seed=2)
    assert samples.values.min() >= 0.0
    mean = samples.values.mean(axis=0)
    others = [i for i in range(10) if i not in problem.important_set]
    assert mean[list(problem.important_set)].min() > mean[others].max()


def test_planted_rejects_oversized_coupling():
    with pytest.raises(ValueError, match="planted precision not PD"):
        make_planted(n=10, h=3, k_connected=6, coupling=5.0, m=10, seed=0)


def test_planted_problem_names_the_first_unexpected_coupling():
    omega = np.eye(6)
    for j, i in ((0, 3), (0, 4), (2, 5)):
        omega[j, i] = omega[i, j] = 0.1
    # rows in the order of the important set, columns ascending
    with pytest.raises(ValueError, match=r"^unexpected coupling at \(2, 5\)$"):
        PlantedProblem(omega, important_set=(2, 0), true_connected=(1,), seed=0, m=1)
    with pytest.raises(ValueError, match=r"^unexpected coupling at \(0, 3\)$"):
        PlantedProblem(omega, important_set=(0, 2), true_connected=(1,), seed=0, m=1)
    problem = PlantedProblem(omega, important_set=(0, 2), true_connected=(3, 4, 5), seed=0, m=1)
    assert problem.important_set == (0, 2)


@pytest.mark.parametrize("omega, refused", [
    ([[1.0, 5.0], [0.0, 1.0]], r"^planted precision not symmetric \(max asymmetry 5\.000e\+00\)$"),
    ([[1.0, np.inf], [np.inf, 1.0]], "^planted precision contains non-finite entries$"),
    (np.ones((2, 3)), r"^planted precision must be square, got shape \(2, 3\)$"),
    (np.zeros((0, 0)), r"^planted precision must not be empty, got shape \(0, 0\)$"),
], ids=["asymmetric", "infinite", "not_square", "empty"])
def test_planted_problem_refuses_a_matrix_the_problem_would_refuse(omega, refused):
    with pytest.raises(ValueError, match=refused):
        PlantedProblem(np.array(omega), important_set=(0,), true_connected=(1,), seed=0, m=1)


@pytest.mark.parametrize("important, connected, refused", [
    ((0, 0), (1,), r"^important set has duplicates: \(0, 0\)$"),
    ((5,), (1,), r"^important set \(5,\) out of range for n=2$"),
    ((0,), (1, 1), r"^connected set has duplicates: \(1, 1\)$"),
    ((0,), (5,), r"^connected set \(5,\) out of range for n=2$"),
    ((0,), (-1,), r"^connected set \(-1,\) out of range for n=2$"),
])
def test_planted_problem_refuses_a_repeated_or_out_of_range_index(important, connected, refused):
    with pytest.raises(ValueError, match=refused):
        PlantedProblem(np.eye(2), important_set=important, true_connected=connected, seed=0, m=1)


def test_planted_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_planted(n=4, h=3, k_connected=3, coupling=0.1, m=10, seed=0)
    with pytest.raises(ValueError):
        make_planted(n=4, h=0, k_connected=1, coupling=0.1, m=10, seed=0)


# ------------------------------------------------------------------ recovery_f1


def test_f1_exact_recovery():
    assert recovery_f1((3, 4, 5), (3, 4, 5)) == 1.0


def test_f1_empty_sets():
    assert recovery_f1((), ()) == 1.0
    assert recovery_f1((1,), ()) == 0.0
    assert recovery_f1((), (1,)) == 0.0


def test_f1_partial_overlap():
    # precision 1/2, recall 1/2 -> F1 = 1/2
    assert recovery_f1((1, 2), (2, 3)) == pytest.approx(0.5)


def test_f1_subset():
    # precision 1, recall 1/2 -> F1 = 2/3
    assert recovery_f1((2,), (2, 3)) == pytest.approx(2.0 / 3.0)


# ------------------------------------------------------------------- pipeline


def test_pipeline_smoke_small():
    result = run_pipeline(_config(n=8, h=2, k_connected=2, m=40, solver=SolverOptions(T=30), selection_budget=2))
    assert result.planted is not None
    assert len(result.mean) == 8
    assert result.report.omega_star.omega.shape == (8, 8)
    merged = sorted(result.selection.important_set + result.selection.solver_selected + result.selection.frozen)
    assert merged == list(range(8))


def test_pipeline_runs_without_penalty():
    result = run_pipeline(_config(n=8, h=2, k_connected=2, m=60, tau=0.0, solver=SolverOptions(T=30), selection_budget=2))
    assert result.report.iterations >= 1


def test_pipeline_reference_seed_recovers_planted_block():
    result = run_pipeline(_config(seed=7))
    assert result.selection.important_set == (0, 1, 2)
    assert result.selection.solver_selected == (3, 4, 5, 6)
    assert recovery_f1(result.selection.solver_selected, result.planted.true_connected) == 1.0


def test_pipeline_determinism():
    a = run_pipeline(_config(seed=5, n=12, k_connected=3, m=300, solver=SolverOptions(T=60), selection_budget=3))
    b = run_pipeline(_config(seed=5, n=12, k_connected=3, m=300, solver=SolverOptions(T=60), selection_budget=3))
    np.testing.assert_array_equal(a.report.omega_star.omega, b.report.omega_star.omega)
    np.testing.assert_array_equal(a.selection.scores, b.selection.scores)
    assert a.selection.solver_selected == b.selection.solver_selected


def test_pipeline_null_structure_yields_small_norms():
    """No planted couplings: every non-important group norm is noise-level."""
    config = _config(n=15, h=2, k_connected=0, coupling=0.0, m=4000, tau=0.3,
                     selection_budget=None, selection_threshold=0.05,
                     solver=SolverOptions(T=80))
    result = run_pipeline(config)
    non_important = [i for i in range(15) if i not in result.selection.important_set]
    assert max(result.selection.scores[non_important]) < 0.05
    assert result.selection.solver_selected == ()


def test_pipeline_recovery_improves_with_samples():
    def average_f1(m):
        total = 0.0
        for seed in range(6):
            result = run_pipeline(_config(n=20, h=2, k_connected=3, m=m, seed=seed,
                                          selection_budget=3, solver=SolverOptions(T=80)))
            total += recovery_f1(result.selection.solver_selected, result.planted.true_connected)
        return total / 6.0

    assert average_f1(2000) >= average_f1(300) - 0.05


def test_stage_failures_name_the_stage(tmp_path):
    config = PipelineConfig(
        mode="dump",
        h=1,
        surrogate=SurrogateSpec.geman(0.5),
        tau=0.1,
        lam=1.0,
        selection_budget=1,
        dump_dir=str(tmp_path / "missing"),
    )
    with pytest.raises(ValueError, match="stage 'data'"):
        run_pipeline(config)


def test_solve_stage_failure_named():
    # tau passes config validation but fails model validation inside the solve stage
    with pytest.raises(ValueError, match="stage 'solve'"):
        run_pipeline(_config(n=6, h=2, k_connected=0, coupling=0.0, m=20, tau=-1.0, selection_budget=0))


def test_data_stage_failure_named():
    with pytest.raises(ValueError, match="stage 'data'"):
        run_pipeline(_config(n=10, h=3, k_connected=6, coupling=5.0, selection_budget=1))


# --------------------------------------------------------------------- config


def _payload(**overrides):
    base = {
        "mode": "planted",
        "n": 30,
        "h": 3,
        "k_connected": 4,
        "coupling": 0.5,
        "m": 4000,
        "seed": 7,
        "surrogate": {"kind": "geman", "params": {"epsilon": 0.5}},
        "tau": 0.1,
        "lambda": 1.0,
        "solver": {"T": 200, "outer_tol": 1e-7, "precision_method": "eigen"},
        "selection": {"budget": 4},
    }
    base.update(overrides)
    return base


def test_config_parses_reference_payload():
    config = PipelineConfig.from_json_dict(_payload())
    assert config.lam == 1.0
    assert config.tau == 0.1
    assert config.selection_budget == 4
    assert config.selection_threshold is None
    assert config.surrogate.kind.value == "geman"
    assert config.solver.T == 200
    assert config.ggm_mode is GgmMode.IMPORTANT_ROWS


def test_config_threshold_selection():
    config = PipelineConfig.from_json_dict(_payload(selection={"threshold": 0.2}))
    assert config.selection_budget is None
    assert config.selection_threshold == 0.2


def test_config_rejects_bad_selection():
    with pytest.raises(ValueError, match="selection"):
        PipelineConfig.from_json_dict(_payload(selection={"budget": 4, "threshold": 0.2}))
    with pytest.raises(ValueError, match="selection"):
        PipelineConfig.from_json_dict(_payload(selection={}))
    with pytest.raises(ValueError, match="selection"):
        PipelineConfig.from_json_dict(_payload(selection={"count": 4}))


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_json_dict(_payload(extra=1))
    with pytest.raises(ValueError, match="unknown solver keys"):
        PipelineConfig.from_json_dict(_payload(solver={"T": 10, "step": 0.1}))


def test_config_file_refusals_name_the_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_payload(bogus=1)))
    with pytest.raises(ValueError) as excinfo:
        PipelineConfig.from_json_file(path)
    assert str(excinfo.value) == f"{path}: unknown config keys: ['bogus']"


def test_config_rejects_missing_keys():
    payload = _payload()
    del payload["lambda"]
    with pytest.raises(ValueError, match="lambda"):
        PipelineConfig.from_json_dict(payload)


def test_config_planted_requires_dimensions():
    payload = _payload()
    del payload["m"]
    with pytest.raises(ValueError, match="m"):
        PipelineConfig.from_json_dict(payload)


def test_planted_config_refuses_a_budget_above_n_minus_h():
    with pytest.raises(ValueError, match=r"^planted mode needs budget <= n - h = 27, got 28$"):
        _config(selection_budget=28)
    assert _config(selection_budget=27).selection_budget == 27
    # h > n is the data stage's refusal, which names h
    with pytest.raises(ValueError, match=r"^stage 'data': h \+ k_connected = 5 exceeds n = 3$"):
        run_pipeline(_config(n=3, h=5, k_connected=0, selection_budget=0))
    payload = _payload(selection={"budget": 1000})
    with pytest.raises(ValueError, match=r"^planted mode needs budget <= n - h = 27, got 1000$"):
        PipelineConfig.from_json_dict(payload)
    # a dump's n is known only after the read: the selection stage checks it
    dump = PipelineConfig.from_json_dict({**payload, "mode": "dump", "dump": "scores"})
    assert dump.selection_budget == 1000


def test_config_dump_mode_requires_directory():
    payload = {
        "mode": "dump",
        "h": 2,
        "surrogate": {"kind": "identity", "params": {}},
        "tau": 0.1,
        "lambda": 1.0,
        "selection": {"budget": 1},
    }
    with pytest.raises(ValueError, match="dump"):
        PipelineConfig.from_json_dict(payload)
    payload["dump"] = "/tmp/scores"
    config = PipelineConfig.from_json_dict(payload)
    assert config.dump_dir == "/tmp/scores"
    assert config.beta1 == 0.85


def test_config_file_and_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_payload()))
    config = PipelineConfig.from_json_file(path)
    rebuilt = PipelineConfig.from_json_dict(config.to_json_dict())
    assert rebuilt == config


def test_config_round_trip_keeps_every_solver_option():
    solver = {"T": 17, "inner_tol": 1e-9, "inner_max_iter": 321,
              "outer_tol": 1e-5, "precision_method": "gradient"}
    defaults = SolverOptions()
    assert set(solver) == set(vars(defaults))
    assert all(SolverOptions(**{name: value}) != defaults for name, value in solver.items())
    config = PipelineConfig.from_json_dict(_payload(solver=solver))
    assert config.solver.precision_method is PrecisionMethod.GRADIENT_ASCENT
    written = config.to_json_dict()
    assert written["solver"] == solver
    assert type(written["solver"]["precision_method"]) is str
    assert json.loads(json.dumps(written))["solver"] == solver
    assert PipelineConfig.from_json_dict(written) == config
