import json

import numpy as np
import pytest

from ggm_select import ggm
from ggm_select.ggm import (
    AuxMatrix,
    GgmMode,
    GgmProblem,
    PrecisionMatrix,
    PrecisionMethod,
    SolverOptions,
    compute_group_norms,
    load_covariance,
    penalized_objective,
    solve_ggm,
    update_auxiliary,
    update_precision,
    update_precision_eig,
)
from ggm_select.scalar_prox import ProxProblem, solve_threshold
from ggm_select.surrogates import SurrogateSpec

PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _wishart(rng, n, dof=None):
    dof = dof or max(n + 2, 8)
    x = rng.standard_normal((dof, n))
    return x.T @ x / dof


def _problem(rng, n, mode=GgmMode.IMPORTANT_ROWS, tau=0.4, lam=1.0, g=None, h=2):
    sigma = _wishart(rng, n)
    important = tuple(sorted(rng.choice(n, size=min(h, n), replace=False).tolist()))
    return GgmProblem(
        sigma_hat=sigma,
        important_set=important,
        tau=tau,
        lam=lam,
        g=g or SurrogateSpec.geman(0.5),
        mode=mode,
    )


# ------------------------------------------------------------------- objective


def test_objective_identity_matrices():
    problem = GgmProblem(np.eye(2), (0,), 1.0, 1.0, SurrogateSpec.identity())
    value = penalized_objective(np.eye(2), np.eye(2), problem)
    assert value == pytest.approx(-2.0, abs=1e-12)


def test_objective_scaled_diagonal():
    problem = GgmProblem(np.eye(2), (0,), 0.0, 1.0, SurrogateSpec.identity())
    value = penalized_objective(2 * np.eye(2), 2 * np.eye(2), problem)
    assert value == pytest.approx(2 * np.log(2) - 4, abs=1e-12)


def test_objective_coupling_term():
    problem = GgmProblem(np.eye(2), (0,), 0.0, 3.0, SurrogateSpec.identity())
    value = penalized_objective(np.eye(2), np.zeros((2, 2)), problem)
    assert value == pytest.approx(-8.0, abs=1e-12)


def test_objective_rejects_indefinite_matrix():
    problem = GgmProblem(np.eye(2), (0,), 0.0, 1.0, SurrogateSpec.identity())
    with pytest.raises(ValueError):
        penalized_objective(np.diag([1.0, -1.0]), np.zeros((2, 2)), problem)


def test_objective_group_term_counts_only_nonimportant_columns():
    omega = np.array([[2.0, 0.5], [0.5, 2.0]])
    problem = GgmProblem(np.eye(2), (0,), 2.0, 1.0, SurrogateSpec.identity())
    base = GgmProblem(np.eye(2), (0,), 0.0, 1.0, SurrogateSpec.identity())
    with_pen = penalized_objective(omega, omega, problem)
    without = penalized_objective(omega, omega, base)
    # single penalized column (index 1), group = row 0 entry
    assert without - with_pen == pytest.approx(2.0 * 0.5, abs=1e-12)


# ------------------------------------------------------------ precision update


def test_eigen_update_golden_ratio_fixed_point():
    omega = update_precision_eig(np.eye(3), np.zeros((3, 3)), 0.5).omega
    np.testing.assert_allclose(omega, PHI * np.eye(3), atol=1e-12)


def test_eigen_update_second_golden_point():
    omega = update_precision_eig(np.zeros((2, 2)), np.eye(2), 0.5).omega
    np.testing.assert_allclose(omega, ((1 + np.sqrt(5)) / 2) * np.eye(2), atol=1e-12)


def test_eigen_update_zero_coefficient_gives_identity():
    omega = update_precision_eig(np.zeros((3, 3)), np.zeros((3, 3)), 0.5).omega
    np.testing.assert_allclose(omega, np.eye(3), atol=1e-12)


def test_eigen_update_is_stationary():
    rng = np.random.default_rng(31)
    lam = 0.8
    sigma = _wishart(rng, 20)
    delta = rng.standard_normal((20, 20))
    omega = update_precision_eig(sigma, delta, lam).omega
    a = sigma / (2 * lam) - delta
    a_s = 0.5 * (a + a.T)
    grad = np.linalg.inv(omega) / (2 * lam) - a_s - omega
    assert np.linalg.norm(grad) <= 1e-8


def test_gradient_update_golden_ratio_fixed_point():
    omega = update_precision(np.eye(3), np.zeros((3, 3)), 0.5).omega
    np.testing.assert_allclose(omega, PHI * np.eye(3), atol=1e-8)


def test_gradient_update_matches_eigen_route():
    rng = np.random.default_rng(32)
    for n in (5, 12):
        sigma = _wishart(rng, n)
        delta = rng.standard_normal((n, n))
        lam = rng.uniform(0.3, 2.0)
        closed = update_precision_eig(sigma, delta, lam).omega
        iterative = update_precision(sigma, delta, lam, tol=1e-10, max_iter=20000).omega
        assert np.linalg.norm(closed - iterative) <= 1e-6


def test_gradient_update_accepts_warm_start():
    rng = np.random.default_rng(33)
    sigma = _wishart(rng, 6)
    delta = rng.standard_normal((6, 6))
    cold = update_precision(sigma, delta, 1.0, tol=1e-10, max_iter=20000).omega
    warm = update_precision(sigma, delta, 1.0, tol=1e-10, max_iter=20000, omega0=cold).omega
    assert np.linalg.norm(cold - warm) <= 1e-8


def test_precision_updates_reject_bad_weight():
    with pytest.raises(ValueError):
        update_precision_eig(np.eye(2), np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        update_precision(np.eye(2), np.zeros((2, 2)), -1.0)


def test_precision_update_output_is_pd():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = rng.integers(2, 15)
        sigma = _wishart(rng, n)
        delta = rng.standard_normal((n, n)) * 3
        omega = update_precision_eig(sigma, delta, rng.uniform(0.2, 3.0)).omega
        assert np.linalg.eigvalsh(omega)[0] > 0


def _block_objective(omega, sigma, delta, lam):
    a = sigma / (2 * lam) - delta
    sign, logdet = np.linalg.slogdet(omega)
    assert sign > 0
    return logdet / (2 * lam) - np.sum(0.5 * (a + a.T) * omega) - 0.5 * np.sum(omega**2)


def _block_gradient(omega, sigma, delta, lam):
    a = sigma / (2 * lam) - delta
    return np.linalg.inv(omega) / (2 * lam) - 0.5 * (a + a.T) - omega


def test_gradient_route_uses_one_cholesky_per_trial(monkeypatch):
    rng = np.random.default_rng(36)
    sigma = _wishart(rng, 12)
    delta = rng.standard_normal((12, 12)) * 0.3
    counts = dict.fromkeys(("cholesky", "eigvalsh", "slogdet", "values"), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("cholesky", "eigvalsh", "slogdet"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(ggm, "_subproblem_value", counting("values", ggm._subproblem_value))
    update_precision(sigma, delta, 0.7)
    trials = counts["values"] - 1  # the first block value is the start's
    assert trials >= 2
    assert counts["slogdet"] == 0
    assert counts["eigvalsh"] <= 1  # the returned PrecisionMatrix's min_eig
    # one factorization per block value, plus the returned matrix's PD proof
    assert counts["cholesky"] == counts["values"] + 1


def test_gradient_route_converges_within_500_steps_on_criterion_3_stream():
    # the problem stream of acceptance criterion 3 (same generator, same seed)
    rng = np.random.default_rng(103)
    for case in range(50):
        n = (5, 20, 40)[case % 3]
        root = rng.standard_normal((n, 2 * n))
        sigma = root @ root.T / (2 * n)
        sigma = 0.5 * (sigma + sigma.T) + 0.05 * np.eye(n)
        delta = rng.standard_normal((n, n)) * 0.3
        lam = float(rng.uniform(0.1, 2.0))
        omega = update_precision(sigma, delta, lam, tol=1e-8, max_iter=500).omega
        assert np.linalg.norm(_block_gradient(omega, sigma, delta, lam)) <= 1e-8, case


@pytest.mark.parametrize("lam", [0.05, 0.1])
def test_gradient_route_ill_conditioned_distant_start(lam):
    rng = np.random.default_rng(37)
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = (q * np.logspace(-3, 1, n)) @ q.T  # condition number 1e4
    sigma = 0.5 * (sigma + sigma.T)
    delta = rng.standard_normal((n, n)) * 0.3
    closed = update_precision_eig(sigma, delta, lam).omega
    root = rng.standard_normal((n, n))
    for omega0 in (25.0 * np.eye(n), root @ root.T / n + 0.01 * np.eye(n)):
        assert np.linalg.norm(omega0 - closed) > 5.0
        start = _block_objective(omega0, sigma, delta, lam)
        result = update_precision(sigma, delta, lam, omega0=omega0)
        assert np.linalg.eigvalsh(result.omega)[0] > 0
        assert _block_objective(result.omega, sigma, delta, lam) >= start - 1e-12 * (1 + abs(start))
        assert np.linalg.norm(result.omega - closed) <= 1e-6


# ------------------------------------------------------------ auxiliary update


def test_auxiliary_zero_weight_copies_exactly():
    rng = np.random.default_rng(35)
    problem = _problem(rng, 6, tau=0.0)
    omega = update_precision_eig(problem.sigma_hat, np.eye(6), problem.lam).omega
    delta = update_auxiliary(omega, problem).delta
    np.testing.assert_array_equal(delta, omega)


def test_auxiliary_soft_shrinks_coupling_entry():
    omega = np.array([[2.0, 0.5], [0.5, 2.0]])
    problem = GgmProblem(np.eye(2), (0,), 0.4, 1.0, SurrogateSpec.identity())
    delta = update_auxiliary(omega, problem).delta
    # weight 0.4/2 = 0.2; entry (0, 1) soft-thresholds 0.5 -> 0.3
    assert delta[0, 1] == pytest.approx(0.3, abs=1e-12)
    assert delta[1, 1] == 2.0
    np.testing.assert_array_equal(delta[:, 0], omega[:, 0])


def test_auxiliary_zeroes_small_coupling():
    omega = np.array([[2.0, 0.5], [0.5, 2.0]])
    problem = GgmProblem(np.eye(2), (0,), 1.8, 1.0, SurrogateSpec.identity())
    delta = update_auxiliary(omega, problem).delta
    assert delta[0, 1] == 0.0
    assert delta[1, 1] == 2.0


def test_auxiliary_copies_unpenalized_positions():
    rng = np.random.default_rng(36)
    problem = _problem(rng, 8, tau=1.0)
    omega = update_precision_eig(problem.sigma_hat, np.eye(8), problem.lam).omega
    delta = update_auxiliary(omega, problem).delta
    inside = set(problem.important_set)
    for i in problem.important_set:
        np.testing.assert_array_equal(delta[:, i], omega[:, i])
    for i in range(8):
        if i in inside:
            continue
        for j in range(8):
            if j not in inside:
                assert delta[j, i] == omega[j, i]


def test_auxiliary_group_is_rescaled_not_rotated():
    rng = np.random.default_rng(37)
    problem = _problem(rng, 10, tau=0.6)
    omega = update_precision_eig(problem.sigma_hat, np.eye(10), problem.lam).omega
    delta = update_auxiliary(omega, problem).delta
    rows = list(problem.important_set)
    weight = problem.tau / (2 * problem.lam)
    for i in range(10):
        if i in set(rows):
            continue
        before = omega[rows, i]
        after = delta[rows, i]
        nrm = float(np.linalg.norm(before))
        want = solve_threshold(ProxProblem(y=nrm, lam=weight, g=problem.g)).x_star
        assert np.linalg.norm(after) == pytest.approx(want, abs=1e-10)
        if np.linalg.norm(after) > 0:
            cos = float(before @ after / (np.linalg.norm(before) * np.linalg.norm(after)))
            assert cos == pytest.approx(1.0, abs=1e-12)


def test_auxiliary_full_offdiag_preserves_diagonal():
    rng = np.random.default_rng(38)
    problem = _problem(rng, 7, mode=GgmMode.FULL_OFFDIAG, tau=0.8)
    omega = update_precision_eig(problem.sigma_hat, np.eye(7), problem.lam).omega
    delta = update_auxiliary(omega, problem).delta
    np.testing.assert_array_equal(np.diag(delta), np.diag(omega))


def test_auxiliary_shrinkage_monotone_in_weight():
    """With the flat surrogate and full off-diagonal groups, a larger weight
    never leaves a larger column norm after one auxiliary pass."""
    rng = np.random.default_rng(39)
    sigma = _wishart(rng, 9)
    omega = update_precision_eig(sigma, np.eye(9), 1.0).omega
    taus = [0.0, 0.2, 0.5, 1.0, 2.0]
    norms = []
    for tau in taus:
        problem = GgmProblem(sigma, (), tau, 1.0, SurrogateSpec.identity(),
                             mode=GgmMode.FULL_OFFDIAG)
        delta = update_auxiliary(omega, problem).delta
        norms.append(compute_group_norms(delta, problem))
    for prev, nxt in zip(norms, norms[1:]):
        assert np.all(nxt <= prev + 1e-12)


# -------------------------------------------------------------------- solver


def test_solver_inverse_limit_for_diagonal_covariance():
    problem = GgmProblem(np.diag([2.0, 1.0]), (0,), 0.0, 50.0, SurrogateSpec.identity())
    report = solve_ggm(problem, SolverOptions(T=500))
    np.testing.assert_allclose(report.omega_star.omega, np.diag([0.5, 1.0]), atol=1e-2)


def test_solver_single_node_no_penalty_possible():
    problem = GgmProblem(np.eye(1), (), 3.0, 1.0, SurrogateSpec.geman(0.5),
                         mode=GgmMode.FULL_OFFDIAG)
    report = solve_ggm(problem, SolverOptions(T=300))
    assert report.omega_star.omega[0, 0] == pytest.approx(1.0, abs=1e-4)


def test_solver_trace_is_nondecreasing():
    rng = np.random.default_rng(40)
    problem = _problem(rng, 12, tau=0.5)
    report = solve_ggm(problem, SolverOptions(T=60))
    values = [v for _, v in report.objective_trace]
    assert np.all(np.diff(values) >= -1e-9)
    assert report.objective_trace[0][0] == 0


def test_solver_iterates_stay_pd():
    rng = np.random.default_rng(41)
    problem = _problem(rng, 10, tau=1.0)
    report = solve_ggm(problem, SolverOptions(T=40))
    assert np.all(report.min_eig_trace > 0)


def test_solver_convergence_flag_and_tolerance():
    problem = GgmProblem(np.eye(3), (0,), 0.0, 1.0, SurrogateSpec.identity())
    report = solve_ggm(problem, SolverOptions(T=200, outer_tol=1e-7))
    assert report.converged
    assert report.iterations < 200


def test_solver_respects_iteration_budget():
    rng = np.random.default_rng(42)
    problem = _problem(rng, 8, tau=0.3)
    report = solve_ggm(problem, SolverOptions(T=3, outer_tol=1e-14))
    assert report.iterations == 3
    assert not report.converged


def test_solver_group_norms_zero_on_important_columns():
    rng = np.random.default_rng(43)
    problem = _problem(rng, 9, tau=0.4)
    report = solve_ggm(problem, SolverOptions(T=30))
    for i in problem.important_set:
        assert report.group_norms[i] == 0.0
    outside = [i for i in range(9) if i not in set(problem.important_set)]
    want = compute_group_norms(report.omega_star.omega, problem)
    np.testing.assert_allclose(report.group_norms[outside], want[outside], atol=0)


def test_solver_gradient_route_agrees_with_eigen_route():
    rng = np.random.default_rng(44)
    problem = _problem(rng, 6, tau=0.3)
    eig = solve_ggm(problem, SolverOptions(T=50))
    grad = solve_ggm(problem, SolverOptions(
        T=50, precision_method=PrecisionMethod.GRADIENT_ASCENT,
        inner_tol=1e-10, inner_max_iter=20000,
    ))
    assert np.linalg.norm(eig.omega_star.omega - grad.omega_star.omega) <= 1e-5


def test_solver_continuation_tightens_copy_gap():
    rng = np.random.default_rng(45)
    problem = _problem(rng, 6, tau=0.5, lam=0.5)
    plain = solve_ggm(problem, SolverOptions(T=40))
    grown = solve_ggm(problem, SolverOptions(T=40, lam_growth=1.2))
    # continuation drives omega toward its thresholded copy
    gap_plain = np.linalg.norm(plain.omega_star.omega - update_auxiliary(plain.omega_star, problem).delta)
    gap_grown = np.linalg.norm(grown.omega_star.omega - update_auxiliary(grown.omega_star, problem).delta)
    assert gap_grown <= gap_plain + 1e-8


def test_continuation_does_not_recheck_the_covariance(monkeypatch):
    problem = _problem(np.random.default_rng(45), 30, tau=0.5, lam=0.5)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    report = solve_ggm(problem, SolverOptions(T=40, lam_growth=1.2, outer_tol=1e-300))
    assert report.iterations == 40
    assert calls == []


def test_continuation_refuses_a_lam_grown_past_finite():
    problem = _problem(np.random.default_rng(45), 6, tau=0.5, lam=1e300)
    with pytest.raises(ValueError, match="lam must be finite"):
        solve_ggm(problem, SolverOptions(T=5, lam_growth=1e10, outer_tol=1e-300))


def test_report_json_fields():
    rng = np.random.default_rng(46)
    problem = _problem(rng, 5, tau=0.2)
    report = solve_ggm(problem, SolverOptions(T=20))
    payload = report.to_json_dict()
    assert set(payload) == {"omega", "objective_trace", "converged", "iterations", "group_norms"}
    assert len(payload["omega"]) == 25
    assert json.dumps(payload)  # serializable


# ---------------------------------------------------------------- validation


def test_problem_rejects_asymmetric_covariance():
    sigma = np.array([[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        GgmProblem(sigma, (0,), 0.1, 1.0, SurrogateSpec.identity())


def test_problem_rejects_indefinite_covariance():
    sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        GgmProblem(sigma, (0,), 0.1, 1.0, SurrogateSpec.identity())


def test_problem_rejects_duplicate_and_out_of_range_indices():
    with pytest.raises(ValueError):
        GgmProblem(np.eye(3), (1, 1), 0.1, 1.0, SurrogateSpec.identity())
    with pytest.raises(ValueError):
        GgmProblem(np.eye(3), (5,), 0.1, 1.0, SurrogateSpec.identity())


def test_problem_requires_rows_for_row_mode():
    with pytest.raises(ValueError):
        GgmProblem(np.eye(3), (), 0.1, 1.0, SurrogateSpec.identity())


def test_problem_allows_empty_set_in_offdiag_mode():
    problem = GgmProblem(np.eye(3), (), 0.1, 1.0, SurrogateSpec.identity(),
                         mode=GgmMode.FULL_OFFDIAG)
    assert problem.important_set == ()


def test_problem_rejects_bad_weights():
    with pytest.raises(ValueError):
        GgmProblem(np.eye(2), (0,), -0.1, 1.0, SurrogateSpec.identity())
    with pytest.raises(ValueError):
        GgmProblem(np.eye(2), (0,), 0.1, 0.0, SurrogateSpec.identity())


def test_problem_accepts_zero_sparsity_weight():
    problem = GgmProblem(np.eye(2), (0,), 0.0, 1.0, SurrogateSpec.identity())
    assert problem.tau == 0.0


def test_precision_matrix_validation():
    with pytest.raises(ValueError):
        PrecisionMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        PrecisionMatrix(np.diag([1.0, 0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PrecisionMatrix(np.array([[bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            PrecisionMatrix(np.array([[1.0, bad], [bad, 1.0]]))
    # indefinite (eigenvalues 3 and -1): a supplied min_eig does not skip the proof
    with pytest.raises(ValueError, match="not positive definite"):
        PrecisionMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), min_eig=1.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="min_eig"):
            PrecisionMatrix(np.eye(2), min_eig=bad)
    pm = PrecisionMatrix(np.eye(2))
    assert pm.n == 2
    assert pm.min_eig == 1.0
    assert PrecisionMatrix(np.diag([2.0, 3.0]), min_eig=2.0).min_eig == 2.0


def test_eigen_update_min_eig_is_the_closed_form_least_eigenvalue():
    rng = np.random.default_rng(44)
    for n, lam in ((1, 1.0), (6, 0.05), (25, 1.0), (60, 20.0)):
        sigma = _wishart(rng, n)
        delta = rng.standard_normal((n, n))
        precision = update_precision_eig(sigma, delta + delta.T, lam)
        w = np.linalg.eigvalsh(precision.omega)
        assert abs(precision.min_eig - w[0]) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("mode", list(GgmMode))
def test_eigen_route_solve_calls_no_eigvalsh(monkeypatch, mode):
    problem = _problem(np.random.default_rng(45), 12, mode=mode, tau=0.5)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    report = solve_ggm(problem, SolverOptions(T=15))
    assert report.iterations == 15
    assert calls == []
    assert np.all(report.min_eig_trace > 0)


def test_aux_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        AuxMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(T=0)
    with pytest.raises(ValueError):
        SolverOptions(lam_growth=0.9)
    with pytest.raises(ValueError):
        SolverOptions(precision_method="newton")


# ---------------------------------------------------------------------- files


def test_covariance_csv_round_trip(tmp_path):
    rng = np.random.default_rng(47)
    sigma = _wishart(rng, 4)
    path = tmp_path / "cov.csv"
    np.savetxt(path, sigma, delimiter=",")
    loaded = load_covariance(path)
    np.testing.assert_allclose(loaded, sigma, atol=1e-12)


def test_covariance_json_round_trip(tmp_path):
    rng = np.random.default_rng(48)
    sigma = _wishart(rng, 3)
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"n": 3, "data": sigma.ravel().tolist()}))
    loaded = load_covariance(path)
    np.testing.assert_allclose(loaded, sigma, atol=1e-15)


def test_covariance_rejects_non_square_csv(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(ValueError):
        load_covariance(path)


def test_covariance_rejects_length_mismatch_json(tmp_path):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"n": 2, "data": [1.0, 2.0, 3.0]}))
    with pytest.raises(ValueError):
        load_covariance(path)
