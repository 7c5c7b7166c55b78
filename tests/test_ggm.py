import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ggm_select import ggm
from ggm_select.errors import NumericalError
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
from ggm_select.nodes import read_score_dump, replay_scores, sample_statistics, select_important
from ggm_select.pipeline import PipelineConfig, make_planted, select_trainable
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


@pytest.mark.parametrize("a", [1e5, 1e10, 1e150])
def test_eigen_update_keeps_its_digits_for_a_large_coefficient(a):
    # the root of 1/(2*lam*w) - a - w = 0 is about 1/(2*lam*a); -a + sqrt(a**2 + 2/lam)
    # loses it to cancellation
    lam = 0.5
    precision = update_precision_eig(np.diag([2 * lam * a, 1.0]), np.zeros((2, 2)), lam)
    w = precision.omega[0, 0]
    assert w * (a + w) == pytest.approx(1 / (2 * lam), rel=1e-12)
    assert precision.min_eig == w


@pytest.mark.parametrize("a", [-1e5, -1e8, -2.0**27, -1e150])
def test_eigen_update_keeps_its_digits_for_a_large_negative_coefficient(a):
    # the root is about -a + 1/(2*lam*(-a)); here a + sqrt(a**2 + 2/lam)
    # cancels, so w * (a + w) cannot check it and the expansion does
    lam = 0.5
    precision = update_precision_eig(np.diag([2 * lam * a, 1.0]), np.zeros((2, 2)), lam)
    w = precision.omega[0, 0]
    assert w == pytest.approx(-a + 1 / (2 * lam * -a), rel=1e-12)
    assert precision.min_eig == pytest.approx(PHI, rel=1e-12)


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


@pytest.mark.parametrize("start", [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0])])
def test_gradient_route_refuses_a_non_finite_gradient(start):
    with pytest.raises(NumericalError, match="non-finite gradient"):
        update_precision(np.eye(3), np.zeros((3, 3)), 0.5, omega0=start)


def test_gradient_route_passes_a_finite_gradient_whose_norm_overflows():
    # every entry of G is about -1e200, but ||G||_F overflows to inf; no
    # trial ascends, so the start comes back
    start = 1e200 * np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        omega = update_precision(np.eye(3), np.zeros((3, 3)), 0.5, omega0=start).omega
    assert np.array_equal(omega, start)


def test_gradient_route_symmetrizes_an_asymmetric_start():
    rng = np.random.default_rng(38)
    x = rng.standard_normal((8, 3))
    sigma, delta = x.T @ x / 8, rng.standard_normal((3, 3)) * 0.3
    omega0 = np.eye(3)
    omega0[0, 1], omega0[1, 0] = 0.3, np.nextafter(0.3, 1.0)  # one ulp apart
    omega = update_precision(sigma, delta, 0.7, omega0=omega0).omega
    assert not np.allclose(omega, omega0)
    assert np.array_equal(omega, omega.T)


@pytest.mark.parametrize("top", [2, 3])
@pytest.mark.parametrize("lam", [0.05, 0.1])
def test_gradient_route_reaches_the_closed_form_on_wide_spectra(lam, top):
    # spectra 1e-3...1e2 and 1e-3...1e3: a Euclidean step ends its 5000
    # steps 2.5e-4 to 128 away from the closed form here
    rng = np.random.default_rng(37)
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = (q * np.logspace(-3, top, n)) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    delta = rng.standard_normal((n, n)) * 0.3
    closed = update_precision_eig(sigma, delta, lam).omega
    root = rng.standard_normal((n, n))
    for omega0 in (25.0 * np.eye(n), root @ root.T / n + 0.01 * np.eye(n)):
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


@pytest.mark.parametrize("update", [update_precision_eig, update_precision])
@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_precision_updates_refuse_a_lam_not_finite_and_positive(update, lam):
    # the rule GgmProblem applies: with lam = inf both routes would return
    # 2*I here, with no error
    with pytest.raises(ValueError, match="lam must be finite and > 0"):
        update(np.eye(3), 2.0 * np.eye(3), lam)


def test_report_json_fields():
    rng = np.random.default_rng(46)
    problem = _problem(rng, 5, tau=0.2)
    report = solve_ggm(problem, SolverOptions(T=20))
    payload = report.to_json_dict()
    assert set(payload) == {"omega", "objective_trace", "converged", "iterations", "group_norms"}
    assert len(payload["omega"]) == 25
    assert json.dumps(payload, default=np.ndarray.tolist)  # serializable


# ---------------------------------------------------------------- validation


def test_problem_rejects_asymmetric_covariance():
    sigma = np.array([[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        GgmProblem(sigma, (0,), 0.1, 1.0, SurrogateSpec.identity())


def test_problem_rejects_indefinite_covariance():
    sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        GgmProblem(sigma, (0,), 0.1, 1.0, SurrogateSpec.identity())


def _fixture_covariance():
    dump = Path(__file__).resolve().parent / "fixtures" / "score_dump"
    return sample_statistics(replay_scores(read_score_dump(dump), 0.85, 0.85))[1]


def test_problem_accepts_the_fixture_covariance_at_every_scale():
    # rank 4 of 5, least eigenvalue -6e-21 against a largest of 3.5e-3
    sigma = _fixture_covariance()
    for k in range(-40, 41):
        problem = GgmProblem(sigma * 2.0**k, (0,), 0.1, 1.0, SurrogateSpec.identity())
        assert problem.n == 5, k


def test_problem_refuses_an_indefinite_covariance_at_every_scale():
    for k in range(-40, 41):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            GgmProblem(np.diag([1.0, -1e-6]) * 2.0**k, (0,), 0.1, 1.0, SurrogateSpec.identity())


def test_problem_refuses_an_asymmetric_covariance_at_every_scale():
    for k in range(-40, 41):
        with pytest.raises(ValueError, match="not symmetric"):
            GgmProblem(np.array([[1.0, 1e-6], [0.0, 1.0]]) * 2.0**k, (0,), 0.1, 1.0,
                       SurrogateSpec.identity())


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
    with pytest.raises(ValueError, match=r"precision matrix must be square, got shape \(2, 3\)"):
        PrecisionMatrix(np.ones((2, 3)))
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


def test_eigen_update_is_read_only_and_equals_the_checked_construction():
    rng = np.random.default_rng(46)
    for n, lam in ((1, 1.0), (7, 0.05), (40, 3.0)):
        sigma = _wishart(rng, n)
        delta = rng.standard_normal((n, n))
        precision = update_precision_eig(sigma, delta, lam)
        assert not precision.omega.flags.writeable
        np.testing.assert_array_equal(precision.omega, precision.omega.T)
        a = sigma / (2.0 * lam) - delta
        w = np.linalg.eigh(0.5 * (a + a.T))[0]
        w = 0.5 * (-w + np.sqrt(w**2 + 2.0 / lam))
        checked = PrecisionMatrix(precision.omega.copy(), min_eig=float(w.min()),
                                  logdet=float(np.sum(np.log(w))))
        assert (precision.min_eig, precision.logdet) == (checked.min_eig, checked.logdet)


def test_eigen_update_of_non_finite_input_is_refused_as_before():
    with pytest.raises(ValueError, match="non-finite"):
        update_precision_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros((2, 2)), 1.0)


@pytest.mark.parametrize("mode", list(GgmMode))
def test_eigen_route_makes_one_cholesky_per_precision_matrix(monkeypatch, mode):
    problem = _problem(np.random.default_rng(47), 15, mode=mode, tau=0.5)
    events = []  # "c" per Cholesky factorization, "(" and ")" around each closed form

    def traced(owner, name, before, after=""):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            events.append(before)
            result = original(*args, **kwargs)
            events.append(after)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    traced(np.linalg, "cholesky", "c")
    traced(ggm, "update_precision_eig", "(", ")")
    report = solve_ggm(problem, SolverOptions(T=40))
    closed_forms = events.count("(")
    assert closed_forms >= report.iterations
    # the diagonal start, then each closed form's own
    assert "".join(events) == "c" + "(c)" * closed_forms


def test_problem_group_structure_is_built_once_and_read_only():
    problem = _problem(np.random.default_rng(48), 6, h=2)
    assert not problem.mask.flags.writeable and not problem.columns.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        problem.mask[0, 0] = True
    important = list(problem.important_set)
    assert not problem.columns[important].any() and problem.columns.sum() == 4
    np.testing.assert_array_equal(problem.mask.any(axis=1), np.isin(np.arange(6), important))
    full = GgmProblem(problem.sigma_hat, (), 0.4, 1.0, SurrogateSpec.geman(0.5), mode=GgmMode.FULL_OFFDIAG)
    np.testing.assert_array_equal(full.mask, ~np.eye(6, dtype=bool))


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
    with pytest.raises(ValueError, match="auxiliary matrix contains non-finite entries"):
        AuxMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"auxiliary matrix must be square, got shape \(3,\)"):
        AuxMatrix(np.ones(3))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(T=0)
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


# ------------------------------------------------------- accelerated sweeps

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def _plain_sweep(problem, omega):
    """One sweep of the unaccelerated map from the Delta that belongs to Omega."""
    delta = update_auxiliary(omega, problem).delta
    return update_precision_eig(problem.sigma_hat, delta, problem.lam).omega


def _rank_deficient_problem(seed, mode, n=30, samples=12):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, n))
    x -= x.mean(axis=0)
    sigma = x.T @ x / samples
    return GgmProblem(0.5 * (sigma + sigma.T), (0, 1, 2), 0.1, 1.0,
                      SurrogateSpec.geman(0.5), mode=mode)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("n", [30, 100])
def test_reference_config_converges_well_inside_T(n):
    config = replace(PipelineConfig.from_json_file(REFERENCE_CONFIG), n=n, seed=1)
    _, samples = make_planted(config.n, config.h, config.k_connected, config.coupling,
                              config.m, config.seed)
    mean, cov = sample_statistics(samples)
    problem = GgmProblem(cov, select_important(mean, config.h), config.tau, config.lam,
                         config.surrogate)
    report = solve_ggm(problem, config.solver)
    assert config.solver.T == 200
    assert report.converged
    assert report.iterations < 100
    # the returned Omega is a fixed point of the plain sweep to outer_tol
    moved = np.linalg.norm(_plain_sweep(problem, report.omega_star) - report.omega_star.omega)
    assert moved <= config.solver.outer_tol


@pytest.mark.parametrize("mode", list(GgmMode))
def test_one_eigh_per_evaluation_and_one_more_per_refusal(monkeypatch, mode):
    for problem in (_problem(np.random.default_rng(50), 20, mode=mode, tau=0.3),
                    _rank_deficient_problem(1, mode)):
        eighs = _count_calls(monkeypatch, np.linalg, "eigh")
        refusals = _count_calls(monkeypatch, ggm._Mixing, "clear")
        report = solve_ggm(problem, SolverOptions(T=150))
        assert len(eighs) == report.iterations + len(refusals)
        monkeypatch.undo()


@pytest.mark.parametrize("mode", list(GgmMode))
def test_rank_deficient_trace_is_exactly_nondecreasing(monkeypatch, mode):
    problem = _rank_deficient_problem(3, mode)
    assert np.linalg.matrix_rank(problem.sigma_hat) < problem.n
    refusals = _count_calls(monkeypatch, ggm._Mixing, "clear")
    report = solve_ggm(problem, SolverOptions(T=120))
    assert refusals  # extrapolations were refused and the plain sweep taken
    values = np.array([v for _, v in report.objective_trace])
    assert np.all(np.diff(values) >= 0.0)
    assert np.all(report.min_eig_trace > 0.0)
    assert len(report.min_eig_trace) == len(values) == report.iterations + 1
    again = solve_ggm(problem, SolverOptions(T=120))
    assert again.objective_trace == report.objective_trace
    np.testing.assert_array_equal(again.omega_star.omega, report.omega_star.omega)


@pytest.mark.parametrize("mode", list(GgmMode))
def test_an_extrapolation_never_raises_the_residual_norm(monkeypatch, mode):
    problem = _rank_deficient_problem(3, mode)
    record = ggm._Mixing.record
    seen = []  # (extrapolated, recorded, residual norm before, residual norm after)

    def watched(self, delta, base=None):
        before = None if self._f is None else float(np.linalg.norm(self._f))
        recorded = record(self, delta, base)
        seen.append((base is not None, recorded, before, float(np.linalg.norm(self._f))))
        return recorded

    monkeypatch.setattr(ggm._Mixing, "record", watched)
    solve_ggm(problem, SolverOptions(T=120))
    extrapolated = [s for s in seen if s[0]]
    assert any(not recorded for _, recorded, _, _ in extrapolated)
    assert all(after <= before for _, recorded, before, after in extrapolated if recorded)


def test_gradient_route_is_accelerated_too():
    # plain sweeps still move Omega by 1e-4 per sweep after 400 sweeps here
    problem = _problem(np.random.default_rng(51), 8, tau=0.3)
    eig = solve_ggm(problem, SolverOptions(T=200))
    grad = solve_ggm(problem, SolverOptions(
        T=200, precision_method=PrecisionMethod.GRADIENT_ASCENT, inner_tol=1e-11,
    ))
    assert eig.converged and grad.converged
    assert np.linalg.norm(eig.omega_star.omega - grad.omega_star.omega) <= 1e-6


def _gradient_n30(seed, precision_method):
    """The reference problem at n = 30 with T = 4, on the given precision route."""
    config = PipelineConfig.from_json_file(REFERENCE_CONFIG)
    config = replace(config, n=30, seed=seed, solver=replace(
        config.solver, T=4, precision_method=PrecisionMethod(precision_method)))
    _, samples = make_planted(config.n, config.h, config.k_connected, config.coupling,
                              config.m, config.seed)
    mean, cov = sample_statistics(samples)
    problem = GgmProblem(cov, select_important(mean, config.h), config.tau, config.lam,
                         config.surrogate)
    return config, problem


def test_gradient_route_step_budget_on_the_reference_problem(monkeypatch):
    # one inv per gradient evaluation: 251 with a Euclidean step, 103 with the
    # affine-invariant one
    config, problem = _gradient_n30(1, "gradient")
    invs = _count_calls(monkeypatch, np.linalg, "inv")
    report = solve_ggm(problem, config.solver)
    assert report.iterations == 4
    assert len(invs) <= 150


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_gradient_route_selects_as_the_eigen_route_on_the_reference_problem(seed):
    selected = []
    for route in ("gradient", "eigen"):
        config, problem = _gradient_n30(seed, route)
        report = solve_ggm(problem, config.solver)
        selection = select_trainable(report, problem.important_set,
                                     budget=config.selection_budget)
        selected.append((selection.important_set, selection.solver_selected))
    assert selected[0] == selected[1]


def test_solver_options_fields_are_unchanged():
    assert [f.name for f in fields(SolverOptions)] == [
        "T", "inner_tol", "inner_max_iter", "outer_tol", "precision_method",
    ]


# ------------------------------------------------------------- log det


def test_eigen_update_carries_the_closed_form_logdet():
    rng = np.random.default_rng(52)
    for n, lam in ((1, 1.0), (7, 0.05), (40, 3.0)):
        sigma = _wishart(rng, n)
        delta = rng.standard_normal((n, n))
        precision = update_precision_eig(sigma, delta, lam)
        sign, logdet = np.linalg.slogdet(precision.omega)
        assert sign > 0
        assert precision.logdet == pytest.approx(logdet, rel=1e-12, abs=1e-10)


def test_objective_uses_a_carried_logdet_and_falls_back_to_slogdet():
    problem = GgmProblem(np.eye(2), (0,), 0.0, 1.0, SurrogateSpec.identity())
    omega = 2.0 * np.eye(2)
    plain = penalized_objective(omega, omega, problem)
    assert plain == pytest.approx(2 * np.log(2) - 4, abs=1e-12)
    assert penalized_objective(PrecisionMatrix(omega), omega, problem) == plain
    carried = PrecisionMatrix(omega, logdet=5.0)
    assert penalized_objective(carried, omega, problem) == pytest.approx(5.0 - 4.0, abs=1e-12)


@pytest.mark.parametrize("mode", list(GgmMode))
def test_eigen_route_solve_calls_no_slogdet(monkeypatch, mode):
    problem = _problem(np.random.default_rng(53), 12, mode=mode, tau=0.5)
    calls = _count_calls(monkeypatch, np.linalg, "slogdet")
    report = solve_ggm(problem, SolverOptions(T=30))
    assert report.iterations > 5
    assert calls == []


def test_gradient_route_keeps_slogdet(monkeypatch):
    problem = _problem(np.random.default_rng(53), 6, tau=0.5)
    calls = _count_calls(monkeypatch, np.linalg, "slogdet")
    report = solve_ggm(problem, SolverOptions(T=3, precision_method=PrecisionMethod.GRADIENT_ASCENT))
    assert len(calls) == report.iterations


def _extrapolation_attempts(monkeypatch):
    """Log each extrapolation attempt as (iteration, accepted)."""
    attempts, done = [], []
    record, clear = ggm._Mixing.record, ggm._Mixing.clear

    def recorded(self, delta, base=None):
        kept = record(self, delta, base)
        if kept:
            done.append(1)
            if base is not None:
                attempts.append((len(done), True))
        return kept

    def cleared(self):
        attempts.append((len(done) + 1, False))
        clear(self)

    monkeypatch.setattr(ggm._Mixing, "record", recorded)
    monkeypatch.setattr(ggm._Mixing, "clear", cleared)
    return attempts


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("mode", list(GgmMode))
def test_refusals_in_a_row_double_the_wait(monkeypatch, seed, mode):
    attempts = _extrapolation_attempts(monkeypatch)
    solve_ggm(_rank_deficient_problem(seed, mode), SolverOptions(T=120))
    assert any(not kept for _, kept in attempts)
    in_a_row = 0
    for (t, kept), (t_next, _) in zip(attempts, attempts[1:]):
        in_a_row = 0 if kept else in_a_row + 1
        # an accepted extrapolation leaves the history full: the next base extrapolates
        # too; the k-th refusal in a row waits the refill (depth + 1 sweeps) times 2^(k-1)
        wait = 1 if kept else (ggm.ANDERSON_DEPTH + 1) * 2 ** (in_a_row - 1)
        assert t_next == t + wait

