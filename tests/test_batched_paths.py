"""Array code of the solver's auxiliary block against per-element references.

The group term (group norms, the objective's group term and the Delta
update) is compared with a per-column loop kept here as the reference.  The
two sum squares in a different order, so they agree to a tolerance fixed
from float64 rounding.  The batched threshold is compared with one-element
calls, which run the same arithmetic and must agree bit for bit.
"""

import numpy as np
import pytest

from ggm_select import scalar_prox
from ggm_select.errors import IterationLimitError, NumericalError
from ggm_select.ggm import (
    GgmMode,
    GgmProblem,
    compute_group_norms,
    penalized_objective,
    update_auxiliary,
)
from ggm_select.scalar_prox import (
    BRANCHES,
    Branch,
    ProxProblem,
    breakpoint_a0,
    solve_threshold,
    solve_threshold_batch,
)
from ggm_select.surrogates import SurrogateSpec, eval_g, grad_g

RTOL = 1e-13

ALL_KINDS = [
    SurrogateSpec.lp(0.5),
    SurrogateSpec.geman(0.5),
    SurrogateSpec.laplace(0.3),
    SurrogateSpec.log(0.2),
    SurrogateSpec.logarithm(5.0),
    SurrogateSpec.etp(2.0),
    SurrogateSpec.identity(),
]


# ------------------------------------------------------ per-column reference


def _ref_group_rows(problem, col):
    if problem.mode is GgmMode.IMPORTANT_ROWS:
        return np.asarray(problem.important_set, dtype=int)
    return np.asarray([j for j in range(problem.n) if j != col], dtype=int)


def _ref_columns(problem):
    if problem.mode is GgmMode.IMPORTANT_ROWS:
        return [i for i in range(problem.n) if i not in problem.important_set]
    return list(range(problem.n))


def _ref_group_norms(om, problem):
    norms = np.zeros(problem.n)
    for i in _ref_columns(problem):
        norms[i] = float(np.linalg.norm(om[_ref_group_rows(problem, i), i]))
    return norms


def _ref_objective(om, de, problem):
    _, logdet = np.linalg.slogdet(om)
    value = logdet - float(np.sum(problem.sigma_hat * om))
    value -= problem.lam * float(np.sum((om - de) ** 2))
    if problem.tau > 0.0:
        group = sum(
            eval_g(problem.g, float(np.linalg.norm(de[_ref_group_rows(problem, i), i])))
            for i in _ref_columns(problem)
        )
        value -= problem.tau * group
    return value


def _ref_auxiliary(om, problem, prox_tol=1e-10):
    delta = om.copy()
    if problem.tau == 0.0:
        return delta
    weight = problem.tau / (2.0 * problem.lam)
    for i in _ref_columns(problem):
        rows = _ref_group_rows(problem, i)
        sub = om[rows, i]
        nrm = float(np.linalg.norm(sub))
        if nrm == 0.0:
            continue
        alpha = solve_threshold(ProxProblem(nrm, weight, problem.g, prox_tol)).x_star
        delta[rows, i] = (alpha / nrm) * sub
    return delta


# ------------------------------------------------------------- group term


def _spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + np.eye(n)


def _case(name):
    """(problem, omega, delta) for one named group-structure case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n = 1 if name == "n1_full_offdiag" else 9
    mode = GgmMode.IMPORTANT_ROWS if name.startswith("important") else GgmMode.FULL_OFFDIAG
    tau = 0.0 if name.endswith("tau0") else 0.4
    problem = GgmProblem(_spd(rng, n), (1, 4, 6) if n > 1 else (), tau, 0.7,
                         SurrogateSpec.log(0.2), mode)
    # symmetric, diagonally dominant (so PD), with column scales that spread
    # the group norms across the zero and fixed-point branches
    scale = rng.uniform(0.1, 1.5, size=n)
    a = rng.normal(size=(n, n))
    omega = scale[:, None] * (a + a.T) * scale[None, :]
    np.fill_diagonal(omega, 0.0)
    omega += np.diag(np.abs(omega).sum(axis=1) + 1.0)
    delta = rng.normal(size=(n, n))
    if name.endswith("zero_column"):
        rows = _ref_group_rows(problem, 2)
        omega[rows, 2] = 0.0
        delta[rows, 2] = 0.0
    return problem, omega, delta


CASES = [
    "important_rows",
    "important_rows_tau0",
    "important_rows_zero_column",
    "full_offdiag",
    "full_offdiag_tau0",
    "full_offdiag_zero_column",
    "n1_full_offdiag",
]


@pytest.mark.parametrize("name", CASES)
def test_group_norms_match_column_loop(name):
    problem, omega, delta = _case(name)
    for mat in (omega, delta):
        np.testing.assert_allclose(compute_group_norms(mat, problem),
                                   _ref_group_norms(mat, problem), rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("name", CASES)
def test_objective_matches_column_loop(name):
    problem, omega, delta = _case(name)
    assert penalized_objective(omega, delta, problem) == pytest.approx(
        _ref_objective(omega, delta, problem), rel=RTOL, abs=0.0)


@pytest.mark.parametrize("name", CASES)
def test_auxiliary_matches_column_loop(name):
    problem, omega, _ = _case(name)
    np.testing.assert_allclose(update_auxiliary(omega, problem).delta,
                               _ref_auxiliary(omega, problem), rtol=RTOL, atol=0.0)


def test_empty_group_still_pays_g_at_zero():
    problem, omega, delta = _case("n1_full_offdiag")
    expected = (np.log(omega[0, 0]) - problem.sigma_hat[0, 0] * omega[0, 0]
                - problem.lam * (omega[0, 0] - delta[0, 0]) ** 2
                - problem.tau * eval_g(problem.g, 0.0))
    assert eval_g(problem.g, 0.0) != 0.0
    assert penalized_objective(omega, delta, problem) == pytest.approx(expected, rel=RTOL)


def test_reference_cases_reach_both_nonzero_and_zero_thresholds():
    problem, omega, _ = _case("important_rows")
    delta = update_auxiliary(omega, problem).delta
    shrunk = compute_group_norms(delta, problem)[_ref_columns(problem)]
    assert (shrunk == 0.0).any() and (shrunk > 0.0).any()


# ------------------------------------------------------ batched threshold


def _mixed_inputs(g, lam):
    """Zeros, the breakpoint and its slope boundary, and a spread of magnitudes."""
    a0 = breakpoint_a0(g, lam)
    edge = a0 + lam * grad_g(g, a0)
    special = [0.0, a0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 0.0]
    spread = np.geomspace(1e-6, 20.0, 40)
    return np.asarray([v for v in special if v >= 0.0] + list(spread))


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: g.kind.value)
@pytest.mark.parametrize("lam", [0.05, 1.0, 4.0])
def test_batch_equals_one_element_calls_bit_for_bit(g, lam):
    ys = _mixed_inputs(g, lam)
    batch = solve_threshold_batch(ys, lam, g)
    singles = [solve_threshold(ProxProblem(float(y), lam, g)) for y in ys]
    assert batch.x_star.tobytes() == np.array([s.x_star for s in singles]).tobytes()
    assert batch.iterations.tolist() == [s.iterations for s in singles]
    assert [BRANCHES[b] for b in batch.branch] == [s.branch for s in singles]
    assert {Branch.ZERO, Branch.FIXED_POINT} <= {s.branch for s in singles}


def test_batch_result_does_not_depend_on_order():
    g, lam = SurrogateSpec.geman(0.5), 1.0
    ys = _mixed_inputs(g, lam)
    perm = np.random.default_rng(3).permutation(ys.size)
    forward = solve_threshold_batch(ys, lam, g)
    shuffled = solve_threshold_batch(ys[perm], lam, g)
    assert np.array_equal(forward.x_star[perm], shuffled.x_star)
    assert np.array_equal(forward.iterations[perm], shuffled.iterations)


def test_batch_iteration_limit_fires_from_inside_a_batch():
    g, lam = SurrogateSpec.geman(0.5), 1.0
    ys = np.array([0.0, 0.2, 5.0])
    assert solve_threshold(ProxProblem(5.0, lam, g)).iterations > 0
    with pytest.raises(IterationLimitError):
        solve_threshold_batch(ys, lam, g, max_iter=0)


def test_batch_non_finite_guard_fires_from_inside_a_batch(monkeypatch):
    g, lam = SurrogateSpec.geman(0.5), 1.0
    real_grad = grad_g

    def grad_nan_above_four(spec, x):
        out = real_grad(spec, x)
        return np.where(np.asarray(x) > 4.0, np.nan, out)

    monkeypatch.setattr(scalar_prox, "grad_g", grad_nan_above_four)
    with pytest.raises(NumericalError):
        solve_threshold_batch(np.array([0.0, 2.0, 5.0]), lam, g)


def test_batch_rejects_negative_or_non_finite_inputs():
    g = SurrogateSpec.identity()
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            solve_threshold_batch(np.array([1.0, bad]), 1.0, g)
