import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggm_select.errors import IterationLimitError
from ggm_select.scalar_prox import (
    Branch,
    ProxProblem,
    ProxSolution,
    apply_threshold,
    breakpoint_a0,
    oracle_threshold,
    prox_objective,
    solve_threshold,
)
from ggm_select.surrogates import SurrogateSpec, second_deriv_g


def _random_specs(rng):
    """A mixed bag of valid surrogates for randomized sweeps."""
    return [
        SurrogateSpec.lp(rng.uniform(0.1, 0.9)),
        SurrogateSpec.geman(rng.uniform(0.1, 3.0)),
        SurrogateSpec.laplace(rng.uniform(0.2, 3.0)),
        SurrogateSpec.log(rng.uniform(0.3, 4.0)),
        SurrogateSpec.logarithm(rng.uniform(0.3, 4.0)),
        SurrogateSpec.etp(rng.uniform(0.3, 4.0)),
        SurrogateSpec.identity(),
    ]


# --------------------------------------------------------------- basic branches


def test_identity_is_soft_threshold():
    sol = solve_threshold(ProxProblem(y=3.0, lam=1.0, g=SurrogateSpec.identity()))
    assert sol.x_star == pytest.approx(2.0, abs=1e-12)
    assert sol.branch is Branch.FIXED_POINT


def test_zero_input_returns_zero():
    for g in (SurrogateSpec.identity(), SurrogateSpec.geman(1.0), SurrogateSpec.lp(0.5)):
        sol = solve_threshold(ProxProblem(y=0.0, lam=1.0, g=g))
        assert sol.x_star == 0.0
        assert sol.branch is Branch.ZERO


def test_geman_agrees_with_grid_oracle():
    problem = ProxProblem(y=2.0, lam=1.0, g=SurrogateSpec.geman(1.0))
    sol = solve_threshold(problem)
    ref = oracle_threshold(problem, grid_step=1e-6)
    assert abs(sol.x_star - ref) <= 1e-5


def test_small_input_power_penalty_snaps_to_zero():
    problem = ProxProblem(y=0.1, lam=1.0, g=SurrogateSpec.lp(0.5))
    sol = solve_threshold(problem)
    ref = oracle_threshold(problem, grid_step=1e-5)
    assert sol.x_star == 0.0
    assert ref == 0.0


def test_heavy_penalty_forces_zero_branch():
    problem = ProxProblem(y=0.01, lam=10.0, g=SurrogateSpec.etp(3.0))
    assert oracle_threshold(problem, grid_step=1e-6) == 0.0
    assert solve_threshold(problem).x_star == 0.0


# ------------------------------------------------------------------ breakpoint


def test_flat_penalty_breakpoint_is_origin():
    assert breakpoint_a0(SurrogateSpec.identity(), 5.0) == 0.0


def test_geman_breakpoint_closed_form():
    a0 = breakpoint_a0(SurrogateSpec.geman(1.0), 4.0)
    assert a0 == pytest.approx(1.0, abs=1e-12)
    # the defining equation holds there
    assert second_deriv_g(SurrogateSpec.geman(1.0), a0) == pytest.approx(-0.25, abs=1e-12)


def test_laplace_breakpoint_clamps_to_zero():
    assert breakpoint_a0(SurrogateSpec.laplace(1.0), 1.0) == 0.0


def test_breakpoint_solves_curvature_equation():
    rng = np.random.default_rng(20)
    for _ in range(8):
        for spec in _random_specs(rng):
            lam = rng.uniform(0.05, 10.0)
            a0 = breakpoint_a0(spec, lam)
            assert a0 >= 0.0
            if a0 > 0.0:
                assert second_deriv_g(spec, a0) == pytest.approx(-1.0 / lam, rel=1e-8)


def test_breakpoint_power_family_always_positive():
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = SurrogateSpec.lp(rng.uniform(0.05, 0.95))
        assert breakpoint_a0(spec, rng.uniform(0.01, 20.0)) > 0.0


# -------------------------------------------------------------------- oracle


def test_oracle_identity_near_soft_threshold():
    problem = ProxProblem(y=3.0, lam=1.0, g=SurrogateSpec.identity())
    assert oracle_threshold(problem, grid_step=1e-4) == pytest.approx(2.0, abs=1e-4)


def test_oracle_geman_golden_value():
    """Frozen reference answer for a fixed well-conditioned instance."""
    problem = ProxProblem(y=5.0, lam=0.5, g=SurrogateSpec.geman(1.0))
    ref = oracle_threshold(problem, grid_step=1e-5)
    assert ref == pytest.approx(4.986046277450699, abs=1e-9)
    sol = solve_threshold(problem)
    assert prox_objective(problem, sol.x_star) <= prox_objective(problem, ref) + 1e-8
    assert abs(sol.x_star - ref) <= 1e-5


def test_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        oracle_threshold(ProxProblem(y=1.0, lam=1.0, g=SurrogateSpec.identity()), grid_step=0.0)


@pytest.mark.parametrize("step", [np.inf, np.nan, -1e-3, 0.0])
def test_oracle_refuses_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(ValueError, match=f"^grid_step must be finite and > 0, got {step}$"):
        oracle_threshold(ProxProblem(y=1.0, lam=1.0, g=SurrogateSpec.identity()), grid_step=step)


# ----------------------------------------------------------- solution structure


@given(
    y=st.floats(min_value=0.0, max_value=50.0),
    lam=st.floats(min_value=1e-3, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_soft_threshold_exact_everywhere(y, lam):
    sol = solve_threshold(ProxProblem(y=y, lam=lam, g=SurrogateSpec.identity()))
    assert abs(sol.x_star - max(y - lam, 0.0)) <= 1e-12


def test_shrinkage_never_exceeds_input():
    rng = np.random.default_rng(22)
    for _ in range(30):
        for spec in _random_specs(rng):
            y = rng.uniform(0.0, 10.0)
            lam = rng.uniform(0.01, 10.0)
            sol = solve_threshold(ProxProblem(y=y, lam=lam, g=spec))
            assert 0.0 <= sol.x_star <= y + 1e-12


def test_monotone_in_input_magnitude():
    rng = np.random.default_rng(23)
    ys = np.linspace(0.0, 8.0, 80)
    for spec in _random_specs(rng):
        lam = rng.uniform(0.1, 3.0)
        outs = [solve_threshold(ProxProblem(y=float(y), lam=lam, g=spec)).x_star for y in ys]
        assert np.all(np.diff(outs) >= -1e-9)


def test_zero_then_positive_threshold_pattern():
    """Scanning y upward, answers are all-zero up to a cut then all-positive."""
    rng = np.random.default_rng(24)
    ys = np.linspace(1e-3, 8.0, 120)
    for spec in _random_specs(rng):
        lam = rng.uniform(0.2, 2.0)
        zero_flags = [
            solve_threshold(ProxProblem(y=float(y), lam=lam, g=spec)).x_star == 0.0
            for y in ys
        ]
        # once a positive answer appears it never reverts to zero
        assert np.all(np.diff(np.asarray(zero_flags, dtype=int)) <= 0)


def test_solution_reports_branch_and_iterations():
    sol = solve_threshold(ProxProblem(y=6.0, lam=0.3, g=SurrogateSpec.geman(0.5)))
    assert isinstance(sol, ProxSolution)
    assert sol.branch in (Branch.FIXED_POINT, Branch.BREAKPOINT, Branch.ZERO)
    assert sol.iterations >= 0


def test_interior_and_zero_branches_both_reachable():
    seen = set()
    rng = np.random.default_rng(25)
    for _ in range(400):
        spec = SurrogateSpec.geman(rng.uniform(0.1, 2.0))
        y = rng.uniform(0.0, 6.0)
        lam = rng.uniform(0.05, 6.0)
        seen.add(solve_threshold(ProxProblem(y=y, lam=lam, g=spec)).branch)
        if {Branch.FIXED_POINT, Branch.ZERO} <= seen:
            break
    assert {Branch.FIXED_POINT, Branch.ZERO} <= seen


def test_failed_slope_test_always_yields_zero():
    """If the objective rises at the curvature breakpoint, zero wins outright.

    The objective is concave before the breakpoint, so a nonnegative slope
    there means it was increasing on the whole segment; the candidate at the
    breakpoint can never beat the origin.
    """
    from ggm_select.surrogates import grad_g

    rng = np.random.default_rng(27)
    checked = 0
    for _ in range(300):
        spec = SurrogateSpec.geman(rng.uniform(0.1, 2.0))
        y = rng.uniform(0.0, 4.0)
        lam = rng.uniform(0.05, 6.0)
        a0 = breakpoint_a0(spec, lam)
        slope = (a0 - y) + lam * grad_g(spec, a0)
        if slope >= 0.0:
            sol = solve_threshold(ProxProblem(y=y, lam=lam, g=spec))
            assert sol.x_star == 0.0
            checked += 1
    assert checked > 20


# --------------------------------------------------------------- odd extension


@given(
    y=st.floats(min_value=0.0, max_value=20.0),
    lam=st.floats(min_value=0.05, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_threshold_is_odd_in_value(y, lam):
    g = SurrogateSpec.geman(0.8)
    plus = apply_threshold(y, lam, g)
    minus = apply_threshold(-y, lam, g)
    assert minus == -plus


def test_apply_threshold_matches_solver_on_nonnegative():
    rng = np.random.default_rng(26)
    for _ in range(20):
        y = rng.uniform(0, 5)
        lam = rng.uniform(0.1, 2)
        g = SurrogateSpec.laplace(1.0)
        assert apply_threshold(y, lam, g) == solve_threshold(ProxProblem(y=y, lam=lam, g=g)).x_star


# ------------------------------------------------------------------ objective


def test_objective_evaluates_quadratic_plus_penalty():
    problem = ProxProblem(y=2.0, lam=3.0, g=SurrogateSpec.identity())
    assert prox_objective(problem, 1.0) == pytest.approx(0.5 + 3.0, abs=1e-14)


def test_objective_vectorized():
    problem = ProxProblem(y=2.0, lam=1.0, g=SurrogateSpec.geman(1.0))
    xs = np.linspace(0, 2, 9)
    vals = prox_objective(problem, xs)
    assert vals.shape == xs.shape
    assert vals[0] == pytest.approx(prox_objective(problem, 0.0))


# ------------------------------------------------------------------ validation


def test_rejects_negative_input_magnitude():
    with pytest.raises(ValueError):
        ProxProblem(y=-1.0, lam=1.0, g=SurrogateSpec.identity())


@pytest.mark.parametrize("lam", [0.0, -2.0])
def test_rejects_nonpositive_weight(lam):
    with pytest.raises(ValueError):
        ProxProblem(y=1.0, lam=lam, g=SurrogateSpec.identity())


def test_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        ProxProblem(y=1.0, lam=1.0, g=SurrogateSpec.identity(), tol=0.0)


def test_iteration_cap_raises():
    # an instance that needs the accelerated loop, given no budget to run it
    problem = ProxProblem(y=5.0, lam=0.5, g=SurrogateSpec.geman(1.0))
    with pytest.raises(IterationLimitError):
        solve_threshold(problem, max_iter=0)
