"""The one range rule for real parameters, at every library call that takes one."""

import math

import numpy as np
import pytest

from ggm_select.ggm import (
    GgmProblem,
    PrecisionMatrix,
    SolverReport,
    update_precision,
    update_precision_eig,
)
from ggm_select.pipeline import make_planted, select_trainable
from ggm_select.scalar_prox import ProxProblem, solve_threshold_batch
from ggm_select.surrogates import SurrogateSpec, breakpoint_a0

_G = SurrogateSpec.geman(0.5)


def _report():
    return SolverReport(omega_star=np.eye(3), objective_trace=((0, -3.0),), converged=True,
                        iterations=1, group_norms=np.array([0.0, 0.2, 0.9]))


# name in the message, whether 0 is refused too, and the call with the value in its place
SITES = {
    "GgmProblem tau": ("tau", False, lambda v: GgmProblem(np.eye(2), (0,), v, 1.0, _G)),
    "GgmProblem lam": ("lam", True, lambda v: GgmProblem(np.eye(2), (0,), 0.1, v, _G)),
    "update_precision_eig lam": ("lam", True, lambda v: update_precision_eig(np.eye(2), np.zeros((2, 2)), v)),
    "update_precision lam": ("lam", True, lambda v: update_precision(np.eye(2), np.zeros((2, 2)), v)),
    "PrecisionMatrix min_eig": ("precision matrix min_eig", True, lambda v: PrecisionMatrix(np.eye(2), min_eig=v)),
    "ProxProblem y": ("y", False, lambda v: ProxProblem(v, 0.5, _G)),
    "ProxProblem lam": ("lam", True, lambda v: ProxProblem(1.0, v, _G)),
    "ProxProblem tol": ("tol", True, lambda v: ProxProblem(1.0, 0.5, _G, tol=v)),
    "solve_threshold_batch tol": ("tol", True, lambda v: solve_threshold_batch(np.ones(2), 0.5, _G, tol=v)),
    "breakpoint_a0 lam": ("lam", True, lambda v: breakpoint_a0(_G, v)),
    "select_trainable threshold": ("threshold", False, lambda v: select_trainable(_report(), (0,), threshold=v)),
    "make_planted coupling": ("coupling", False, lambda v: make_planted(4, 1, 1, v, 10, 0)),
}


def _out_of_range(positive):
    return [math.nan, math.inf, -1.0] + ([0.0] if positive else [])


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, positive, _) in SITES.items() for value in _out_of_range(positive)
])
def test_each_site_refuses_an_out_of_range_value_with_the_same_text(site, value):
    name, positive, call = SITES[site]
    with pytest.raises(ValueError) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be finite and {'>' if positive else '>='} 0, got {value}"


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [True, "0.5"])
def test_each_site_refuses_a_boolean_or_a_string(site, value):
    with pytest.raises(TypeError, match="must be a number"):
        SITES[site][2](value)


@pytest.mark.parametrize("site", SITES)
def test_each_site_accepts_zero_or_a_small_positive_value(site):
    _, positive, call = SITES[site]
    call(1e-3 if positive else 0.0)
