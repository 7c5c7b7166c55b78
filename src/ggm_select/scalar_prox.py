"""Scalar thresholding with a concave surrogate penalty.

Solves the one-dimensional problem

    T_g(y, lam) = argmin_{x >= 0}  f_y(x) = 0.5 * (y - x)**2 + lam * g(x)

for a concave surrogate g.  The objective is concave before and convex after
the breakpoint a0 (the largest x with g''(x) = -1/lam), so the global
minimizer is either 0, the breakpoint itself, or the unique stationary point
beyond it.  That stationary point is the fixed point of the shift map
``J1(x) = y - lam * g'(x)``, which is a contraction past the breakpoint; it
is located by an Aitken-accelerated fixed-point iteration and the three
candidates are compared directly.  a0 is :func:`breakpoint_a0`, the closed
form in each kind's :mod:`ggm_select.surrogates` entry, re-exported here.

There is one implementation, :func:`solve_threshold_batch`, which solves a
vector of inputs y that share lam and g in one array iteration; each element
stops at its own step.  :func:`solve_threshold` is its one-element call.

With the identity surrogate this reduces exactly to soft thresholding
``max(y - lam, 0)``, which the tests use as a closed-form reference.

An independent brute-force oracle (dense grid plus trisection refinement)
lives here too; the solver never calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IterationLimitError, NumericalError
from .surrogates import SurrogateSpec, breakpoint_a0, eval_g, grad_g

__all__ = [
    "ProxProblem",
    "ProxSolution",
    "ProxBatch",
    "Branch",
    "BRANCHES",
    "solve_threshold",
    "solve_threshold_batch",
    "breakpoint_a0",
    "oracle_threshold",
    "prox_objective",
    "apply_threshold",
]

# stop as soon as the Aitken residual is this small, even if tol is smaller,
# the denominator of the accelerated step is no longer trustworthy
_AITKEN_GUARD = 1e-15

DEFAULT_MAX_ITER = 10_000


class Branch(str, Enum):
    FIXED_POINT = "fixed_point"
    BREAKPOINT = "breakpoint"
    ZERO = "zero"


@dataclass(frozen=True)
class ProxProblem:
    """One thresholding instance: input magnitude y, weight lam, surrogate g."""

    y: float
    lam: float
    g: SurrogateSpec
    tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.y) and self.y >= 0.0):
            raise ValueError(f"y must be finite and >= 0, got {self.y}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass(frozen=True)
class ProxSolution:
    x_star: float
    iterations: int
    branch: Branch


def prox_objective(problem: ProxProblem, x) -> float:
    """Evaluate f_y(x) = 0.5*(y - x)**2 + lam*g(x) (scalar or array x)."""
    return 0.5 * (problem.y - np.asarray(x, dtype=float)) ** 2 + problem.lam * eval_g(
        problem.g, x
    )


@dataclass(frozen=True)
class ProxBatch:
    """Per-element results of :func:`solve_threshold_batch`.

    ``branch`` holds indices into :data:`BRANCHES`.
    """

    x_star: np.ndarray
    iterations: np.ndarray
    branch: np.ndarray


BRANCHES = (Branch.FIXED_POINT, Branch.BREAKPOINT, Branch.ZERO)
_FIXED_POINT, _BREAKPOINT, _ZERO = range(len(BRANCHES))


def solve_threshold_batch(y, lam: float, g: SurrogateSpec, tol: float = 1e-10,
                          max_iter: int = DEFAULT_MAX_ITER) -> ProxBatch:
    """Globally minimize f_y over x >= 0 for every element of a vector ``y``.

    All elements share ``lam``, ``g`` and hence the breakpoint a0.  Each
    element runs its own accelerated fixed-point iteration and stops at its
    own step, so its result does not depend on the other elements.

    Raises
    ------
    IterationLimitError
        if any element's fixed-point iteration does not meet ``tol`` within
        ``max_iter`` accelerated steps (non-contraction, e.g. from surrogate
        parameters that are numerically degenerate).
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y) & (y >= 0.0)):
        raise ValueError("y must be finite and >= 0")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    a0 = breakpoint_a0(g, lam)
    # y = 0 thresholds to 0 without iterating (lp's g' has a pole there)
    live = y > 0.0

    def shift(x, y):
        # J1; iterates are kept inside [a0, y] where the map is contractive
        # and g' is defined (lp has a pole at 0 but its a0 is always > 0)
        return np.minimum(np.maximum(y - lam * grad_g(g, x), a0), y)

    # an interior stationary point exists beyond a0 where the slope there is < 0
    interior = live & ((a0 - y) + lam * grad_g(g, a0) < 0.0)
    x_hat = np.full(y.shape, a0)
    iterations = np.zeros(y.shape, dtype=int)
    rows = np.flatnonzero(interior)
    y_rows = x = y[rows]
    step = 0
    while rows.size:
        x1 = shift(x, y_rows)
        x2 = shift(x1, y_rows)
        resid = x2 - 2.0 * x1 + x
        done = (np.abs(resid) <= tol) | (np.abs(resid) < _AITKEN_GUARD)
        x_hat[rows[done]] = x1[done]
        iterations[rows[done]] = step
        going = ~done
        if not going.any():
            break
        if step >= max_iter:
            raise IterationLimitError(
                f"thresholding did not converge in {max_iter} iterations "
                f"(residual {np.abs(resid[going][0]):.3e}, tol {tol:.3e})"
            )
        rows, y_rows, x, x1, x2, resid = (
            v[going] for v in (rows, y_rows, x, x1, x2, resid))
        x = np.minimum(np.maximum(x1 - (x2 - x1) * (x1 - x) / resid, a0), y_rows)
        if not np.all(np.isfinite(x)):
            raise NumericalError("thresholding iterate became non-finite")
        step += 1

    f0 = 0.5 * y * y + lam * eval_g(g, 0.0)
    f_hat = 0.5 * (y - x_hat) ** 2 + lam * eval_g(g, x_hat)
    # ties go to the sparser answer
    wins = live & (f0 > f_hat)
    branch = np.where(wins, np.where(interior, _FIXED_POINT, _BREAKPOINT), _ZERO)
    return ProxBatch(np.where(wins, x_hat, 0.0), iterations, branch)


def solve_threshold(problem: ProxProblem, max_iter: int = DEFAULT_MAX_ITER) -> ProxSolution:
    """Globally minimize f_y over x >= 0: the one-element batch.

    Returns the minimizer together with the branch that produced it:
    the accelerated fixed-point iterate, the breakpoint, or zero.  Raises
    :class:`IterationLimitError` as :func:`solve_threshold_batch` does.
    """
    batch = solve_threshold_batch(np.array([problem.y]), problem.lam, problem.g,
                                  problem.tol, max_iter)
    return ProxSolution(float(batch.x_star[0]), int(batch.iterations[0]),
                        BRANCHES[batch.branch[0]])


def apply_threshold(value: float, lam: float, g: SurrogateSpec,
                    tol: float = 1e-10, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Signed convenience wrapper: odd extension T_g(-y) = -T_g(y).

    Callers inside the solver pass norms (always >= 0); this exists for
    defensive use on raw signed scalars.
    """
    sol = solve_threshold(ProxProblem(abs(value), lam, g, tol), max_iter)
    return math.copysign(sol.x_star, value) if sol.x_star != 0.0 else 0.0


# The oracle's grid takes about 31 bytes per point (188 MB at 5e6 points),
# so this bound, 20 times the default grid at y = 5, is about 3 GB.
ORACLE_MAX_POINTS = 10**8


def oracle_threshold(problem: ProxProblem, grid_step: float) -> float:
    """Brute-force reference minimizer: dense grid on [0, y], then trisection.

    Used by tests and the CLI ``prox --oracle`` mode only; independent of
    :func:`solve_threshold`.  A grid of more than ``ORACLE_MAX_POINTS``
    points is refused.
    """
    if not grid_step > 0.0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    y = problem.y
    if y / grid_step > ORACLE_MAX_POINTS:
        raise ValueError(f"grid_step {grid_step} makes a grid of {y / grid_step:.3g} points on [0, {y}], "
                         f"more than {ORACLE_MAX_POINTS:.0e}")
    if y == 0.0:
        return 0.0

    def f(x):
        return prox_objective(problem, x)

    xs = np.arange(0.0, y, grid_step)
    xs = np.append(xs, y)
    values = f(xs)
    i = int(np.argmin(values))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    for _ in range(200):
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    best = 0.5 * (lo + hi)
    # endpoints are often the exact answer; prefer them (and 0 on ties)
    for cand in (y, 0.0):
        if f(cand) <= f(best):
            best = cand
    return float(best)
