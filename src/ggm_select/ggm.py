"""Group-penalized Gaussian graphical model estimation.

Fits a precision matrix by maximizing

    log det(Omega) - <Sigma_hat, Omega> - tau * sum_j g(||group_j(Omega)||_2)

where each group is either the coupling of column j to a designated set of
important rows (``important_rows`` mode) or the whole off-diagonal of the
column (``full_offdiag`` mode).  The nonsmooth, nonconvex group term is
handled by introducing an auxiliary matrix Delta tied to Omega through a
quadratic penalty lam * ||Omega - Delta||_F**2, and the penalized objective

    log det(Omega) - <Sigma_hat, Omega> - lam*||Omega - Delta||_F**2
        - tau * sum_j g(||group_j(Delta)||_2)

is maximized by alternating exact block updates:

* the Omega block is an unconstrained concave problem whose stationarity
  condition decouples over the eigenvalues of the symmetrized coefficient
  matrix A_s = sym(Sigma_hat/(2*lam) - Delta); it is solved either in closed
  form through one eigendecomposition or by safeguarded gradient ascent
  (the two routes cross-check each other in the tests);
* the Delta block separates over columns, each reducing to the scalar
  thresholding problem of :mod:`ggm_select.scalar_prox` applied to the
  group norm, with weight tau/(2*lam); all group norms are thresholded in
  one batched call.

The group structure is defined once, as the set of penalized columns plus a
boolean mask of their group entries.  Group norms, the objective's group
term and the Delta block all read it as array code, with no loop over
columns.

Both block updates maximize their block exactly (or to inner tolerance), so
the penalized objective is nondecreasing across the sweep and Omega iterates
stay strictly positive definite.

A solve is a sequential state machine over immutable inputs; problems and
reports can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import NumericalError
# solve_threshold is unused here but must stay importable as
# ggm.solve_threshold: perfbench/tracer.py wraps that attribute by name
from .scalar_prox import solve_threshold, solve_threshold_batch  # noqa: F401
from .surrogates import SurrogateSpec, eval_g

__all__ = [
    "GgmMode",
    "GgmProblem",
    "PrecisionMatrix",
    "AuxMatrix",
    "SolverReport",
    "SolverOptions",
    "PrecisionMethod",
    "penalized_objective",
    "update_precision",
    "update_precision_eig",
    "update_auxiliary",
    "solve_ggm",
    "compute_group_norms",
    "load_covariance",
]

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10
DIAG_JITTER = 1e-8


class GgmMode(str, Enum):
    IMPORTANT_ROWS = "important_rows"
    FULL_OFFDIAG = "full_offdiag"


class PrecisionMethod(str, Enum):
    EIGEN_CLOSED_FORM = "eigen"
    GRADIENT_ASCENT = "gradient"


def _as_array(mat) -> np.ndarray:
    if isinstance(mat, PrecisionMatrix):
        return mat.omega
    if isinstance(mat, AuxMatrix):
        return mat.delta
    return np.asarray(mat, dtype=float)


@dataclass(frozen=True)
class GgmProblem:
    """Problem data: covariance, important set, weights, surrogate, mode.

    ``important_set`` holds 0-based column indices; it is canonicalized to a
    sorted tuple.  ``important_rows`` mode requires at least one important
    index; ``full_offdiag`` mode ignores the set for penalization purposes.
    """

    sigma_hat: np.ndarray
    important_set: tuple
    tau: float
    lam: float
    g: SurrogateSpec
    mode: GgmMode = GgmMode.IMPORTANT_ROWS

    def __post_init__(self):
        sigma = np.asarray(self.sigma_hat, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"covariance must be square, got shape {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("covariance contains non-finite entries")
        asym = float(np.max(np.abs(sigma - sigma.T))) if sigma.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric (max asymmetry {asym:.3e})")
        if sigma.size and float(np.linalg.eigvalsh(sigma)[0]) < -PSD_TOL:
            raise ValueError("covariance is not positive semidefinite")
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma_hat", sigma)

        n = sigma.shape[0]
        idx = tuple(sorted(int(i) for i in self.important_set))
        if len(set(idx)) != len(idx):
            raise ValueError(f"important set has duplicates: {idx}")
        if any(i < 0 or i >= n for i in idx):
            raise ValueError(f"important set {idx} out of range for n={n}")
        object.__setattr__(self, "important_set", idx)
        object.__setattr__(self, "mode", GgmMode(self.mode))
        if self.mode is GgmMode.IMPORTANT_ROWS and not idx:
            raise ValueError("important_rows mode needs a nonempty important set")
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")

    @property
    def n(self) -> int:
        return self.sigma_hat.shape[0]


@dataclass(frozen=True)
class PrecisionMatrix:
    """A symmetric, strictly positive definite matrix and its smallest eigenvalue.

    Positive definiteness is proved by one Cholesky factorization.  A caller
    that already knows the smallest eigenvalue passes it as ``min_eig`` (the
    eigen route passes the least eigenvalue of its closed form); otherwise it
    is computed with ``eigvalsh``.  Either way it must be finite and > 0.
    """

    omega: np.ndarray
    min_eig: float = field(default=None, repr=False)

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ValueError(f"precision matrix must be square, got {om.shape}")
        if not np.all(np.isfinite(om)):
            raise ValueError("precision matrix contains non-finite entries")
        asym = float(np.max(np.abs(om - om.T)))
        if asym > 1e-8:
            raise ValueError(f"precision matrix not symmetric (max asymmetry {asym:.3e})")
        try:
            np.linalg.cholesky(om)
        except np.linalg.LinAlgError:
            raise ValueError("precision matrix is not positive definite") from None
        min_eig = float(np.linalg.eigvalsh(om)[0]) if self.min_eig is None else self.min_eig
        if not (math.isfinite(min_eig) and min_eig > 0.0):
            raise ValueError(f"precision matrix min_eig must be finite and > 0, got {min_eig}")
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "min_eig", float(min_eig))

    @property
    def n(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class AuxMatrix:
    """The auxiliary variable tied to Omega by the quadratic penalty."""

    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"auxiliary matrix must be square, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("auxiliary matrix contains non-finite entries")
        d.flags.writeable = False
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_ggm`; defaults match the CLI documentation."""

    T: int = 200
    # gradient route only: eta is the first trial step of update_precision,
    # inner_tol its gradient-norm stop and inner_max_iter its step cap
    eta: float = 0.1
    inner_tol: float = 1e-8
    inner_max_iter: int = 5000
    outer_tol: float = 1e-7
    precision_method: PrecisionMethod = PrecisionMethod.EIGEN_CLOSED_FORM
    # geometric continuation lam <- lam_growth * lam after each sweep; 1.0 = off
    lam_growth: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "precision_method", PrecisionMethod(self.precision_method))
        for name, kind in (("T", Integral), ("inner_max_iter", Integral), ("eta", Real),
                           ("inner_tol", Real), ("outer_tol", Real), ("lam_growth", Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(
                    f"solver option {name!r} must be {kind.__name__.lower()}, got {value!r}"
                )
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.eta <= 0 or self.inner_tol <= 0 or self.outer_tol <= 0:
            raise ValueError("eta, inner_tol and outer_tol must be > 0")
        if self.lam_growth < 1.0:
            raise ValueError("lam_growth must be >= 1")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a solve.

    ``group_norms`` is a length-n vector of the penalized group norms of the
    final Omega; in ``important_rows`` mode entries at important columns are
    0.0 by convention (those columns carry no group penalty).
    ``min_eig_trace`` records the smallest eigenvalue of each Omega iterate:
    ``min(1/diag)`` for the diagonal start, then each iterate's
    ``PrecisionMatrix.min_eig`` (on the eigen route, the least eigenvalue of
    the closed form).  It is not written to ``report.json``.
    """

    omega_star: PrecisionMatrix
    objective_trace: tuple
    converged: bool
    iterations: int
    group_norms: np.ndarray = field(repr=False)
    min_eig_trace: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "omega": [float(v) for v in self.omega_star.omega.ravel()],
            "objective_trace": [[int(t), float(v)] for t, v in self.objective_trace],
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "group_norms": [float(v) for v in self.group_norms],
        }


def _group_structure(problem: GgmProblem) -> tuple:
    """The penalized columns and the boolean mask of their group entries.

    ``mask[r, c]`` is True when entry (r, c) belongs to the penalized group of
    column c: rows ``important_set`` of the non-important columns in
    ``important_rows`` mode, the off-diagonal in ``full_offdiag`` mode.  A
    penalized column may have an empty group (n = 1 in ``full_offdiag``).
    """
    n = problem.n
    columns = np.ones(n, dtype=bool)
    if problem.mode is GgmMode.IMPORTANT_ROWS:
        important = list(problem.important_set)
        columns[important] = False
        mask = np.zeros((n, n), dtype=bool)
        mask[important] = columns
    else:
        mask = ~np.eye(n, dtype=bool)
    return columns, mask


def _masked_column_norms(mat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.where(mask, mat, 0.0), axis=0)


def compute_group_norms(omega, problem: GgmProblem) -> np.ndarray:
    """Per-column penalized group norms of a matrix (0.0 at unpenalized columns)."""
    return _masked_column_norms(_as_array(omega), _group_structure(problem)[1])


def penalized_objective(omega, delta, problem: GgmProblem) -> float:
    """Value of the penalized objective at (Omega, Delta).

    Raises ValueError if Omega is not positive definite (log det undefined).
    """
    om = _as_array(omega)
    de = _as_array(delta)
    sign, logdet = np.linalg.slogdet(om)
    if sign <= 0:
        raise ValueError("log det requires a positive definite matrix")
    value = logdet - float(np.sum(problem.sigma_hat * om))
    value -= problem.lam * float(np.sum((om - de) ** 2))
    if problem.tau > 0.0:
        columns, mask = _group_structure(problem)
        norms = _masked_column_norms(de, mask)[columns]
        value -= problem.tau * float(np.sum(eval_g(problem.g, norms)))
    return value


def _coefficient_matrix(sigma_hat: np.ndarray, delta: np.ndarray, lam: float) -> np.ndarray:
    a = sigma_hat / (2.0 * lam) - delta
    return 0.5 * (a + a.T)


def _subproblem_value(omega: np.ndarray, a_s: np.ndarray, lam: float) -> float:
    """Omega-block objective; -inf when Omega has no Cholesky factor (not PD).

    One factorization is both the positive definiteness test and the log
    determinant: log det(Omega) = 2 * sum(log diag(L)).
    """
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        return -np.inf
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    return logdet / (2.0 * lam) - float(np.sum(a_s * omega)) - 0.5 * float(np.sum(omega**2))


def update_precision_eig(sigma_hat, delta, lam: float) -> PrecisionMatrix:
    """Closed-form maximizer of the Omega block via eigendecomposition.

    With A_s = Q diag(a) Q^T, the stationarity condition
    1/(2*lam*w) - a - w = 0 has the unique positive root
    w = (-a + sqrt(a**2 + 2/lam)) / 2 per eigenvalue, so the solution is
    strictly positive definite by construction.  The least w is the result's
    ``min_eig``; the returned matrix still proves positive definiteness with
    its own Cholesky factorization.
    """
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    a_s = _coefficient_matrix(np.asarray(sigma_hat, dtype=float), _as_array(delta), lam)
    a, q = np.linalg.eigh(a_s)
    w = 0.5 * (-a + np.sqrt(a**2 + 2.0 / lam))
    omega = (q * w) @ q.T
    return PrecisionMatrix(0.5 * (omega + omega.T), min_eig=float(w.min()))


def update_precision(sigma_hat, delta, lam: float, eta: float = 0.1,
                     max_iter: int = 5000, tol: float = 1e-8,
                     omega0=None) -> PrecisionMatrix:
    """Gradient-ascent maximizer of the Omega block.

    Ascends f(Omega) = (1/2lam)*log det(Omega) - <A_s, Omega> - 0.5*||Omega||_F**2
    along its gradient G = (1/2lam)*Omega^-1 - A_s - Omega, symmetrizing each
    trial point.  This is a plain first-order route, kept as an independent
    check on the closed form of :func:`update_precision_eig`.

    The trial step is ``eta`` for the first step, then the Barzilai-Borwein
    step <s, s> / -<s, y> with s and y the last accepted changes in Omega and
    G; when -<s, y> <= 0 the previous step is kept.  The block Hessian is
    <= -I, so this step never exceeds 1.  Each trial is tested by one
    Cholesky factorization, which gives both positive definiteness and
    log det.  A trial that is not positive definite, or that lowers f by more
    than a rounding-level slack, halves the step (up to 40 times, down to a
    floor of 1e-18), so every accepted iterate is positive definite and
    ascends.

    Stops when ||G||_F drops to ``tol``, when no step scale ascends, or after
    ``max_iter`` gradient steps; in every case the last iterate is returned.
    :func:`solve_ggm` does not yet report an inner solve that stopped short
    of ``tol``.

    ``omega0`` seeds the ascent (identity by default); pass the previous
    iterate for warm starts.
    """
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    a_s = _coefficient_matrix(np.asarray(sigma_hat, dtype=float), _as_array(delta), lam)
    n = a_s.shape[0]
    omega = np.eye(n) if omega0 is None else _as_array(omega0).copy()
    value = _subproblem_value(omega, a_s, lam)
    step = eta
    previous = None  # (Omega, G) before the last accepted step
    for _ in range(max_iter):
        grad = np.linalg.inv(omega) / (2.0 * lam) - a_s - omega
        if not np.all(np.isfinite(grad)):
            raise NumericalError("precision update produced non-finite gradient")
        if float(np.linalg.norm(grad)) <= tol:
            break
        if previous is not None:
            s = omega - previous[0]
            curvature = -float(np.sum(s * (grad - previous[1])))
            if curvature > 0.0:
                step = float(np.sum(s * s)) / curvature
        # rounding-level slack: near the optimum the true ascent per step drops
        # below double precision and exact comparisons would stall the loop
        slack = 1e-12 * (1.0 + abs(value))
        accepted = False
        for _ in range(40):
            trial = omega + step * grad
            trial = 0.5 * (trial + trial.T)
            trial_value = _subproblem_value(trial, a_s, lam)
            # -inf marks a trial that is not PD; it must not pass against a
            # start value of -inf (an omega0 that is not PD)
            if trial_value > -np.inf and trial_value >= value - slack:
                previous = (omega, grad)
                omega, value = trial, max(trial_value, value)
                accepted = True
                break
            step *= 0.5
            if step < 1e-18:
                break
        if not accepted:
            break  # no productive step at any scale; gradient norm decides convergence
    if not np.all(np.isfinite(omega)):
        raise NumericalError("precision update produced non-finite iterate")
    return PrecisionMatrix(omega)


def update_auxiliary(omega, problem: GgmProblem, prox_tol: float = 1e-10) -> AuxMatrix:
    """Exact maximizer of the Delta block given Omega.

    Entries outside the group mask are copied from Omega.  Every penalized
    column group keeps its direction and has its norm shrunk by one batched
    call of the thresholding solver with weight tau/(2*lam); zero-norm
    groups stay zero.  There is no loop over columns: the groups are
    independent and each norm is thresholded on its own.
    """
    om = _as_array(omega)
    if problem.tau == 0.0:
        return AuxMatrix(om.copy())
    columns, mask = _group_structure(problem)
    norms = _masked_column_norms(om, mask)[columns]
    weight = problem.tau / (2.0 * problem.lam)
    alpha = solve_threshold_batch(norms, weight, problem.g, prox_tol).x_star
    scale = np.ones(problem.n)
    scale[columns] = np.divide(alpha, norms, out=np.ones_like(norms), where=norms > 0.0)
    return AuxMatrix(np.where(mask, om * scale, om))


def solve_ggm(problem: GgmProblem, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Run block-coordinate ascent on the penalized objective.

    Starts from Omega = Delta = diag(Sigma_hat)^-1 (diagonal entries floored
    at 1e-8 before inverting), alternates the precision and auxiliary block
    updates for up to ``opts.T`` sweeps, and records the penalized objective
    after each full sweep.  Declares convergence when consecutive Omega
    iterates differ by at most ``opts.outer_tol`` in Frobenius norm.
    """
    diag = np.maximum(np.diag(problem.sigma_hat), DIAG_JITTER)
    omega = np.diag(1.0 / diag)
    delta = omega.copy()

    current = problem
    trace = [(0, penalized_objective(omega, delta, current))]
    min_eigs = [float(np.min(1.0 / diag))]
    converged = False
    iterations = 0
    for t in range(1, opts.T + 1):
        if opts.precision_method is PrecisionMethod.EIGEN_CLOSED_FORM:
            precision = update_precision_eig(current.sigma_hat, delta, current.lam)
        else:
            precision = update_precision(
                current.sigma_hat, delta, current.lam, eta=opts.eta,
                max_iter=opts.inner_max_iter, tol=opts.inner_tol, omega0=omega,
            )
        delta = update_auxiliary(precision, current).delta
        trace.append((t, penalized_objective(precision, delta, current)))
        min_eigs.append(precision.min_eig)
        iterations = t
        change = float(np.linalg.norm(precision.omega - omega))
        omega = precision.omega
        if change <= opts.outer_tol:
            converged = True
            break
        if opts.lam_growth != 1.0:
            current = replace(current, lam=current.lam * opts.lam_growth)

    return SolverReport(
        omega_star=precision,
        objective_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        group_norms=compute_group_norms(omega, problem),
        min_eig_trace=np.asarray(min_eigs),
    )


def load_covariance(path) -> np.ndarray:
    """Read a covariance matrix from headerless CSV or JSON {"n", "data"}."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or not {"n", "data"} <= payload.keys():
            raise ValueError('covariance JSON must be an object with keys "n" and "data"')
        try:
            n = int(payload["n"])
            data = np.asarray(payload["data"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"covariance JSON: bad 'n' or 'data': {exc}") from exc
        if data.size != n * n:
            raise ValueError(f"covariance JSON: expected {n * n} values, got {data.size}")
        return data.reshape(n, n)
    mat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"covariance CSV must be square, got shape {mat.shape}")
    return mat
