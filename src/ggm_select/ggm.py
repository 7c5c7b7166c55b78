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

The group structure is built once per problem, as the set of penalized
columns plus a boolean mask of their group entries.  Group norms, the
objective's group term and the Delta block all read it as array code,
with no loop over columns.

Both block updates maximize their block exactly (or to inner tolerance), so
the penalized objective is nondecreasing across a sweep and Omega iterates
stay strictly positive definite.

A sweep is the fixed-point map
Delta -> update_auxiliary(update_precision*(Delta)), which contracts slowly
(about 0.95 per sweep on the reference problems).  :func:`solve_ggm`
accelerates it with type-II Anderson mixing (Walker & Ni, SIAM J. Numer.
Anal. 2011) of depth ``ANDERSON_DEPTH``: the next base Delta is
extrapolated from the last residual differences.  An
extrapolated base is kept only if its sweep does not lower the objective and
does not raise the residual norm, a safeguard in the spirit of Zhang,
O'Donoghue & Boyd (SIAM J. Optim. 2020); otherwise the plain sweep is taken
and the history restarts.  So the objective trace stays nondecreasing and
every recorded Omega is the precision block's exact maximizer for its base.

A solve is a sequential state machine over immutable inputs; problems and
reports can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from ._inputs import integer, json_file, named, number, number_array, number_table, read_object
from .errors import NumericalError
# solve_threshold is unused here but must stay importable as
# ggm.solve_threshold: perfbench/tracer.py wraps that attribute by name
# (tests/test_tracer_targets.py checks every attribute the tracer wraps)
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
# residual differences kept by the Anderson mixing of solve_ggm's sweeps
ANDERSON_DEPTH = 4


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
    ``columns`` and ``mask`` are the group structure (see
    :func:`_group_structure`), built once and read-only.
    """

    sigma_hat: np.ndarray
    important_set: tuple
    tau: float
    lam: float
    g: SurrogateSpec
    mode: GgmMode = GgmMode.IMPORTANT_ROWS
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = _square_finite(self.sigma_hat, "covariance")
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
        _check_lam(self.lam)
        for name, array in zip(("columns", "mask"), _group_structure(n, idx, self.mode)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return self.sigma_hat.shape[0]


def _check_lam(lam) -> None:
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")


def _square_finite(mat, what: str) -> np.ndarray:
    """``mat`` as a float array; ``what`` names it in the refusal of a non-square or non-finite one."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} contains non-finite entries")
    return mat


@dataclass(frozen=True)
class PrecisionMatrix:
    """A symmetric, strictly positive definite matrix and its smallest eigenvalue.

    Positive definiteness is proved by one Cholesky factorization.  A caller
    that already knows the smallest eigenvalue passes it as ``min_eig`` (the
    eigen route passes the least eigenvalue of its closed form); otherwise it
    is computed with ``eigvalsh``.  Either way it must be finite and > 0.
    A caller that knows log det(Omega) passes it as ``logdet`` (the eigen
    route passes the sum of the logs of its eigenvalues), and
    :func:`penalized_objective` uses it instead of ``slogdet``.

    One construction skips the finiteness and symmetry checks:
    :func:`update_precision_eig` builds its closed form through
    ``_closed_form``, because it symmetrizes that array itself from
    finite eigenpairs.  It still proves positive definiteness by Cholesky
    and checks ``min_eig``.
    """

    omega: np.ndarray
    min_eig: float = field(default=None, repr=False)
    logdet: float = field(default=None, repr=False)

    def __post_init__(self):
        om = _square_finite(self.omega, "precision matrix")
        asym = float(np.max(np.abs(om - om.T)))
        if asym > 1e-8:
            raise ValueError(f"precision matrix not symmetric (max asymmetry {asym:.3e})")
        self._certify(om, self.min_eig)

    def _certify(self, om: np.ndarray, min_eig) -> None:
        """Prove ``om`` positive definite, check ``min_eig`` and store both, ``om`` read-only."""
        try:
            np.linalg.cholesky(om)
        except np.linalg.LinAlgError:
            raise ValueError("precision matrix is not positive definite") from None
        min_eig = float(np.linalg.eigvalsh(om)[0]) if min_eig is None else min_eig
        if not (math.isfinite(min_eig) and min_eig > 0.0):
            raise ValueError(f"precision matrix min_eig must be finite and > 0, got {min_eig}")
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "min_eig", float(min_eig))

    @classmethod
    def _closed_form(cls, omega: np.ndarray, min_eig: float, logdet: float) -> "PrecisionMatrix":
        """The matrix of a finite, exactly symmetric float array, not re-checked for either."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "logdet", logdet)
        matrix._certify(omega, min_eig)
        return matrix

    @property
    def n(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class AuxMatrix:
    """The auxiliary variable tied to Omega by the quadratic penalty."""

    delta: np.ndarray

    def __post_init__(self):
        d = _square_finite(self.delta, "auxiliary matrix")
        d.flags.writeable = False
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_ggm`; defaults match the CLI documentation."""

    T: int = 200
    # gradient route only: inner_tol is the gradient-norm stop of
    # update_precision and inner_max_iter its step cap
    inner_tol: float = 1e-8
    inner_max_iter: int = 5000
    outer_tol: float = 1e-7
    precision_method: PrecisionMethod = PrecisionMethod.EIGEN_CLOSED_FORM

    def __post_init__(self):
        for name, value in read_object(vars(self), "solver", _SOLVER_READERS).items():
            object.__setattr__(self, name, value)
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be >= 1")
        # JSON configs parse NaN and Infinity
        if not all(0.0 < v < math.inf for v in (self.inner_tol, self.outer_tol)):
            raise ValueError("inner_tol and outer_tol must be finite and > 0")

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SolverOptions":
        """Build from a config's ``solver`` object; unknown keys are refused."""
        return cls(**read_object(payload, "solver", _SOLVER_READERS))

    def to_json_dict(self) -> dict:
        return {**asdict(self), "precision_method": self.precision_method.value}


_SOLVER_READERS = {
    "T": integer, "inner_tol": number, "inner_max_iter": integer,
    "outer_tol": number, "precision_method": PrecisionMethod,
}


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
        """The ``report.json`` payload; ``omega`` and ``group_norms`` stay 1-D arrays.

        ``omega`` is the flat view ``omega_star.omega.ravel()`` (a copy only
        for a matrix not C-ordered) and ``group_norms`` is the report's own
        array.  The CLI's writer encodes each array block by
        block, so an n x n matrix is never n^2 Python floats at once; a
        library caller gets the same JSON text from
        ``json.dumps(payload, default=np.ndarray.tolist)``.
        """
        return {
            "omega": self.omega_star.omega.ravel(),
            "objective_trace": [[int(t), float(v)] for t, v in self.objective_trace],
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "group_norms": self.group_norms,
        }


def _group_structure(n: int, important_set: tuple, mode: GgmMode) -> tuple:
    """The penalized columns and the boolean mask of their group entries.

    ``mask[r, c]`` is True when entry (r, c) belongs to the penalized group of
    column c: rows ``important_set`` of the non-important columns in
    ``important_rows`` mode, the off-diagonal in ``full_offdiag`` mode.  A
    penalized column may have an empty group (n = 1 in ``full_offdiag``).
    """
    columns = np.ones(n, dtype=bool)
    if mode is GgmMode.IMPORTANT_ROWS:
        important = list(important_set)
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
    return _masked_column_norms(_as_array(omega), problem.mask)


def penalized_objective(omega, delta, problem: GgmProblem) -> float:
    """Value of the penalized objective at (Omega, Delta).

    log det(Omega) is a ``PrecisionMatrix``'s ``logdet`` when it carries one,
    otherwise ``slogdet``.  Raises ValueError if Omega is not positive
    definite (log det undefined).
    """
    om = _as_array(omega)
    de = _as_array(delta)
    logdet = omega.logdet if isinstance(omega, PrecisionMatrix) else None
    if logdet is None:
        sign, logdet = np.linalg.slogdet(om)
        if sign <= 0:
            raise ValueError("log det requires a positive definite matrix")
    value = logdet - float(np.sum(problem.sigma_hat * om))
    value -= problem.lam * float(np.sum((om - de) ** 2))
    if problem.tau > 0.0:
        norms = _masked_column_norms(de, problem.mask)[problem.columns]
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
    ``min_eig`` and the sum of log w its ``logdet``; the returned matrix still
    proves positive definiteness with its own Cholesky factorization.  With
    finite eigenvalues (``eigh`` saw a finite matrix), it is built by the
    one construction that skips the finiteness and symmetry checks.
    """
    _check_lam(lam)
    a_s = _coefficient_matrix(np.asarray(sigma_hat, dtype=float), _as_array(delta), lam)
    a, q = np.linalg.eigh(a_s)
    w = 0.5 * (-a + np.sqrt(a**2 + 2.0 / lam))
    omega = (q * w) @ q.T
    omega = 0.5 * (omega + omega.T)
    min_eig, logdet = float(w.min()), float(np.sum(np.log(w)))
    build = PrecisionMatrix._closed_form if math.isfinite(logdet) else PrecisionMatrix
    return build(omega, min_eig, logdet)


def update_precision(sigma_hat, delta, lam: float, max_iter: int = 5000, tol: float = 1e-8,
                     omega0=None) -> PrecisionMatrix:
    """Gradient-ascent maximizer of the Omega block.

    Ascends f(Omega) = (1/2lam)*log det(Omega) - <A_s, Omega> - 0.5*||Omega||_F**2
    along its gradient G = (1/2lam)*Omega^-1 - A_s - Omega, symmetrizing each
    trial point.  This is a plain first-order route, kept as an independent
    check on the closed form of :func:`update_precision_eig`.

    The trial step is 0.1 for the first step, then the Barzilai-Borwein
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
    _check_lam(lam)
    a_s = _coefficient_matrix(np.asarray(sigma_hat, dtype=float), _as_array(delta), lam)
    n = a_s.shape[0]
    omega = np.eye(n) if omega0 is None else _as_array(omega0).copy()
    value = _subproblem_value(omega, a_s, lam)
    step = 0.1
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


def update_auxiliary(omega, problem: GgmProblem) -> AuxMatrix:
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
    norms = _masked_column_norms(om, problem.mask)[problem.columns]
    weight = problem.tau / (2.0 * problem.lam)
    alpha = solve_threshold_batch(norms, weight, problem.g).x_star
    scale = np.ones(problem.n)
    scale[problem.columns] = np.divide(alpha, norms, out=np.ones_like(norms), where=norms > 0.0)
    return AuxMatrix(np.where(problem.mask, om * scale, om))


class _Mixing:
    """Type-II Anderson mixing (Walker & Ni 2011) of the sweep map G.

    G maps Delta to ``update_auxiliary(update_precision*(Delta))`` and depends
    on Delta only through sym(Delta), so every vector here is the packed upper
    triangle of a symmetric matrix, n(n+1)/2 values.  For each evaluated base
    x the history keeps g = G(x) and the residual f = g - x; the rows of
    ``_dg`` and ``_df`` are the differences of consecutive g and f, the last
    ``depth`` of them, in a ring.  The two (depth, n(n+1)/2) arrays are
    allocated once and stored in float32: the evaluations and the least
    squares problem stay in float64, and the caller tests every extrapolated
    base before accepting it.
    """

    def __init__(self, delta: np.ndarray, depth: int):
        self._upper = np.triu(np.ones(delta.shape, dtype=bool))
        self._g = self._pack(delta)
        self._f = None
        self._dg = np.empty((depth, self._g.size), dtype=np.float32)
        self._df = np.empty_like(self._dg)
        self._rows = 0  # difference rows held
        self._ring = 0  # the row the next difference overwrites

    def _pack(self, mat: np.ndarray) -> np.ndarray:
        """The packed upper triangle of sym(mat)."""
        packed = mat[self._upper]
        packed += mat.T[self._upper]
        packed *= 0.5
        return packed

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """The symmetric matrix whose packed upper triangle is ``x``."""
        mat = np.empty(self._upper.shape)
        mat[self._upper] = x
        mat.T[self._upper] = x
        return mat

    def clear(self) -> None:
        """Forget every residual; the last g stays the next plain sweep's base."""
        self._f = None
        self._rows = 0

    def record(self, delta: np.ndarray, base: np.ndarray = None) -> bool:
        """Record g = G(base) = ``delta``; ``base`` (packed) defaults to the last g.

        An extrapolated ``base`` whose residual norm exceeds the last
        recorded one is refused: nothing is recorded and False is returned.
        """
        g = self._pack(delta)
        f = g - (self._g if base is None else base)
        if base is not None and np.linalg.norm(f) > np.linalg.norm(self._f):
            return False
        if self._f is not None:
            np.subtract(g, self._g, out=self._dg[self._ring], casting="same_kind")
            np.subtract(f, self._f, out=self._df[self._ring], casting="same_kind")
            self._ring = (self._ring + 1) % len(self._df)
            self._rows = min(self._rows + 1, len(self._df))
        self._g, self._f = g, f
        return True

    def extrapolate(self):
        """The packed base g - dG gamma, or None until every history row is filled.

        gamma minimizes ||f - dF gamma||: it solves the depth x depth least
        squares problem on the Gram matrix of dF.  The products go row by
        row, so no float64 copy of a history array is made.
        """
        depth = len(self._df)
        if self._rows < depth:
            return None
        gram = np.empty((depth, depth))
        rhs = np.empty(depth)
        for i in range(depth):
            row = self._df[i].astype(float)
            rhs[i] = row @ self._f
            for j in range(i + 1):
                gram[i, j] = gram[j, i] = row @ self._df[j]
        x = self._g.copy()
        for coefficient, row in zip(np.linalg.lstsq(gram, rhs, rcond=None)[0], self._dg):
            x -= coefficient * row
        return x


def solve_ggm(problem: GgmProblem, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Run block-coordinate ascent on the penalized objective, with Anderson mixing.

    Starts from Omega = Delta = diag(Sigma_hat)^-1 (diagonal entries floored
    at 1e-8 before inverting).  Each iteration evaluates the sweep map once
    at a base Delta: the precision block update (the gradient route warm
    starts from the last Omega), then the auxiliary block update, then the
    penalized objective; it records that (Omega, Delta) pair and its
    objective.  ``iterations`` counts the recorded pairs, at most ``opts.T``.

    The base is the last recorded Delta (a plain sweep) until the mixing
    history holds ``ANDERSON_DEPTH`` residual differences; then it is the
    Anderson extrapolation of the history.  An extrapolated base is accepted
    only if its objective is at least the last recorded one (no slack), so
    the trace is nondecreasing, and if its residual norm ||G(x) - x|| is at
    most the last recorded one, which on an objective without a maximizer
    (a rank-deficient Sigma_hat) keeps it from running Omega off.  A refused
    base's evaluation is discarded: the plain sweep from the last recorded
    Delta is taken (one extra evaluation) and the history is cleared; the
    next extrapolation waits for the refill, ``ANDERSON_DEPTH`` + 1 sweeps, and
    each further refusal with none accepted in between doubles that wait, so
    refusing every one costs O(log T) extra evaluations.  The benchmark dump
    refuses every one, but not for its rank: with a 10 % ridge (full rank)
    it still does, its Sigma_hat rescaled to unit trace converges in 92
    sweeps, and at its tr/n of 0.008 lambda = 1 acts as 1.6e4 would at 1.

    Declares convergence when consecutive recorded Omega iterates differ by
    at most ``opts.outer_tol`` in Frobenius norm.
    """
    diag = np.maximum(np.diag(problem.sigma_hat), DIAG_JITTER)
    precision = PrecisionMatrix(np.diag(1.0 / diag), min_eig=float(np.min(1.0 / diag)),
                                logdet=-float(np.sum(np.log(diag))))
    delta = precision.omega.copy()
    trace = [(0, penalized_objective(precision, delta, problem))]
    min_eigs = [precision.min_eig]
    mixing = _Mixing(delta, ANDERSON_DEPTH)

    def sweep(base):
        if opts.precision_method is PrecisionMethod.EIGEN_CLOSED_FORM:
            omega = update_precision_eig(problem.sigma_hat, base, problem.lam)
        else:
            omega = update_precision(
                problem.sigma_hat, base, problem.lam,
                max_iter=opts.inner_max_iter, tol=opts.inner_tol, omega0=precision,
            )
        aux = update_auxiliary(omega, problem).delta
        return omega, aux, penalized_objective(omega, aux, problem)

    converged = False
    iterations = 0
    refused = 0  # extrapolations refused since the last accepted one
    retry = 0  # the first iteration that may extrapolate again
    for t in range(1, opts.T + 1):
        step = None
        base = mixing.extrapolate() if t >= retry else None
        if base is not None:
            step = sweep(mixing.unpack(base))
            # the safeguard: no lower objective (a NaN fails too), no larger residual
            if step[2] >= trace[-1][1] and mixing.record(step[1], base):
                refused = 0
            else:
                step = None
                mixing.clear()
                refused += 1
                # the refill alone takes depth + 1 sweeps; each refusal in a row doubles the wait
                retry = t + (ANDERSON_DEPTH + 1) * 2 ** (refused - 1)
        if step is None:
            step = sweep(delta)
            mixing.record(step[1])
        change = float(np.linalg.norm(step[0].omega - precision.omega))
        precision, delta, value = step
        trace.append((t, value))
        min_eigs.append(precision.min_eig)
        iterations = t
        if change <= opts.outer_tol:
            converged = True
            break

    return SolverReport(
        omega_star=precision,
        objective_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        group_norms=compute_group_norms(precision, problem),
        min_eig_trace=np.asarray(min_eigs),
    )


def load_covariance(path) -> np.ndarray:
    """Read a covariance matrix from headerless CSV or JSON {"n", "data"}."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = json_file(path)
        with named(path):
            payload = read_object(
                payload, "covariance JSON",
                {"n": integer, "data": number_array},
                required=("n", "data"), closed=False,
            )
            n, data = payload["n"], payload["data"]
            if data.size != n * n:
                raise ValueError(f"covariance JSON: expected {n * n} values, got {data.size}")
        return data.reshape(n, n)
    mat = number_table(path, "covariance CSV")
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"covariance CSV {path}: must be square, got shape {mat.shape}")
    return mat
