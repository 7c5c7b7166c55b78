"""End-to-end orchestration: samples -> statistics -> GGM solve -> selection.

The pipeline consumes either a synthetic planted-structure problem (ground
truth known, used for validation) or a recorded score-stream dump, computes
node sample statistics, picks the important set from the sample mean, fits
the group-penalized precision matrix, and splits the remaining nodes into
solver-selected (large coupling to the important set) and frozen.

Planted problems start from the identity precision matrix, couple a block of
important nodes to a designated set of connected nodes with random-sign
entries of fixed magnitude, repair positive definiteness by a bounded
diagonal boost, and draw Gaussian samples from the inverse.  Samples are
shifted by a constant so all node values are nonnegative (covariance
unchanged), and the important columns get a constant mean boost so the
sample mean carries the block identity, mirroring how importance
concentrates on genuinely driving nodes.

Randomness: a single seeded generator (numpy PCG64 via default_rng) drives
sign choices and sampling, so fixed seed means bit-identical outputs.

Stage errors are re-raised with the stage name prefixed; independent runs
(different seeds or configs) can execute in parallel, a single run is
sequential.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ._inputs import integer, json_file, named, number, read_object, string
from .errors import NumericalError
from .ggm import (
    GgmMode,
    GgmProblem,
    SolverOptions,
    SolverReport,
    solve_ggm,
)
from .nodes import (
    SampleSet,
    ema_weight,
    read_score_dump,
    replay_scores,
    sample_statistics,
    select_important,
)
from .surrogates import SurrogateSpec

__all__ = [
    "SelectionResult",
    "PlantedProblem",
    "PipelineConfig",
    "PipelineResult",
    "select_trainable",
    "make_planted",
    "run_pipeline",
    "recovery_f1",
]

# diagonal PD repair gives up past this total boost; keeps "coupling too
# large" a detectable configuration error instead of masking it
MAX_DIAG_BOOST = 5.0
MIN_EIG_TARGET = 0.1


@dataclass(frozen=True)
class SelectionResult:
    """Final three-way split of the nodes.

    ``important_set`` came from the sample mean; ``solver_selected`` are the
    non-important nodes kept trainable for their coupling strength;
    ``frozen`` is everything else.  ``scores`` holds the per-node group
    norms of the fitted precision matrix (0.0 at important nodes).
    """

    important_set: tuple
    solver_selected: tuple
    frozen: tuple
    scores: np.ndarray = field(repr=False)

    def __post_init__(self):
        important = tuple(int(i) for i in self.important_set)
        selected = tuple(int(i) for i in self.solver_selected)
        frozen = tuple(int(i) for i in self.frozen)
        n = len(self.scores)
        seen = important + selected + frozen
        if len(set(seen)) != len(seen) or set(seen) != set(range(n)):
            raise ValueError("selection sets must partition the node range")
        object.__setattr__(self, "important_set", important)
        object.__setattr__(self, "solver_selected", selected)
        object.__setattr__(self, "frozen", frozen)
        scores = np.asarray(self.scores, dtype=float)
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    @property
    def trainable(self) -> tuple:
        return tuple(sorted(self.important_set + self.solver_selected))

    def to_json_dict(self) -> dict:
        return {
            "important_set": list(self.important_set),
            "solver_selected": list(self.solver_selected),
            "frozen": list(self.frozen),
            "scores": self.scores.tolist(),
        }


@dataclass(frozen=True)
class PlantedProblem:
    """Ground truth of a synthetic problem: the true precision and support."""

    omega_true: np.ndarray
    important_set: tuple
    true_connected: tuple
    seed: int
    m: int

    def __post_init__(self):
        omega = np.asarray(self.omega_true, dtype=float)
        important = tuple(int(i) for i in self.important_set)
        connected = tuple(int(i) for i in self.true_connected)
        if float(np.linalg.eigvalsh(omega)[0]) <= 0.0:
            raise ValueError("planted precision must be positive definite")
        stray = omega[list(important)] != 0.0
        stray[:, list(important + connected)] = False
        if stray.any():
            row, i = np.argwhere(stray)[0]
            raise ValueError(f"unexpected coupling at ({important[row]}, {i})")
        omega.flags.writeable = False
        object.__setattr__(self, "omega_true", omega)
        object.__setattr__(self, "important_set", important)
        object.__setattr__(self, "true_connected", connected)


def select_trainable(report: SolverReport, important_set, budget=None, threshold=None) -> SelectionResult:
    """Split non-important nodes by their fitted group norms.

    Exactly one criterion: ``budget`` keeps the given number of largest
    group norms (ties to the lower index), ``threshold`` keeps every node
    with norm strictly above it.
    """
    if (budget is None) == (threshold is None):
        raise ValueError("supply exactly one of budget or threshold")
    norms = np.asarray(report.group_norms, dtype=float)
    n = norms.size
    important = tuple(sorted(int(i) for i in important_set))
    if any(i < 0 or i >= n for i in important):
        raise ValueError(f"important set {important} out of range for n={n}")
    is_frozen = np.ones(n, dtype=bool)
    is_frozen[list(important)] = False
    candidates = np.flatnonzero(is_frozen)
    if budget is not None:
        budget = int(budget)
        if not 0 <= budget <= candidates.size:
            raise ValueError(f"budget {budget} outside [0, {candidates.size}]")
        # stable sort keeps lower indices first among equal norms, as select_important does
        ranked = candidates[np.argsort(-norms[candidates], kind="stable")]
        selected = np.sort(ranked[:budget])
    else:
        threshold = float(threshold)
        if not (math.isfinite(threshold) and threshold >= 0.0):
            raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
        selected = candidates[norms[candidates] > threshold]
    is_frozen[selected] = False
    return SelectionResult(
        important_set=important,
        solver_selected=selected,
        frozen=np.flatnonzero(is_frozen),
        scores=norms,
    )


def make_planted(n: int, h: int, k_connected: int, coupling: float, m: int, seed: int):
    """Build a planted-structure problem and its node-value samples.

    The true precision is the identity plus +-coupling entries between every
    (important, connected) pair, with a diagonal boost to push the smallest
    eigenvalue to MIN_EIG_TARGET.  Samples are zero-mean Gaussians with
    covariance inv(omega_true), shifted into the nonnegative range, with the
    important columns boosted by +1 so their sample mean stands out.
    """
    if n < 1 or h < 1 or k_connected < 0 or m < 1:
        raise ValueError("n, h and m must be >= 1 and k_connected >= 0")
    if h + k_connected > n:
        raise ValueError(f"h + k_connected = {h + k_connected} exceeds n = {n}")
    if not (math.isfinite(coupling) and coupling >= 0.0):
        raise ValueError(f"coupling must be finite and >= 0, got {coupling}")

    rng = np.random.default_rng(seed)
    important = tuple(range(h))
    connected = tuple(range(h, h + k_connected))

    omega = np.eye(n)
    block = rng.choice([-1.0, 1.0], size=(h, k_connected)) * coupling
    omega[:h, h:h + k_connected] = block
    omega[h:h + k_connected, :h] = block.T

    min_eig = float(np.linalg.eigvalsh(omega)[0])
    if min_eig < MIN_EIG_TARGET:
        boost = MIN_EIG_TARGET - min_eig
        if boost > MAX_DIAG_BOOST:
            raise ValueError(
                f"planted precision not PD: coupling {coupling} needs diagonal boost "
                f"{boost:.3f} > {MAX_DIAG_BOOST} (coupling too large)"
            )
        omega = omega + boost * np.eye(n)

    cov_true = np.linalg.inv(omega)
    cov_true = 0.5 * (cov_true + cov_true.T)
    try:
        chol = np.linalg.cholesky(cov_true)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("planted covariance factorization failed") from exc
    draws = rng.standard_normal((m, n)) @ chol.T
    # constant column shifts leave the covariance untouched
    offset = 1.0 - min(float(draws.min()), 0.0)
    values = draws + offset
    values[:, list(important)] += 1.0

    problem = PlantedProblem(
        omega_true=omega,
        important_set=important,
        true_connected=connected,
        seed=seed,
        m=m,
    )
    names = tuple(f"N{i}" for i in range(n))
    return problem, SampleSet(values=values, names=names)


def _selection(payload) -> dict:
    chosen = read_object(payload, "selection", {"budget": integer, "threshold": number})
    return {"selection_budget": chosen.get("budget"),
            "selection_threshold": chosen.get("threshold")}


# config key -> reader; a reader's result goes to the field of the same name,
# except where _CONFIG_FIELDS renames it ("selection" fills two fields)
_CONFIG_READERS = {
    "mode": string, "h": integer, "surrogate": SurrogateSpec.from_config, "tau": number,
    "lambda": number, "selection": _selection, "solver": SolverOptions.from_json_dict,
    "n": integer, "k_connected": integer, "coupling": number, "m": integer, "seed": integer,
    "dump": string, "beta1": ema_weight, "beta2": ema_weight, "ggm_mode": GgmMode,
}
_CONFIG_FIELDS = {"lambda": "lam", "dump": "dump_dir"}


@dataclass(frozen=True)
class PipelineConfig:
    """Validated run configuration; mirrors the JSON config file."""

    mode: str
    h: int
    surrogate: SurrogateSpec
    tau: float
    lam: float
    selection_budget: int = None
    selection_threshold: float = None
    n: int = None
    k_connected: int = None
    coupling: float = None
    m: int = None
    seed: int = 0
    dump_dir: str = None
    beta1: float = 0.85
    beta2: float = 0.85
    solver: SolverOptions = field(default_factory=SolverOptions)
    ggm_mode: GgmMode = GgmMode.IMPORTANT_ROWS

    def __post_init__(self):
        if self.mode not in ("planted", "dump"):
            raise ValueError(f"mode must be 'planted' or 'dump', got {self.mode!r}")
        if (self.selection_budget is None) == (self.selection_threshold is None):
            raise ValueError("selection needs exactly one of budget or threshold")
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.mode == "planted":
            for name in ("n", "k_connected", "coupling", "m"):
                if getattr(self, name) is None:
                    raise ValueError(f"planted mode requires {name!r}")
            if self.m < 2:
                raise ValueError("planted mode needs m >= 2 for a covariance")
            if self.seed < 0:
                raise ValueError(f"planted mode needs seed >= 0, got {self.seed}")
        else:
            if self.dump_dir is None:
                raise ValueError("dump mode requires 'dump' (directory path)")
        object.__setattr__(self, "ggm_mode", GgmMode(self.ggm_mode))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PipelineConfig":
        """Read a config object with one reader per key (``_CONFIG_READERS``).

        Integer keys take JSON integers only and number keys JSON numbers
        only (never a boolean or a string); ``selection``, ``solver`` and
        ``surrogate`` are objects read the same way.  Unknown keys, missing
        required keys and values of the wrong type raise ValueError naming
        the key.
        """
        read = read_object(payload, "config", _CONFIG_READERS,
                           required=("mode", "h", "surrogate", "tau", "lambda", "selection"))
        kwargs = {_CONFIG_FIELDS.get(key, key): value for key, value in read.items()}
        kwargs.update(kwargs.pop("selection"))
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        payload = json_file(path)
        with named(path):
            return cls.from_json_dict(payload)

    def to_json_dict(self) -> dict:
        payload = {
            "mode": self.mode,
            "h": self.h,
            "surrogate": self.surrogate.to_config(),
            "tau": self.tau,
            "lambda": self.lam,
            "seed": self.seed,
            "solver": self.solver.to_json_dict(),
            "ggm_mode": self.ggm_mode.value,
        }
        if self.selection_budget is not None:
            payload["selection"] = {"budget": self.selection_budget}
        else:
            payload["selection"] = {"threshold": self.selection_threshold}
        if self.mode == "planted":
            payload.update(n=self.n, k_connected=self.k_connected, coupling=self.coupling, m=self.m)
        else:
            payload.update(dump=self.dump_dir, beta1=self.beta1, beta2=self.beta2)
        return payload


@dataclass(frozen=True)
class PipelineResult:
    """Everything a run produces, for callers and the CLI writers."""

    selection: SelectionResult
    report: SolverReport
    samples: SampleSet
    mean: np.ndarray = field(repr=False)
    planted: PlantedProblem = None


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ValueError, NumericalError, OSError) as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the full selection pipeline for one configuration."""
    planted = None
    if config.mode == "planted":
        with _stage("data"):
            planted, samples = make_planted(
                config.n, config.h, config.k_connected, config.coupling, config.m, config.seed,
            )
    else:
        with _stage("data"):
            steps = read_score_dump(config.dump_dir)
            samples = replay_scores(steps, config.beta1, config.beta2)

    with _stage("statistics"):
        mean, cov = sample_statistics(samples)

    with _stage("importance"):
        important_set = select_important(mean, config.h)

    with _stage("solve"):
        problem = GgmProblem(
            sigma_hat=cov,
            important_set=important_set,
            tau=config.tau,
            lam=config.lam,
            g=config.surrogate,
            mode=config.ggm_mode,
        )
        report = solve_ggm(problem, config.solver)

    with _stage("selection"):
        selection = select_trainable(
            report,
            important_set,
            budget=config.selection_budget,
            threshold=config.selection_threshold,
        )

    return PipelineResult(
        selection=selection,
        report=report,
        samples=samples,
        mean=mean,
        planted=planted,
    )


def recovery_f1(predicted, truth) -> float:
    """F1 of a predicted index set against the true connected set."""
    predicted = set(int(i) for i in predicted)
    truth = set(int(i) for i in truth)
    if not predicted and not truth:
        return 1.0
    hits = len(predicted & truth)
    if hits == 0:
        return 0.0
    precision = hits / len(predicted)
    recall = hits / len(truth)
    return 2.0 * precision * recall / (precision + recall)
