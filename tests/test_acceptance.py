"""End-to-end acceptance gate.

Each test exercises one released behavior at its stated tolerance and prints
a single [PASS]/[FAIL] line (run with -s to see them all).  Tolerances here
are pinned; loosening them is a release decision, not a test fix.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ggm_select.cli import main as cli_main
from ggm_select.ggm import (
    GgmMode,
    GgmProblem,
    SolverOptions,
    solve_ggm,
    update_precision,
    update_precision_eig,
)
from ggm_select.nodes import ImportanceState, decompose_layer, replay_scores, sensitivity, update_score
from ggm_select.nodes import TensorKey
from ggm_select.pipeline import PipelineConfig, make_planted, recovery_f1, run_pipeline
from ggm_select.nodes import sample_statistics
from ggm_select.scalar_prox import (
    ProxProblem,
    apply_threshold,
    oracle_threshold,
    prox_objective,
    solve_threshold,
)
from ggm_select.surrogates import SurrogateSpec

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"

GOLDEN_PHI = (np.sqrt(5.0) - 1.0) / 2.0

# frozen sweep outcomes for the reference configuration, seeds 0-9
GOLDEN_IMPORTANT = (0, 1, 2)
GOLDEN_SELECTED = {seed: (3, 4, 5, 6) for seed in range(10)}


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description} {detail}".rstrip()


def _random_spd(rng, n, scale=1.0):
    root = rng.standard_normal((n, 2 * n))
    sigma = root @ root.T / (2 * n) * scale
    return 0.5 * (sigma + sigma.T) + 0.05 * np.eye(n)


def _random_surrogate(rng):
    kind = rng.integers(0, 6)
    if kind == 0:
        return SurrogateSpec.lp(float(rng.uniform(0.3, 0.9)))
    if kind == 1:
        return SurrogateSpec.geman(float(rng.uniform(0.2, 2.0)))
    if kind == 2:
        return SurrogateSpec.laplace(float(rng.uniform(0.3, 2.0)))
    if kind == 3:
        return SurrogateSpec.log(float(rng.uniform(0.5, 2.0)))
    if kind == 4:
        return SurrogateSpec.logarithm(float(rng.uniform(0.5, 3.0)))
    return SurrogateSpec.etp(float(rng.uniform(0.3, 3.0)))


def test_criterion_1_threshold_matches_oracle():
    description = "scalar threshold beats a grid oracle on 500 randomized cases"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(101)
        worst_f_gap = 0.0
        worst_dx = 0.0
        start = time.monotonic()
        for case in range(500):
            y = 0.0 if case % 97 == 0 else float(rng.uniform(0.0, 8.0))
            lam = float(rng.uniform(0.05, 4.0))
            problem = ProxProblem(y=y, lam=lam, g=_random_surrogate(rng))
            solution = solve_threshold(problem)
            reference = oracle_threshold(problem, grid_step=1e-4)
            f_gap = prox_objective(problem, solution.x_star) - prox_objective(problem, reference)
            worst_f_gap = max(worst_f_gap, f_gap)
            worst_dx = max(worst_dx, abs(solution.x_star - reference))
        elapsed = time.monotonic() - start
        detail = f"(worst f gap {worst_f_gap:.2e}, worst |dx| {worst_dx:.2e}, {elapsed:.1f}s)"
        ok = worst_f_gap <= 1e-8 and worst_dx <= 1e-5 and elapsed < 60.0
    finally:
        _report(1, description, ok, detail)


def test_criterion_2_identity_is_soft_threshold():
    description = "identity surrogate reduces to exact soft thresholding (1000 cases)"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(102)
        identity = SurrogateSpec.identity()
        worst = 0.0
        for _ in range(1000):
            y = float(rng.uniform(-10.0, 10.0))
            lam = float(rng.uniform(0.01, 8.0))
            got = apply_threshold(y, lam, identity)
            want = np.sign(y) * max(abs(y) - lam, 0.0)
            worst = max(worst, abs(got - want))
        detail = f"(worst error {worst:.2e})"
        ok = worst <= 1e-12
    finally:
        _report(2, description, ok, detail)


def test_criterion_3_gradient_and_eigen_updates_agree():
    description = "gradient and eigenvalue precision updates agree on 50 random problems"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(103)
        worst_gap = 0.0
        worst_grad = 0.0
        for case in range(50):
            n = (5, 20, 40)[case % 3]
            sigma = _random_spd(rng, n)
            delta = rng.standard_normal((n, n)) * 0.3
            lam = float(rng.uniform(0.1, 2.0))
            closed = update_precision_eig(sigma, delta, lam).omega
            iterated = update_precision(sigma, delta, lam, tol=1e-8, max_iter=20000).omega
            worst_gap = max(worst_gap, float(np.linalg.norm(closed - iterated)))
            a = sigma / (2.0 * lam) - delta
            a_s = 0.5 * (a + a.T)
            grad = np.linalg.inv(closed) / (2.0 * lam) - a_s - closed
            worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
        detail = f"(worst route gap {worst_gap:.2e}, worst stationarity {worst_grad:.2e})"
        ok = worst_gap <= 1e-5 and worst_grad <= 1e-8
    finally:
        _report(3, description, ok, detail)


def test_criterion_4_identity_covariance_golden():
    description = "identity-covariance precision update hits the golden-ratio point"
    ok = False
    detail = ""
    try:
        omega = update_precision_eig(np.eye(3), np.zeros((3, 3)), 0.5).omega
        err = float(np.max(np.abs(omega - GOLDEN_PHI * np.eye(3))))
        detail = f"(max error {err:.2e})"
        ok = err <= 1e-8
    finally:
        _report(4, description, ok, detail)


def test_criterion_5_ascent_and_positive_definiteness():
    description = "objective ascends and iterates stay positive definite on 30 solves"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(105)
        worst_drop = 0.0
        min_eig_seen = np.inf
        slowest = 0.0
        opts = SolverOptions(T=60)

        problems = []
        for case in range(20):
            n = int(rng.integers(5, 41))
            h = int(rng.integers(1, max(2, n // 4)))
            important = tuple(sorted(rng.choice(n, size=h, replace=False).tolist()))
            problems.append(GgmProblem(
                sigma_hat=_random_spd(rng, n),
                important_set=important,
                tau=float(rng.uniform(0.05, 0.5)),
                lam=float(rng.uniform(0.5, 2.0)),
                g=_random_surrogate(rng),
            ))
        for case in range(10):
            n = int(rng.integers(10, 31))
            h = int(rng.integers(1, 4))
            k = int(rng.integers(0, min(5, n - h) + 1))
            _, samples = make_planted(n=n, h=h, k_connected=k,
                                      coupling=float(rng.uniform(0.1, 0.5)),
                                      m=300, seed=int(rng.integers(0, 10_000)))
            _, cov = sample_statistics(samples)
            problems.append(GgmProblem(
                sigma_hat=cov,
                important_set=tuple(range(h)),
                tau=float(rng.uniform(0.05, 0.5)),
                lam=1.0,
                g=_random_surrogate(rng),
            ))

        for problem in problems:
            start = time.monotonic()
            report = solve_ggm(problem, opts)
            slowest = max(slowest, time.monotonic() - start)
            values = [v for _, v in report.objective_trace]
            drops = [values[i] - values[i + 1] for i in range(len(values) - 1)]
            worst_drop = max(worst_drop, max(drops, default=0.0))
            min_eig_seen = min(min_eig_seen, min(report.min_eig_trace))
        detail = (f"(worst objective drop {worst_drop:.2e}, min eigenvalue "
                  f"{min_eig_seen:.2e}, slowest solve {slowest:.1f}s)")
        ok = worst_drop <= 1e-9 and min_eig_seen > 0.0 and slowest < 10.0
    finally:
        _report(5, description, ok, detail)


def test_criterion_6_unpenalized_limit_recovers_inverse():
    description = "unpenalized solver recovers the inverse covariance"
    ok = False
    detail = ""
    try:
        problem = GgmProblem(
            sigma_hat=np.diag([2.0, 1.0]),
            important_set=(0,),
            tau=0.0,
            lam=50.0,
            g=SurrogateSpec.geman(0.5),
        )
        report = solve_ggm(problem, SolverOptions(T=500))
        err = float(np.max(np.abs(report.omega_star.omega - np.diag([0.5, 1.0]))))
        detail = f"(max error {err:.2e})"
        ok = err <= 1e-2
    finally:
        _report(6, description, ok, detail)


def test_criterion_7_planted_recovery_sweep():
    description = "planted-structure sweep recovers connected nodes (10 seeds, frozen outcomes)"
    ok = False
    detail = ""
    try:
        base = PipelineConfig.from_json_file(REFERENCE_CONFIG)
        assert base.selection_budget is not None
        start = time.monotonic()
        total_f1 = 0.0
        outcomes_match = True
        for seed in range(10):
            result = run_pipeline(replace(base, seed=seed))
            total_f1 += recovery_f1(result.selection.solver_selected,
                                    result.planted.true_connected)
            if result.selection.important_set != GOLDEN_IMPORTANT:
                outcomes_match = False
            if result.selection.solver_selected != GOLDEN_SELECTED[seed]:
                outcomes_match = False
        elapsed = time.monotonic() - start
        average = total_f1 / 10.0
        detail = f"(average F1 {average:.3f}, goldens match {outcomes_match}, {elapsed:.1f}s)"
        ok = average >= 0.8 and outcomes_match and elapsed < 120.0
    finally:
        _report(7, description, ok, detail)


def test_criterion_8_scoring_closed_forms_and_energy():
    description = "importance scoring closed forms and decomposition energy identities"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(108)

        # dead EMAs produce exactly zero node values
        step = {
            TensorKey(0, "A", 0): sensitivity(rng.standard_normal(4), rng.standard_normal(4)),
            TensorKey(0, "B", 0): sensitivity(rng.standard_normal(3), rng.standard_normal(3)),
            TensorKey(0, "b"): sensitivity(rng.standard_normal(4), rng.standard_normal(4)),
        }
        dead = replay_scores([step], beta1=0.0, beta2=0.0)
        zeros_ok = bool(np.all(dead.values == 0.0))

        # one update from the zero state follows the closed forms exactly
        closed_ok = True
        for _ in range(20):
            beta1 = float(rng.uniform(0.0, 0.99))
            beta2 = float(rng.uniform(0.0, 0.99))
            sens = rng.uniform(0.0, 5.0, size=6)
            state = ImportanceState.zeros((6,), beta1=beta1, beta2=beta2)
            state, score = update_score(state, sens)
            mean_want = (1.0 - beta1) * sens
            spread_want = (1.0 - beta2) * np.abs(sens - mean_want)
            if np.max(np.abs(state.mean - mean_want)) > 1e-12:
                closed_ok = False
            if np.max(np.abs(state.spread - spread_want)) > 1e-12:
                closed_ok = False
            if np.max(np.abs(score - mean_want * spread_want)) > 1e-12:
                closed_ok = False

        # discarded spectrum energy matches the residual exactly
        energy_ok = True
        for d1, d2, r in ((8, 5, 3), (20, 20, 6), (12, 30, 4)):
            w = rng.standard_normal((d1, d2))
            dec = decompose_layer(w, r)
            s = np.linalg.svd(w, compute_uv=False)
            tail = float(np.sum(s[r:] ** 2))
            resid = float(np.linalg.norm(dec.residual) ** 2)
            scale = max(tail, 1e-30)
            if abs(dec.tail_energy() - tail) > 1e-8 * scale:
                energy_ok = False
            if abs(resid - tail) > 1e-8 * scale:
                energy_ok = False

        detail = f"(zeros {zeros_ok}, closed forms {closed_ok}, energy {energy_ok})"
        ok = zeros_ok and closed_ok and energy_ok
    finally:
        _report(8, description, ok, detail)


def test_criterion_9_fixed_seed_reproducibility(tmp_path):
    description = "fixed-seed simulate is byte-for-byte reproducible"
    ok = False
    detail = ""
    try:
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        rc_a = cli_main(["simulate", "--config", str(REFERENCE_CONFIG),
                         "--out", str(out_a), "--quiet"])
        rc_b = cli_main(["simulate", "--config", str(REFERENCE_CONFIG),
                         "--out", str(out_b), "--quiet"])
        same_selection = (out_a / "selection.json").read_bytes() == (out_b / "selection.json").read_bytes()
        same_report = (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        selection = json.loads((out_a / "selection.json").read_text())
        detail = (f"(exit codes {rc_a},{rc_b}, selection match {same_selection}, "
                  f"report match {same_report}, selected {selection['solver_selected']})")
        ok = rc_a == 0 and rc_b == 0 and same_selection and same_report
    finally:
        _report(9, description, ok, detail)
