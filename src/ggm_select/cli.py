"""Command-line interface: prox, solve, simulate, score.

Exit codes: 0 success, 2 invalid input or flags (--param needs --kind;
--seed and --seeds exclude each other), 3 numerical failure, 4 I/O failure;
each failure prints one stderr line, "error: <message>".  Structured
results go to stdout or files as JSON/CSV; logs go to stderr at the level
named by GGM_SELECT_LOG (error, info, debug; default error), and debug adds
the failure's traceback.  Every file-producing command drops a manifest
next to its outputs recording the config snapshot, seed, tool version,
input digests and timestamps, so runs can be audited and reproduced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._inputs import number_table
from .errors import NumericalError
from .ggm import (
    GgmMode,
    GgmProblem,
    PrecisionMethod,
    SolverOptions,
    load_covariance,
    solve_ggm,
)
from .nodes import _process_pool, ema_weight, read_score_dump, replay_scores, select_important
from .pipeline import PipelineConfig, recovery_f1, run_pipeline
from .scalar_prox import ProxProblem, oracle_threshold, prox_objective, solve_threshold
from .surrogates import SurrogateKind, SurrogateSpec

log = logging.getLogger("ggm_select")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    level = os.environ.get("GGM_SELECT_LOG", "error").strip().lower()
    if level not in _LOG_LEVELS:
        level = "error"
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS[level],
        format="%(levelname)s %(name)s: %(message)s",
    )


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


_NUMBER_BLOCK = 4096  # items of a number list per C-encoder call


def _dump_json(payload: dict, path: Path) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` to ``path``, piece by piece.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder and
    holds every chunk of the text, then the joined text, at once; for a
    300 x 300 ``report.json`` that is several MB above the payload itself.
    Here dicts (keys must be strings) are written in sorted key order and
    lists item by item, at the indentation ``json.dumps`` uses, straight to
    the file.  A list of numbers only (``bool`` included) is encoded by the
    C encoder in blocks of ``_NUMBER_BLOCK`` items, whose ``", "`` separators
    become ``",\\n"`` plus the indentation: the JSON text of a number,
    ``true``, ``false``, ``NaN`` or ``Infinity`` never contains ``", "``.
    A 1-D NumPy array of numbers is written the same way, each block through
    ``tolist()``, so at most one block of it is held as Python floats at
    a time; its text is that of ``json.dumps(array.tolist())``, which a
    library caller gets from ``json.dumps(payload, default=np.ndarray.tolist)``.
    Any other array raises ``TypeError``, as in ``json.dumps`` without
    ``default``.  Empty containers and scalars go through ``json.dumps``.
    The file is opened with ``newline="\\n"``: the default would write
    ``"\\r\\n"`` for each newline on Windows.
    """
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        _write_json(handle.write, payload, "\n")
        handle.write("\n")


def _write_json(write, value, newline: str) -> None:
    """Write ``value`` as indented JSON; ``newline`` is a newline and the indentation of its line."""
    inner = newline + "  "
    array = isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "biuf"
    if isinstance(value, dict) and value:
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            write(separator + json.dumps(key) + ": ")
            _write_json(write, value[key], inner)
            separator = "," + inner
        write(newline + "}")
    elif (array or isinstance(value, (list, tuple))) and len(value):
        separator = "," + inner
        write("[" + inner)
        if array or all(isinstance(item, (int, float)) for item in value):
            for start in range(0, len(value), _NUMBER_BLOCK):
                block = value[start:start + _NUMBER_BLOCK]
                block = json.dumps(block.tolist() if array else block)
                write((separator if start else "") + block[1:-1].replace(", ", separator))
        else:
            for index, item in enumerate(value):
                if index:
                    write(separator)
                _write_json(write, item, inner)
        write(newline + "]")
    else:
        write(json.dumps(value.tolist() if array else value))


def _write_manifest(path: Path, command: str, config: dict, seed,
                    inputs: dict, outputs: dict, started: str) -> None:
    payload = {
        "tool": "ggm-select",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "input_digests": {name: _sha256(Path(p)) for name, p in inputs.items()},
        "output_digests": {name: _sha256(Path(p)) for name, p in outputs.items()},
        "started": started,
        "finished": _utc_now(),
    }
    _dump_json(payload, path)


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--param expects name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            params[name.strip()] = float(raw)
        except ValueError as exc:
            raise ValueError(f"--param {name.strip()}: not a number: {raw!r}") from exc
    return params


def _surrogate_from_args(args) -> SurrogateSpec:
    if args.kind is None:
        if args.param:
            raise ValueError("--param needs --kind")
        return SurrogateSpec.geman(0.5)
    return SurrogateSpec.from_config({"kind": args.kind, "params": _parse_params(args.param)})


def _parse_index_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def cmd_prox(args) -> int:
    problem = ProxProblem(y=args.y, lam=args.lam, g=_surrogate_from_args(args), tol=args.tol)
    solution = solve_threshold(problem)
    payload = {
        "x_star": solution.x_star,
        "branch": solution.branch.value,
        "iterations": solution.iterations,
        "objective": prox_objective(problem, solution.x_star),
    }
    if args.oracle:
        reference = oracle_threshold(problem, grid_step=args.oracle_step)
        payload["oracle"] = reference
        payload["gap"] = solution.x_star - reference
    print(json.dumps(payload, sort_keys=True))
    return 0


def _load_mean_vector(path: Path) -> np.ndarray:
    table = number_table(path, "mean file")
    if 1 not in table.shape:
        raise ValueError(f"mean file {path}: must be one row or one column, got shape {table.shape}")
    return table.ravel()


def cmd_solve(args) -> int:
    started = _utc_now()
    cov_path = Path(args.cov)
    sigma = load_covariance(cov_path)
    inputs = {"cov": cov_path}

    mode = GgmMode(args.mode)
    if args.important is not None:
        important = _parse_index_list(args.important)
    elif args.h is not None:
        if args.mean is None:
            raise ValueError("--h needs --mean FILE to rank nodes")
        mean = _load_mean_vector(Path(args.mean))
        if mean.size != sigma.shape[0]:
            raise ValueError(f"mean file {args.mean}: length {mean.size} does not match "
                             f"covariance n={sigma.shape[0]}")
        important = select_important(mean, args.h)
        inputs["mean"] = Path(args.mean)
    elif mode is GgmMode.FULL_OFFDIAG:
        important = ()
    else:
        raise ValueError("supply --important or --h with --mean")

    surrogate = _surrogate_from_args(args)
    problem = GgmProblem(
        sigma_hat=sigma,
        important_set=important,
        tau=args.tau,
        lam=args.lam,
        g=surrogate,
        mode=mode,
    )
    opts = SolverOptions(
        T=args.T,
        outer_tol=args.outer_tol,
        precision_method=PrecisionMethod(args.precision_method),
    )
    log.info("solving n=%d |I|=%d tau=%g lam=%g", problem.n, len(important), args.tau, args.lam)
    report = solve_ggm(problem, opts)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    _dump_json(report.to_json_dict(), report_path)
    _write_manifest(
        out_dir / "manifest.json",
        command="solve",
        config={
            "important_set": list(important),
            "tau": args.tau,
            "lambda": args.lam,
            "surrogate": surrogate.to_config(),
            "mode": mode.value,
            "solver": opts.to_json_dict(),
        },
        seed=args.seed,
        inputs=inputs,
        outputs={"report.json": report_path},
        started=started,
    )
    if not args.quiet:
        norms = report.group_norms
        top = np.argsort(-norms, kind="stable")[:5]
        shown = ",".join(f"{i}:{norms[i]:.4g}" for i in top)
        print(
            f"converged={str(report.converged).lower()} iterations={report.iterations} "
            f"top_group_norms={shown}"
        )
    return 0


def _simulate_one(config: PipelineConfig, out_dir: str, config_path: str) -> dict:
    """Run one simulate invocation; a module-level function so it pickles."""
    started = _utc_now()
    result = run_pipeline(config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    selection_path = out / "selection.json"
    report_path = out / "report.json"
    samples_path = out / "samples.csv"
    _dump_json(result.selection.to_json_dict(), selection_path)
    _dump_json(result.report.to_json_dict(), report_path)
    result.samples.save_csv(samples_path)
    _write_manifest(
        out / "manifest.json",
        command="simulate",
        config=config.to_json_dict(),
        seed=config.seed,
        inputs={"config": Path(config_path)},
        outputs={
            "selection.json": selection_path,
            "report.json": report_path,
            "samples.csv": samples_path,
        },
        started=started,
    )
    line = {
        "seed": config.seed,
        "out": str(out),
        "selected": list(result.selection.solver_selected),
        "converged": result.report.converged,
    }
    if result.planted is not None:
        line["f1"] = recovery_f1(result.selection.solver_selected, result.planted.true_connected)
    return line


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.seeds is not None and args.seed is not None:
        raise ValueError("--seed and --seeds exclude each other")
    # validate once, before launching any runs, so flag errors surface immediately
    config = PipelineConfig.from_json_file(config_path)

    out_root = Path(args.out)
    if args.seeds is not None:
        seeds = list(_parse_index_list(args.seeds))
        if not seeds:
            raise ValueError("--seeds list is empty")
        repeated = [seed for seed in seeds if seeds.count(seed) > 1]
        if repeated:
            # every run of a seed writes the same seed_<n>/ directory
            raise ValueError(f"--seeds repeats seed {repeated[0]}")
        runs = [(seed, str(out_root / f"seed_{seed}")) for seed in seeds]
    else:
        seed = args.seed if args.seed is not None else config.seed
        runs = [(seed, str(out_root))]
    # a planted run refuses a negative seed here, not midway
    runs = [(replace(config, seed=seed), out_dir) for seed, out_dir in runs]

    if args.jobs > 1 and len(runs) > 1:
        # never more workers than runs: a worker past that has no run to take
        with _process_pool(min(args.jobs, len(runs))) as pool:
            futures = [
                pool.submit(_simulate_one, run, out_dir, str(config_path))
                for run, out_dir in runs
            ]
            lines = [future.result() for future in futures]
    else:
        lines = [_simulate_one(run, out_dir, str(config_path)) for run, out_dir in runs]

    if not args.quiet:
        for line in lines:
            extras = f" f1={line['f1']:.3f}" if "f1" in line else ""
            print(
                f"seed={line['seed']} out={line['out']} "
                f"selected={line['selected']} converged={str(line['converged']).lower()}{extras}"
            )
        if args.seeds is not None and "f1" in lines[0]:
            # stderr, so stdout keeps exactly one record per seed
            average = sum(line["f1"] for line in lines) / len(lines)
            print(f"average_f1={average:.3f} over {len(lines)} seeds", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    started = _utc_now()
    dump_dir = Path(args.dump)
    ema_weight(args.beta1, "--beta1")
    ema_weight(args.beta2, "--beta2")
    steps = read_score_dump(dump_dir)
    samples = replay_scores(steps, args.beta1, args.beta2)
    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    samples.save_csv(out_path)
    _write_manifest(
        Path(str(out_path) + ".manifest.json"),
        command="score",
        config={"beta1": args.beta1, "beta2": args.beta2, "dump": str(dump_dir)},
        seed=args.seed,
        inputs={path.name: path for path in sorted(dump_dir.glob("*.json"))},
        outputs={out_path.name: out_path},
        started=started,
    )
    if not args.quiet:
        print(f"wrote {out_path} ({samples.m} steps x {samples.n} nodes)")
    return 0


def _add_surrogate_flags(parser) -> None:
    parser.add_argument("--kind", choices=[k.value for k in SurrogateKind], default=None,
                        help="surrogate kind (default: geman with epsilon=0.5)")
    parser.add_argument("--param", action="append", metavar="NAME=VALUE",
                        help="surrogate parameter, repeatable")


def build_parser() -> argparse.ArgumentParser:
    # prox writes no file and always prints its JSON, so it takes neither flag
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="seed recorded and used where relevant")
    common.add_argument("--quiet", action="store_true", help="suppress summary lines on stdout")

    parser = argparse.ArgumentParser(
        prog="ggm-select",
        description="Group-penalized graphical-model node selection toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    prox = sub.add_parser("prox", help="evaluate the scalar threshold operator")
    prox.add_argument("--y", type=float, required=True, help="input value (nonnegative)")
    prox.add_argument("--lam", type=float, required=True, help="penalty weight")
    prox.add_argument("--tol", type=float, default=ProxProblem.tol)
    prox.add_argument("--oracle", action="store_true", help="also report a grid-search reference")
    prox.add_argument("--oracle-step", type=float, default=1e-6)
    _add_surrogate_flags(prox)
    prox.set_defaults(func=cmd_prox)

    solve = sub.add_parser("solve", parents=[common], help="fit the penalized precision matrix")
    solve.add_argument("--cov", required=True, help="covariance file (CSV or JSON)")
    solve.add_argument("--important", default=None, help="comma-separated 0-based indices")
    solve.add_argument("--h", type=int, default=None, help="pick the h largest --mean entries instead")
    solve.add_argument("--mean", default=None, help="mean vector file for --h")
    solve.add_argument("--tau", type=float, default=0.1)
    solve.add_argument("--lam", type=float, default=1.0)
    solve.add_argument("--mode", choices=[m.value for m in GgmMode], default=GgmMode.IMPORTANT_ROWS.value)
    defaults = SolverOptions()
    solve.add_argument("--T", type=int, default=defaults.T, help="max outer sweeps")
    solve.add_argument("--outer-tol", type=float, default=defaults.outer_tol)
    solve.add_argument("--precision-method", choices=[m.value for m in PrecisionMethod],
                       default=defaults.precision_method.value)
    solve.add_argument("--out", required=True, help="output directory")
    _add_surrogate_flags(solve)
    solve.set_defaults(func=cmd_solve)

    simulate = sub.add_parser("simulate", parents=[common], help="run the synthetic pipeline")
    simulate.add_argument("--config", required=True, help="pipeline config JSON")
    simulate.add_argument("--out", required=True, help="output directory (per-seed subdirs with --seeds)")
    simulate.add_argument("--seeds", default=None, help="comma-separated seed sweep")
    simulate.add_argument("--jobs", type=int, default=1,
                          help="parallel workers for multi-seed sweeps, at most one per seed")
    simulate.set_defaults(func=cmd_simulate)

    score = sub.add_parser("score", parents=[common], help="replay a score dump into samples.csv")
    score.add_argument("--dump", required=True, help="directory of step records")
    score.add_argument("--beta1", type=float, default=PipelineConfig.beta1)
    score.add_argument("--beta2", type=float, default=PipelineConfig.beta2)
    score.add_argument("--out", required=True, help="output CSV path")
    score.set_defaults(func=cmd_score)

    return parser


# NumericalError subclasses RuntimeError, so no kind here subclasses another
_EXIT_CODES = {NumericalError: 3, ValueError: 2, OSError: 4}


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        log.debug("exit code %d", code, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
