"""ggm-select benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload planted-n300 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs building.  With ``--trace 0`` the run reports the
end-to-end metrics (wall and CPU time of one ``simulate`` call, corrected for
the machine's speed drift; peak memory; import set-up time); with
``--trace 1`` it reports the per-layer metrics of a traced call.  Every run checks the written outputs.  The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is nonzero when a check failed.
Scratch files go to ``.perfbench/work/`` (removed at exit), a record of each
run to ``.perfbench/results/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the whole run has to end within 180 s; keep a margin for the checks
DEADLINE_S = 165.0
SETUP_REPEATS = 11
SETUP_CODE = (
    "import time; t = time.perf_counter(); import ggm_select.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t)"
)
# Median time of the worker's probe loop on the machine the bounds were set
# on (x86_64, 2 vCPUs).  On speed-corrected workloads wall_s and cpu_s are
# scaled by PROBE_REF_S / the run's median probe time, which removes most of
# the machine's speed drift.
PROBE_REF_S = 0.15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        return left


def _env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def measure_setup(deadline: Deadline) -> float:
    """Median time for a fresh interpreter to import ggm_select.cli and build its parser."""
    times = []
    # the first interpreter compiles the bytecode cache, which users pay once
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), check=True,
                              capture_output=True, text=True, timeout=deadline.left())
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def run_worker(request: dict, work: Path, deadline: Deadline, **env) -> dict:
    request = {**request, "result": str(work / f"{request['mode']}-result.json")}
    path = work / f"{request['mode']}-request.json"
    path.write_text(json.dumps(request))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                          env=_env(**env), capture_output=True, text=True,
                          timeout=deadline.left())
    if done.returncode != 0:
        raise RuntimeError(f"worker {request['mode']} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(Path(request["result"]).read_text())


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Run one workload and check its outputs; return the result record."""
    from workloads import check_outputs, write_inputs

    deadline = Deadline(DEADLINE_S)
    work.mkdir(parents=True)
    record = {"workload": workload.name, "seed": seed, "trace": int(traced),
              "environment": environment()}
    setup_s = None if traced else measure_setup(deadline)
    config = write_inputs(workload, seed, work)
    request = {"mode": "trace" if traced else "measure", "config": str(config),
               "out": str(work / "out"), "seconds": seconds,
               "spans": str(work / "spans.npz"), "problem": str(work / "problem.pickle")}
    result = run_worker(request, work, deadline)
    calls = result["calls"]

    digests = {name: calls[0][name] for name in ("selection.json", "report.json")}
    failures = [f"call {i} exited {call['code']}: {call['error'] or ''}".strip()
                for i, call in enumerate(calls) if call["code"] != 0]
    differ = [i for i, call in enumerate(calls)
              if any(call[name] != digest for name, digest in digests.items())]
    if differ:
        failures.append(f"calls {differ} wrote other outputs than call 0 for the same seed")
    check_failures, info = check_outputs(workload, seed, work / "out")
    failures += check_failures
    crashed = {i for i, call in enumerate(calls) if call["code"] != 0}
    failed = len(calls) if check_failures else len(crashed | set(differ))

    if traced:
        metrics = dict(result["layers"])
        solve = run_worker({"mode": "solve", "problem": request["problem"]}, work, deadline,
                           **{var: "1" for var in BLAS_THREAD_VARS})
        metrics["ggm.solve_s_blas1"] = solve["solve_s"]
        metrics["trace.count_mismatches"] = len(result["count_mismatches"])
        record["count_mismatches"] = result["count_mismatches"]
        record["spans"] = request["spans"]
    else:
        wall = statistics.median(c["wall_s"] for c in calls)
        cpu = statistics.median(c["cpu_s"] for c in calls)
        probe = statistics.median(result["probes"])
        scale = PROBE_REF_S / probe if workload.speed_corrected else 1.0
        metrics = {
            "wall_s": wall * scale,
            "cpu_s": cpu * scale,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        info.update(raw_wall_s=wall, raw_cpu_s=cpu, probe_s=probe)
    if set(metrics) != set(declared_units(traced)):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    record.update(
        calls=calls,
        output_sha256=digests,
        info={**info, "failed_ratio": failed / len(calls)},
        failures=failures,
        result={"correct": not failures, "attempted": len(calls), "failed": failed,
                "metrics": metrics},
    )
    return record


def declared_units(traced: bool) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"# workload={record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    for name, digest in record["output_sha256"].items():
        print(f"# sha256 {name} {digest}")
    walls = ", ".join(f"{c['wall_s']:.3f}" for c in record["calls"])
    print(f"# calls {len(record['calls'])}: wall_s [{walls}]")
    for name, value in sorted(record["info"].items()):
        print(f"# info {name} = {value:.6g}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for name in record.get("count_mismatches", []):
        print(f"# count differs between traced calls: {name}")
    units = declared_units(bool(record["trace"]))
    for name, unit in units.items():
        print(f"{name:32s} {result['metrics'][name]:>18.6f} {unit}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({**result, "metrics": metrics}))


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ggm_select" / "cli.py").is_file():
        print(f"error: no ggm_select sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        if args.trace:
            spans = results / f"{work.name}-spans.npz"
            shutil.move(record["spans"], spans)
            record["spans"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{work.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    print_record(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
