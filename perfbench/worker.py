"""Benchmark worker: runs ``ggm-select simulate`` in-process and times it.

Started by ``run.py`` as its own interpreter, so that the peak memory it
reports belongs to the workload alone.  Usage::

    python3 perfbench/worker.py REQUEST.json

The request names a mode:

* ``measure``: call ``ggm_select.cli.main(["simulate", ...])`` as often
  as fits in ``seconds`` (at least once), timing each call and a fixed
  probe loop before it;
* ``trace``: one untraced call, then two traced calls (spans and counts
  from ``tracer.py``), whose counts are compared;
* ``solve``: replay a saved ``solve_ggm`` problem once and time it (run
  with BLAS pinned to one thread by the caller).

The result goes to the ``result`` path of the request as JSON.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics, patched  # noqa: E402
from workloads import sha256  # noqa: E402

PROBE_LOOPS = 1_500_000


def simulate(config: str, out: Path) -> dict:
    """One timed ``simulate`` call; returns its timings and output digests."""
    from ggm_select import cli

    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(["simulate", "--config", config, "--out", str(out), "--quiet"])
    except Exception:  # a crash counts as a failed call, and the loop goes on
        code, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    record = {"code": code, "error": error, "wall_s": wall, "cpu_s": cpu,
              "bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file())
              if out.is_dir() else 0}
    for name in ("selection.json", "report.json"):
        record[name] = sha256(out / name) if (out / name).is_file() else None
    return record


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that uses no part of the program.

    The speed of a shared machine drifts by up to a third within a minute;
    this loop slows down with it, so its time measures the drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def measure(request: dict) -> dict:
    out = Path(request["out"])
    calls, probes = [], []
    start = time.perf_counter()
    # start another call only if it should end within the time given
    while not calls or time.perf_counter() - start + calls[-1]["wall_s"] <= request["seconds"]:
        probes.append(probe())
        calls.append(simulate(request["config"], out))
        if len(calls) == 1:
            # one call per process, as for a command-line user; the peak
            # after further calls varied by 8 MB between sets of runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"calls": calls, "probes": probes, "peak_rss_mb": peak_rss_mb}


def trace(request: dict) -> dict:
    out = Path(request["out"])
    calls = [simulate(request["config"], out)]
    layers = []
    for k in range(2):
        tracer = Tracer()
        with patched(tracer):
            call = simulate(request["config"], out)
        calls.append(call)
        layers.append(layer_metrics(tracer, call["wall_s"], calls[0]["wall_s"],
                                    call["bytes_written"]))
        if k == 0:
            tracer.save(Path(request["spans"]))
            with open(request["problem"], "wb") as handle:
                pickle.dump(tracer.solve_args[0], handle)
    mismatches = sorted(
        name for name, value in layers[0].items()
        if isinstance(value, int) and value != layers[1][name]
    )
    return {"calls": calls, "layers": layers[0], "count_mismatches": mismatches}


def solve(request: dict) -> dict:
    from ggm_select.ggm import solve_ggm

    # written by trace() in an earlier worker of the same run
    with open(request["problem"], "rb") as handle:
        args = pickle.load(handle)
    start = time.perf_counter()
    report = solve_ggm(*args)
    return {"solve_s": time.perf_counter() - start, "sweeps": report.iterations}


def main(path: str) -> None:
    request = json.loads(Path(path).read_text())
    result = {"measure": measure, "trace": trace, "solve": solve}[request["mode"]](request)
    Path(request["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
