"""Span tracer that times calls into ggm_select from outside the package.

A traced run replaces module attributes (``ggm_select.ggm.update_auxiliary``,
``numpy.linalg.eigh`` and so on) with wrappers for the duration of one
``with patched(tracer):`` block.  Each wrapper opens a span (name, start,
end, parent) around the call and records counts taken from its arguments or
result at that boundary.  Nothing under ``src/`` is modified.

Spans live in flat typed arrays (about 24 bytes each), because one call
on the solve hot path produces a few hundred thousand of them.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FACTORIZATIONS = ("eigh", "eigvalsh", "slogdet", "inv", "cholesky")
SOLVE_SPAN = "ggm.solve_ggm"


class Tracer:
    """In-memory span store plus boundary counters for one traced call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        # positional arguments of each solve_ggm call, for the BLAS replay
        self.solve_args: list = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} is open")

    def inside(self, name: str) -> bool:
        """True while a span of the given name is open."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_id[s] == nid for s in self._stack[1:])

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``name`` may be a callable of the tracer."""

        def wrapper(*args, **kwargs):
            sid = self.open(name(self) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def table(self):
        """Spans as arrays: name index, parent index (-1 for roots), start, end."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def aggregate(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]."""
        name_id, parent, start, end = self.table()
        if np.isnan(end).any():
            raise RuntimeError("aggregate() called with spans still open")
        duration = end - start
        own = self_times(parent, start, end)
        calls = np.bincount(name_id, minlength=len(self.names))
        total = np.bincount(name_id, weights=duration, minlength=len(self.names))
        own_total = np.bincount(name_id, weights=own, minlength=len(self.names))
        return {
            name: [int(calls[i]), float(total[i]), float(own_total[i])]
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        name_id, parent, start, end = self.table()
        np.savez(path, names=np.asarray(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and the covered time is the sum of their durations.
    """
    parent = np.asarray(parent)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def _count_prox(tracer, args, solution):
    tracer.count("scalar_prox.iterations", solution.iterations)
    tracer.count(f"scalar_prox.branch_{solution.branch.value}")


def _count_solve(tracer, args, report):
    tracer.count("ggm.sweeps", report.iterations)
    tracer.solve_args.append(args)


def _count_factorization(tracer, args, result):
    if tracer.inside(SOLVE_SPAN):
        tracer.count("ggm.factorization_n3", int(np.shape(args[0])[-1]) ** 3)


def _count_read(tracer, args, steps):
    tracer.count("nodes.read_bytes", sum(p.stat().st_size for p in Path(args[0]).glob("*.json")))


def _count_replay(tracer, args, samples):
    tracer.count("nodes.replay_steps", samples.m)


def _factorization_name(kind):
    def name(tracer):
        return f"ggm.{kind}" if tracer.inside(SOLVE_SPAN) else f"numpy.linalg.{kind}"

    return name


def _targets():
    """(owner object, attribute, span name, boundary counter) for every wrapped call."""
    from ggm_select import cli, ggm, nodes, pipeline, scalar_prox

    targets = [
        (cli, "run_pipeline", "pipeline.run_pipeline", None),
        (pipeline, "make_planted", "pipeline.make_planted", None),
        (pipeline, "read_score_dump", "nodes.read_score_dump", _count_read),
        (pipeline, "replay_scores", "nodes.replay_scores", _count_replay),
        (pipeline, "sample_statistics", "nodes.sample_statistics", None),
        (pipeline, "select_important", "nodes.select_important", None),
        (pipeline, "GgmProblem", "ggm.GgmProblem", None),
        (pipeline, "solve_ggm", SOLVE_SPAN, _count_solve),
        (pipeline, "select_trainable", "pipeline.select_trainable", None),
        (ggm, "update_precision_eig", "ggm.update_precision_eig", None),
        (ggm, "update_precision", "ggm.update_precision", None),
        (ggm, "update_auxiliary", "ggm.update_auxiliary", None),
        (ggm, "penalized_objective", "ggm.penalized_objective", None),
        (ggm, "compute_group_norms", "ggm.compute_group_norms", None),
        (ggm, "solve_threshold", "scalar_prox.solve_threshold", _count_prox),
        (ggm, "eval_g", "surrogates.eval_g", None),
        (scalar_prox, "eval_g", "surrogates.eval_g", None),
        (scalar_prox, "grad_g", "surrogates.grad_g", None),
        (nodes, "update_score", "nodes.update_score", None),
        (nodes.SampleSet, "save_csv", "nodes.SampleSet.save_csv", None),
    ]
    targets += [
        (np.linalg, kind, _factorization_name(kind), _count_factorization)
        for kind in FACTORIZATIONS
    ]
    return targets


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers; restore every original attribute on exit."""
    saved = []
    try:
        for owner, attr, name, on_result in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  bytes_written: int) -> dict:
    """Per-layer metrics of one traced ``simulate`` call, keyed by metric name."""
    agg = tracer.aggregate()
    counts = tracer.counts

    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    sweeps = counts["ggm.sweeps"]
    factorizations = [f"ggm.{kind}" for kind in FACTORIZATIONS]
    read_s = total("nodes.read_score_dump")
    replay_s = total("nodes.replay_scores")
    metrics = {
        "pipeline.data_s": total("pipeline.make_planted", "nodes.read_score_dump",
                                 "nodes.replay_scores"),
        "pipeline.statistics_s": total("nodes.sample_statistics"),
        "pipeline.importance_s": total("nodes.select_important"),
        "pipeline.solve_s": total("ggm.GgmProblem", SOLVE_SPAN),
        "pipeline.selection_s": total("pipeline.select_trainable"),
        "ggm.sweeps": sweeps,
        "ggm.sweep_s": rate(total(SOLVE_SPAN), sweeps),
        "ggm.problem_s": total("ggm.GgmProblem"),
        "ggm.precision_calls": calls("ggm.update_precision_eig", "ggm.update_precision"),
        "ggm.precision_s": own("ggm.update_precision_eig", "ggm.update_precision"),
        "ggm.auxiliary_calls": calls("ggm.update_auxiliary"),
        "ggm.auxiliary_s": own("ggm.update_auxiliary"),
        "ggm.objective_calls": calls("ggm.penalized_objective"),
        "ggm.objective_s": own("ggm.penalized_objective"),
        "ggm.group_norms_s": own("ggm.compute_group_norms"),
    }
    for name in factorizations:
        metrics[f"{name}_calls"] = calls(name)
    metrics.update({
        "ggm.factorization_s": own(*factorizations),
        "ggm.factorization_n3": counts["ggm.factorization_n3"],
        "scalar_prox.calls": calls("scalar_prox.solve_threshold"),
        "scalar_prox.s": own("scalar_prox.solve_threshold"),
        "scalar_prox.iterations": counts["scalar_prox.iterations"],
        "scalar_prox.branch_fixed_point": counts["scalar_prox.branch_fixed_point"],
        "scalar_prox.branch_breakpoint": counts["scalar_prox.branch_breakpoint"],
        "scalar_prox.branch_zero": counts["scalar_prox.branch_zero"],
        "surrogates.eval_calls": calls("surrogates.eval_g"),
        "surrogates.grad_calls": calls("surrogates.grad_g"),
        "surrogates.s": own("surrogates.eval_g", "surrogates.grad_g"),
        "nodes.read_s": read_s,
        "nodes.read_mb_per_s": rate(counts["nodes.read_bytes"] / 1e6, read_s),
        "nodes.replay_s": replay_s,
        "nodes.update_score_calls": calls("nodes.update_score"),
        "nodes.replay_steps_per_s": rate(counts["nodes.replay_steps"], replay_s),
        "cli.output_s": traced_wall - total("pipeline.run_pipeline"),
        "cli.samples_csv_s": total("nodes.SampleSet.save_csv"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.name_id),
    })
    return metrics
