"""Graph nodes from weight matrices, sensitivity scores, and node samples.

A weight matrix is factored through its SVD into rank-one components; each
component i contributes a node (A_i, B_i) with A_i = s_i * u_i (scaled left
singular vector) and B_i = v_i (unit right singular vector), and the layer
bias contributes one extra node, so a layer with r kept components yields
r + 1 nodes.

Per training step, elementwise sensitivities |value * grad| of the component
tensors feed two exponential moving averages: a smoothed sensitivity and a
smoothed absolute deviation around it.  Their elementwise product is the
score; node values average the scores of the node's tensors (half-mean of
the A part plus half-mean of the B part for pairs, half-mean for the bias).
Collecting node values across steps gives the sample matrix whose mean picks
the important set and whose covariance feeds the graphical model.

All operations are pure; importance state is threaded functionally (one
state per tensor kind and length: every such tensor of every layer is
stacked row by row).  Step dumps on disk are directories of JSON records
{step, layer_id, tensor: "A"|"B"|"b", index, values, grads}; component
indices are 0-based throughout.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._csv import BLOCK_VALUES, format_rows
from ._inputs import integer, json_file, number, number_array, read_object, string
from .errors import NumericalError

__all__ = [
    "LayerShape",
    "NodeLayout",
    "LayerDecomposition",
    "TensorKey",
    "ImportanceState",
    "SampleSet",
    "decompose_layer",
    "sensitivity",
    "update_score",
    "node_value_pair",
    "node_value_bias",
    "sample_statistics",
    "select_important",
    "replay_scores",
    "read_score_dump",
]

BIAS = "b"
PAIR_A = "A"
PAIR_B = "B"


@dataclass(frozen=True)
class LayerShape:
    """Shape summary of one layer: d1 x d2 weight, r kept components."""

    layer_id: int
    d1: int
    d2: int
    r: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"layer {self.layer_id}: dimensions must be >= 1")
        if not 1 <= self.r <= min(self.d1, self.d2):
            raise ValueError(
                f"layer {self.layer_id}: r={self.r} outside [1, min(d1, d2)={min(self.d1, self.d2)}]"
            )


@dataclass(frozen=True)
class NodeLayout:
    """Node ordering over layers: per layer the r pairs then the bias.

    Nodes are numbered over the layers in the given order, n = sum(r + 1)
    in all, as ``node_names()`` lists them.
    """

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        ids = [layer.layer_id for layer in layers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate layer ids: {ids}")
        object.__setattr__(self, "layers", layers)

    @property
    def n(self) -> int:
        return sum(layer.r + 1 for layer in self.layers)

    def node_names(self) -> tuple:
        names = []
        for layer in self.layers:
            names.extend(f"L{layer.layer_id}:A{i}" for i in range(layer.r))
            names.append(f"L{layer.layer_id}:b")
        return tuple(names)


@dataclass(frozen=True)
class LayerDecomposition:
    """Rank-r factorization of a weight matrix plus the discarded remainder.

    ``left_scaled`` has columns A_i = s_i * u_i (d1 x r); ``right_unit`` has
    unit-norm rows B_i (r x d2); ``residual`` is the rank-(min(d1,d2) - r)
    remainder, so left_scaled @ right_unit + residual rebuilds the input
    exactly.  ``singular_values`` keeps the full spectrum, nonincreasing.
    """

    left_scaled: np.ndarray
    right_unit: np.ndarray
    residual: np.ndarray
    singular_values: np.ndarray = field(repr=False)

    def reconstruction(self) -> np.ndarray:
        return self.left_scaled @ self.right_unit

    def tail_energy(self) -> float:
        """Squared Frobenius norm of the residual, = sum of squared discarded singular values."""
        return float(np.sum(self.residual**2))


def decompose_layer(w0, r: int) -> LayerDecomposition:
    """Split a d1 x d2 weight matrix into r scaled rank-one components.

    Components come out in nonincreasing singular-value order.  Sign
    convention: the largest-magnitude entry of each left vector is made
    nonnegative (right vector flipped to compensate) so decompositions are
    reproducible across backends.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.ndim != 2:
        raise ValueError(f"weight must be a matrix, got ndim={w0.ndim}")
    if not 1 <= r <= min(w0.shape):
        raise ValueError(f"r={r} outside [1, min(d1, d2)={min(w0.shape)}]")
    try:
        u, s, vt = np.linalg.svd(w0, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {w0.shape}") from exc
    for i in range(r):
        peak = int(np.argmax(np.abs(u[:, i])))
        if u[peak, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]
    left = u[:, :r] * s[:r]
    right = vt[:r, :]
    return LayerDecomposition(
        left_scaled=left,
        right_unit=right,
        residual=w0 - left @ right,
        singular_values=s.copy(),
    )


def sensitivity(values, grads) -> np.ndarray:
    """Elementwise |value * grad|, the first-order loss-change magnitude."""
    values = np.asarray(values, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if values.shape != grads.shape:
        raise ValueError(f"shape mismatch: values {values.shape} vs grads {grads.shape}")
    return np.abs(values * grads)


def ema_weight(beta, name: str = "") -> float:
    """``beta`` as a float if it is a number in [0, 1), the range of ``beta1`` and ``beta2``.

    A refusal's message starts with ``name``.
    """
    beta = number(beta)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {beta}".lstrip())
    return beta


@dataclass(frozen=True)
class ImportanceState:
    """EMA pair tracking smoothed sensitivity and its absolute deviation.

    ``mean`` and ``spread`` start at zero (the base case is unspecified
    upstream; zero makes step-1 values analytic).
    """

    mean: np.ndarray
    spread: np.ndarray
    beta1: float
    beta2: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        spread = np.asarray(self.spread, dtype=float)
        if mean.shape != spread.shape:
            raise ValueError("mean/spread shape mismatch")
        ema_weight(self.beta1, "beta1")
        ema_weight(self.beta2, "beta2")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(spread))):
            raise ValueError("EMA state contains non-finite entries")
        if np.any(mean < 0) or np.any(spread < 0):
            raise ValueError("EMA state must be nonnegative")
        mean.flags.writeable = False
        spread.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "spread", spread)

    @classmethod
    def zeros(cls, shape, beta1: float, beta2: float) -> "ImportanceState":
        return cls(np.zeros(shape), np.zeros(shape), beta1, beta2)


def update_score(state: ImportanceState, sens_k):
    """One EMA step; returns the new state and the elementwise score.

    mean' = beta1*mean + (1-beta1)*sens
    spread' = beta2*spread + (1-beta2)*|sens - mean'|   (uses the new mean)
    score = mean' * spread'
    """
    sens = np.asarray(sens_k, dtype=float)
    if sens.shape != state.mean.shape:
        raise ValueError(f"sensitivity shape {sens.shape} does not match state {state.mean.shape}")
    mean = state.beta1 * state.mean + (1.0 - state.beta1) * sens
    spread = state.beta2 * state.spread + (1.0 - state.beta2) * np.abs(sens - mean)
    score = mean * spread
    return ImportanceState(mean, spread, state.beta1, state.beta2), score


def node_value_pair(score_a, score_b):
    """Half-mean of the A-part scores plus half-mean of the B-part scores.

    Means run over the last axis: score vectors give a float, r-row stacks
    give the r pair values, each bit-equal to its single-row call.
    """
    score_a = np.asarray(score_a, dtype=float)
    score_b = np.asarray(score_b, dtype=float)
    if score_a.size == 0 or score_b.size == 0:
        raise ValueError("pair node needs nonempty score vectors")
    value = 0.5 * np.mean(score_a, axis=-1) + 0.5 * np.mean(score_b, axis=-1)
    return float(value) if value.ndim == 0 else value


def node_value_bias(score_b) -> float:
    """Half the mean of the bias scores (the 1/2 factor is intentional upstream)."""
    score_b = np.asarray(score_b, dtype=float)
    if score_b.size == 0:
        raise ValueError("bias node needs a nonempty score vector")
    return 0.5 * float(np.mean(score_b))


@dataclass(frozen=True)
class SampleSet:
    """m x n matrix of node values, one row per step, one column per node."""

    values: np.ndarray
    names: tuple
    layout: NodeLayout = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"sample matrix must be 2-D, got ndim={values.ndim}")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample matrix contains non-finite entries")
        if np.any(values < 0):
            raise ValueError("node values must be nonnegative")
        names = tuple(str(name) for name in self.names)
        if len(names) != values.shape[1]:
            raise ValueError(f"{len(names)} names for {values.shape[1]} columns")
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def save_csv(self, path) -> None:
        """Write a header row of names, then one row per sample in ``%.17g``.

        The bytes are those of ``"%.17g" % v`` for every value, joined by
        "," and each row ended by a newline; ``%.17g`` round-trips every
        double.  Rows are formatted in array code, block by block of about
        ``_csv.BLOCK_VALUES`` values, so the text of the whole matrix is
        never held at once.
        """
        path = Path(path)
        rows_per_block = max(1, BLOCK_VALUES // max(1, self.n))
        with path.open("wb") as handle:
            handle.write((",".join(self.names) + "\n").encode())
            for start in range(0, self.m, rows_per_block):
                handle.write(format_rows(self.values[start:start + rows_per_block]))

    @classmethod
    def load_csv(cls, path) -> "SampleSet":
        path = Path(path)
        with path.open(encoding="utf-8") as handle:
            header = handle.readline().strip()
            if not header:
                raise ValueError(f"{path}: missing header row")
            names = tuple(part.strip() for part in header.split(","))
            values = np.loadtxt(handle, delimiter=",", ndmin=2, dtype=float)
        if values.size == 0:
            values = values.reshape(0, len(names))
        return cls(values=values, names=names)


def sample_statistics(samples: SampleSet):
    """Column means and the (m-1)-normalized sample covariance, symmetrized."""
    values = samples.values
    m = values.shape[0]
    if m < 2:
        raise ValueError(f"need at least 2 samples for a covariance, got {m}")
    mean = values.mean(axis=0)
    centered = values - mean
    cov = centered.T @ centered / (m - 1)
    return mean, 0.5 * (cov + cov.T)


def select_important(mean, h: int) -> tuple:
    """Indices of the h largest mean entries; ties go to the lower index."""
    mean = np.asarray(mean, dtype=float)
    n = mean.size
    if not 1 <= h <= n:
        raise ValueError(f"h={h} outside [1, n={n}]")
    # stable sort keeps lower indices first among equal values
    order = np.argsort(-mean, kind="stable")
    return tuple(sorted(int(i) for i in order[:h]))


@dataclass(frozen=True)
class TensorKey:
    """Identity of one component tensor: (layer, kind, component index).

    ``kind`` is "A", "B" or "b"; the bias carries no component index.
    """

    layer_id: int
    kind: str
    index: int = None

    def __post_init__(self):
        if self.kind not in (PAIR_A, PAIR_B, BIAS):
            raise ValueError(f"tensor kind must be A, B or b, got {self.kind!r}")
        if self.kind == BIAS:
            object.__setattr__(self, "index", None)
        elif self.index is None or int(self.index) < 0:
            raise ValueError(f"tensor {self.kind} needs a component index >= 0")
        else:
            object.__setattr__(self, "index", int(self.index))

    def sort_key(self):
        return (self.layer_id, {PAIR_A: 0, PAIR_B: 1, BIAS: 2}[self.kind], self.index or 0)


def _layout_from_keys(keys) -> list:
    """Validate the tensor key set; return [(layer_id, {kind: keys in index order})]."""
    by_layer = {}
    for key in sorted(keys, key=TensorKey.sort_key):
        groups = by_layer.setdefault(key.layer_id, {PAIR_A: [], PAIR_B: [], BIAS: []})
        groups[key.kind].append(key)
    layers = []
    for layer_id, groups in by_layer.items():
        if not groups[BIAS]:
            raise ValueError(f"layer {layer_id}: bias tensor missing from stream")
        a_idx = [k.index for k in groups[PAIR_A]]
        b_idx = [k.index for k in groups[PAIR_B]]
        if a_idx != b_idx or a_idx != list(range(len(a_idx))) or not a_idx:
            raise ValueError(
                f"layer {layer_id}: pair components must be 0..r-1 on both sides, "
                f"got A={a_idx} B={b_idx}"
            )
        layers.append((layer_id, {kind: tuple(group) for kind, group in groups.items()}))
    if not layers:
        raise ValueError("score stream is empty")
    return layers


def replay_scores(steps, beta1: float, beta2: float) -> SampleSet:
    """Run the EMA score recursion over an in-memory step stream.

    ``steps`` is a sequence of dicts mapping :class:`TensorKey` to a 1-D
    :func:`sensitivity` array |values * grads|, as :func:`read_score_dump`
    gives.  Every step must cover exactly the same tensor set, and all
    tensors of one kind in a layer share the length they have at step 0.
    Each step stacks every tensor of one kind and length, layer by layer,
    and advances that (kind, length) state with one :func:`update_score`
    call; a layer's node values come from its rows of those stacks.
    Returns the node-value sample matrix, one row per step, columns in
    layout order (layers ascending, pairs then bias).
    """
    if not steps:
        raise ValueError("score stream is empty")
    layers = _layout_from_keys(steps[0].keys())
    stacks = {}  # (kind, length) -> its keys, layer by layer
    rows = {}  # (layer_id, kind) -> ((kind, length), the layer's rows of that stack)
    for layer_id, groups in layers:
        for kind, keys in groups.items():
            stack = kind, np.size(steps[0][keys[0]])
            start = len(stacks.setdefault(stack, []))
            stacks[stack] += keys
            rows[layer_id, kind] = stack, slice(start, start + len(keys))
    states = {stack: ImportanceState.zeros((len(keys), stack[1]), beta1, beta2)
              for stack, keys in stacks.items()}
    layout = NodeLayout(tuple(
        LayerShape(layer_id, rows[layer_id, PAIR_A][0][1], rows[layer_id, PAIR_B][0][1], len(groups[PAIR_A]))
        for layer_id, groups in layers
    ))

    samples = np.empty((len(steps), layout.n))
    for step_no, step in enumerate(steps):
        if step.keys() != steps[0].keys():
            raise ValueError(f"step {step_no}: tensor set differs from step 0")
        scores = {}
        for stack, keys in stacks.items():
            try:
                sens = np.stack([step[key] for key in keys])
            except ValueError:
                sens = None
            if sens is None or sens.shape != states[stack].mean.shape:
                _refuse_lengths(step_no, step, layers, rows)
            states[stack], scores[stack] = update_score(states[stack], sens)
        column = 0
        for layer_id, groups in layers:
            (a, a_rows), (b, b_rows), (bias, bias_row) = (rows[layer_id, kind] for kind in groups)
            r = len(groups[PAIR_A])
            samples[step_no, column:column + r] = node_value_pair(scores[a][a_rows], scores[b][b_rows])
            samples[step_no, column + r] = node_value_bias(scores[bias][bias_row.start])
            column += r + 1

    return SampleSet(values=samples, names=layout.node_names(), layout=layout)


def _refuse_lengths(step_no: int, step: dict, layers: list, rows: dict):
    """Raise for the first layer and kind, in layout order, with a tensor of the wrong length."""
    for layer_id, groups in layers:
        for kind, keys in groups.items():
            length = rows[layer_id, kind][0][1]
            if any(np.shape(step[key]) != (length,) for key in keys):
                raise ValueError(
                    f"step {step_no}: layer {layer_id}: every {kind} tensor must have length "
                    f"{length}, that of the first {kind} tensor at step 0"
                )


def _spells_a_boolean(text: str) -> bool:
    """Whether JSON ``text`` holds the word ``true`` or ``false`` anywhere.

    A search for a single letter runs at memory speed, a search for a word
    does not, so this finds each ``u`` and ``f`` and looks at the word
    around it.  Record keys spell ``u`` once (``values``) and no ``f``, so a
    dump file takes about one step per record: under 1 % of its parse.
    """
    for letter, word, offset in (("u", "true", 2), ("f", "false", 0)):
        at = text.find(letter)
        while at >= 0:
            if text.startswith(word, max(at - offset, 0)):
                return True
            at = text.find(letter, at + 1)
    return False


def _decode_vectors(obj: dict, booleans: bool = True, arrays: dict = None) -> dict:
    """JSON object hook: ``values``/``grads`` as float arrays as soon as an object is decoded.

    Converting per object keeps only one record's float lists alive at a
    time instead of the whole file's; a string ``arrays`` maps is its array.
    ``booleans`` is passed to :func:`number_array`.  A value that it refuses
    stays as decoded, so :func:`_parse_record` raises its error as before.
    """
    for key in ("values", "grads"):
        if key in obj:
            value = obj[key]
            try:
                obj[key] = number_array(arrays.get(value, value) if arrays and type(value) is str else value,
                                        booleans)
            except (TypeError, ValueError):
                pass
    return obj


# records are open objects: keys without a reader are ignored
_RECORD_READERS = {
    "step": integer, "layer_id": integer, "tensor": string,
    "index": lambda index: None if index is None else integer(index),
    "values": number_array, "grads": number_array,
}


def _parse_record(record, where: str):
    """``(step, key, sensitivity(values, grads))`` of one dump record, refusing an overflowing product."""
    read = read_object(record, where, _RECORD_READERS, closed=False,
                       required=("step", "layer_id", "tensor", "values", "grads"))
    try:
        key = TensorKey(read["layer_id"], read["tensor"], read.get("index"))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    values, grads = read["values"], read["grads"]
    if values.shape != grads.shape:
        raise ValueError(f"{where}: values/grads must be equal-length 1-D arrays")
    with np.errstate(over="ignore"):
        sens = sensitivity(values, grads)
    if not np.isfinite(sens).all():
        raise ValueError(f"{where}: |values * grads| overflows a float")
    return read["step"], key, sens


# Helpers parse a dump only if each gets at least this many bytes.  With
# its number arrays read in array code (_read_file), one process reads a
# 39 MB dump-l12-shaped dump in about 0.5 s.  On a 2-vCPU x86_64 box (fresh
# process per read, medians of 7 alternations), two fork helpers against the
# serial read: 0.19 s against 0.24 s at 13 MB, 0.34 s against 0.43 s at
# 26 MB, 0.39 s against 0.51 s at 39 MB.  Two spawn helpers (each starts an
# interpreter importing NumPy and this package) lost at 39 MB: 0.78 s against
# 0.47 s (medians of 5).  So fork helpers win from 13 MB and spawn helpers
# not even at 39 MB; one constant serves both, and it stays at the spawn
# break-even measured with the slower JSON route (40-50 MB for two).  More
# than two helpers (one per CPU on a larger machine) have not been measured.
_HELPER_MIN_BYTES = 24_000_000


def _read_file(path: Path, cut: bool = True):
    """Parse one dump file into ``(records, packed, error)``.

    ``records`` lists ``(step, key, length)`` in file order and ``packed``
    holds each record's :func:`sensitivity` |values * grads| end to end,
    one array rather than one per record to pickle.  A failure is
    returned, not raised, after the records parsed before it, so the caller
    checks those first and then raises it, as a record-by-record read would.
    Runs in a helper process for large dumps, so its result is small and
    picklable.  With ``cut``, :mod:`._json_numbers` converts the number
    arrays and ``json`` parses the rest; on any failure the file is read
    again by ``json`` alone, whose refusals every caller gets.
    """
    records, arrays, error = [], [], None
    try:
        if cut:
            from ._json_numbers import cut_number_arrays  # only a dump read loads it
            text, numbers = cut_number_arrays(path.read_bytes())
            payload = json.loads(text, object_hook=functools.partial(
                _decode_vectors, booleans=_spells_a_boolean(text), arrays=numbers))
        else:
            payload = json_file(path, lambda text: functools.partial(
                _decode_vectors, booleans=_spells_a_boolean(text)))
        for pos, record in enumerate(payload if isinstance(payload, list) else [payload]):
            step, key, sens = _parse_record(record, f"{path}: record {pos}")
            records.append((step, key, sens.size))
            arrays.append(sens)
    except Exception as exc:  # any failure of the read; the caller raises it in file order
        if cut:
            return _read_file(path, cut=False)
        error = exc
    return records, np.concatenate(arrays) if arrays else np.empty(0), error


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _process_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` processes: the one way this package starts any.

    They start by ``fork`` on Linux when this process runs one Python
    thread, and by ``spawn`` everywhere else: a forked process starts at
    once, but another thread may hold a lock that it inherits, and macOS
    libraries are not fork-safe.  ``multiprocessing`` is imported here, so
    a run that starts no process does not load it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = sys.platform == "linux" and threading.active_count() == 1
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork" if fork else "spawn"))


def _read_files(files: list):
    """:func:`_read_file` of each file, in order; in helper processes when that pays.

    One helper per usable CPU, and no more than there are files or
    multiples of ``_HELPER_MIN_BYTES``; with fewer than two, the files are
    read here, one at a time.  Helpers come from :func:`_process_pool`.
    Results stop at the first file that failed.  If the helpers cannot
    start or die, the files are read here.
    """
    try:
        size = sum(file.stat().st_size for file in files)
    except OSError:  # the read raises it in its turn
        size = 0
    helpers = min(_usable_cpus(), len(files), size // max(_HELPER_MIN_BYTES, 1))
    if helpers > 1:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool

        # a process that multiprocessing started, such as a `simulate --jobs`
        # worker, reads here: its parent already runs processes side by side
        if multiprocessing.parent_process() is None:
            results = []
            try:
                pool = _process_pool(helpers)
                try:
                    for result in pool.map(_read_file, files):
                        results.append(result)
                        if result[2] is not None:
                            break
                finally:
                    pool.shutdown(cancel_futures=True)
                return results
            except (OSError, BrokenProcessPool):
                pass
    return (_read_file(file) for file in files)


def read_score_dump(dump_dir):
    """Load a dump directory into the step-stream form used by replay_scores.

    Every ``*.json`` file holds one record object or a list of them; records
    are pooled across files and grouped by step (ascending).  ``step``,
    ``layer_id`` and ``index`` must be JSON integers (a bias ``index`` may
    be absent or null), ``tensor`` a JSON string, ``values`` and ``grads``
    arrays of finite JSON numbers (read by :func:`_inputs.number_array`),
    and keys without a reader are ignored.  Malformed records raise
    ValueError naming the file and record position.

    Each step maps a :class:`TensorKey` to the float64 array
    :func:`sensitivity` |values * grads|, which is all :func:`replay_scores`
    uses and half the memory of the values and grads; a record whose
    product overflows a float is refused.  A dump of several files and at
    least twice ``_HELPER_MIN_BYTES`` is parsed in helper processes, one
    per usable CPU (see :func:`_read_files`).  They are forked on Linux
    when the caller runs one Python thread, and spawned otherwise; a script
    that calls this on such a dump where helpers spawn needs the
    ``if __name__ == "__main__":`` guard: without it each helper runs the
    script's top-level code again before it fails and the dump is read
    here.  Files are merged in name order, so the result and the first
    error are those of a read file by file.
    """
    dump_dir = Path(dump_dir)
    if not dump_dir.is_dir():
        raise ValueError(f"dump directory not found: {dump_dir}")
    files = sorted(dump_dir.glob("*.json"))
    if not files:
        raise ValueError(f"no .json records in {dump_dir}")
    by_step = {}
    for file, (records, packed, error) in zip(files, _read_files(files)):
        start = 0
        for pos, (step, key, length) in enumerate(records):
            slot = by_step.setdefault(step, {})
            if key in slot:
                raise ValueError(f"{file}: record {pos}: duplicate tensor {key} at step {step}")
            slot[key] = packed[start:start + length]
            start += length
        if error is not None:
            raise error
    return [by_step[step] for step in sorted(by_step)]
