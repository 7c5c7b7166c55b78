"""The one rule for input files and the values read from them.

:func:`json_file` (config, covariance JSON, score dumps) and
:func:`number_table` (covariance CSV, ``--mean``) read every input file as
UTF-8 whatever the locale, and every refusal of a file's text names it
by the path as given.
So does every refusal of what the file holds: :func:`named` names a JSON
file the way :func:`json_file` does, and a CSV reader names its file as
:func:`number_table` does.

Every value of the run config, covariance files and score-dump records
passes through here too, and so does every array of numbers among them:
covariance ``data`` and dump ``values`` and ``grads``, which
:func:`number_array` turns into float64 NumPy arrays.  ``json`` gives
integers as ``int``, other numbers as ``float`` and ``true``/``false`` as
``bool`` (itself an ``int``).  A reader takes such a value as it was
written: an integer field refuses a float, a boolean or a string instead
of truncating it, a number field refuses a boolean or a string instead of
converting it, a number array holds finite numbers only and a string field
refuses anything but a string.  :func:`read_object` applies one reader per
key of a JSON object and names the object and the key in every error.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from numbers import Integral, Real
from pathlib import Path

import numpy as np


def integer(value) -> int:
    """A JSON integer as is: a float or a boolean is refused, not truncated."""
    if type(value) is int:  # what json gives; skips the slower abstract-class check
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def number(value) -> float:
    """A JSON number as a float: a boolean or a string is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("must be a number, got an integer too large for a float") from None


_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least integer magnitude that float() cannot round to a float


def number_array(value, booleans: bool = True) -> np.ndarray:
    """A JSON array of finite numbers as a float64 array.

    ``struct.pack_into`` converts each element as ``float()`` does, faster
    than ``np.asarray``, and refuses strings, null, objects and nested
    arrays.  It takes a boolean as 0 or 1, so only an array holding an
    exact 0 or 1 has its element types scanned, and none with
    ``booleans=False``, which says the JSON text spells no ``true`` or
    ``false``.  NaN and infinities (JSON ``NaN``, ``Infinity`` or a number
    too large for a float such as ``1e400``) are refused.  Each refusal
    names the first bad element.  An ndarray is returned unchanged: only
    the score-dump reader passes one, made by this function in its object
    hook or by :func:`._json_numbers.cut_number_arrays`.
    """
    if isinstance(value, np.ndarray):
        return value
    if type(value) is not list:
        raise TypeError(f"must be an array of numbers, got {type(value).__name__}")
    array = np.empty(len(value))
    try:
        struct.pack_into(f"{len(value)}d", array, 0, *value)
    except struct.error:  # not a number, or an integer too large for a float
        array = None
    if array is None or booleans and (np.count_nonzero(array == 0.0) or np.count_nonzero(array == 1.0)):
        if not set(map(type, value)) <= {int, float}:
            index = next(i for i, item in enumerate(value) if type(item) not in (int, float))
            raise TypeError(f"must be numbers, got {type(value[index]).__name__} at element {index}")
        if array is None:  # every element is a number, so one is an integer too large for a float
            index = next(i for i, item in enumerate(value) if abs(item) >= _FLOAT_OVERFLOW)
            raise ValueError(f"must be numbers, got an integer too large for a float at element {index}")
    finite = np.isfinite(array)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(f"must be finite, got {array[index]} at element {index}")
    return array


def string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def read_object(obj, where: str, readers: dict, required=(), closed=True) -> dict:
    """``{key: readers[key](obj[key])}`` for every key of ``readers`` in ``obj``.

    ``obj`` must be a JSON object holding every key of ``required``.  A
    ``closed`` object refuses keys that have no reader; an open one ignores
    them.  Every refusal is a ValueError whose message starts with ``where``
    (or, for unknown keys, reads ``unknown <where> keys``).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(obj) - set(readers) if closed else ()
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{where} missing required key {missing[0]!r}")
    values = {}
    for key, read in readers.items():
        if key in obj:
            try:
                values[key] = read(obj[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where} key {key!r}: {exc}") from exc
    return values


def json_file(path, hook=None):
    """The JSON value in the file ``path``, read as UTF-8 whatever the locale.

    ``hook(text)``, if given, returns the ``object_hook`` for the file's
    text.  Text that is not UTF-8 or not JSON raises ValueError naming the
    file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        return json.loads(text, object_hook=hook(text) if hook else None)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


@contextmanager
def named(path):
    """Prefix ``{path}: `` to a ValueError raised inside, as :func:`json_file` names a file."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{Path(path)}: {exc}") from exc


def number_table(path, what: str) -> np.ndarray:
    """The headerless CSV file ``path`` as a 2-D float64 array, one row per line.

    The file is read as UTF-8.  Text from ``#`` to the end of a line is a
    comment, blank lines are skipped, fields may have spaces around them
    and lines may end in CRLF.  Ragged rows, fields that are not finite
    numbers and a file without numbers raise ValueError naming ``what``,
    the file and the 1-based line (and column).
    """
    where = f"{what} {path}"
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{where}: not UTF-8 text: {exc}") from exc
    rows = []
    for line_no, line in enumerate(lines, 1):
        text = line.split("#", 1)[0]
        if not text.strip():
            continue
        row = []
        for column, field in enumerate(text.split(","), 1):
            try:
                value = float(field)
            except ValueError:
                value = math.nan
            if not math.isfinite(value) or "_" in field:  # float() reads 1_0 as 10
                raise ValueError(f"{where}: line {line_no} column {column}: "
                                 f"must be a finite number, got {field.strip()!r}")
            row.append(value)
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{where}: line {line_no}: expected {len(rows[0])} fields as in the first row, "
                             f"got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{where}: holds no numbers")
    return np.array(rows)
