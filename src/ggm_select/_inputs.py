"""The one rule for values read from JSON inputs.

The run config, covariance files and score-dump records all pass through
here.  ``json`` gives integers as ``int``, other numbers as ``float`` and
``true``/``false`` as ``bool`` (itself an ``int``).  A reader takes such a
value as it was written: an integer field refuses a float, a boolean or a
string instead of truncating it, a number field refuses a boolean or a
string instead of converting it, a number array holds numbers only and a
string field refuses anything but a string.  :func:`read_object` applies
one reader per key of a JSON object and names the object and the key in
every error.
"""

from __future__ import annotations

from numbers import Integral, Real


def integer(value) -> int:
    """A JSON integer as is: a float or a boolean is refused, not truncated."""
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


def number_list(value) -> list:
    """A JSON array of numbers as a list of floats; each element as in :func:`number`."""
    if not isinstance(value, list):
        raise TypeError(f"must be an array of numbers, got {type(value).__name__}")
    values = []
    for index, item in enumerate(value):
        try:
            values.append(number(item))
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"element {index} {exc}") from None
    return values


def string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
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
