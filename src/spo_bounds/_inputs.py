"""One reader for every input file: JSON objects go through ``_read_object``
and arrays of numbers through ``_read_array``.  The constructors behind them
keep their own range, shape and finiteness checks."""

from __future__ import annotations

import math

import numpy as np


def _require_number(name: str, val, integer: bool = False) -> None:
    """Refuse a value that is not a number (bools included), not an integer
    where one is required, or not finite (NaN passes every range check,
    since each comparison with it is false)."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                         f"got {val!r}")
    if isinstance(val, (float, np.floating)) and not math.isfinite(val):
        raise ValueError(f"{name} must be finite, got {val!r}")


def _read_object(data, what: str, keys: dict, required=()) -> dict:
    """``data``, a JSON object (``what`` in messages), as a new dict whose keys
    are among ``keys`` and include the ``required`` ones.  ``keys`` gives each
    key's type: ``float`` or ``int`` (see ``_require_number``), ``str``, ``None``
    null, ``object`` any value (its constructor checks it), or a depth n, an
    array read by ``_read_array``.  Null stands for an absent optional key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    read = dict(data)
    for key, val in data.items():
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}")
        kind, name = keys[key], f"{what} {key}"
        if type(kind) is int:
            read[key] = _read_array(val, name, kind)
        elif val is None and key not in required:
            continue
        elif kind in (int, float):
            _require_number(name, val, kind is int)
        elif not isinstance(val, kind or type(None)):
            raise ValueError(f"{name} must be {'a string' if kind else 'null'}, got {val!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} is missing key {key!r}")
    return read


def _read_kind(data, what: str, kinds: dict) -> tuple[str, dict]:
    """A JSON object whose keys depend on its string ``kind``, read first and
    alone: ``kinds`` maps each kind to its ``(keys, required)``."""
    every = {key: object for keys, _ in kinds.values() for key in keys}
    kind = _read_object(data, what, {**every, "kind": str}, ("kind",))["kind"]
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    keys, required = kinds[kind]
    return kind, _read_object(data, f"{kind} {what}", {"kind": str, **keys}, required)


def _read_array(data, what: str, ndim: int) -> np.ndarray:
    """``data`` as one array, converted by one numpy call and refused unless
    numpy infers numbers (a bool alone is none, an integer past 64 bits an
    object) in a non-empty ``ndim``-D shape, which refuses ragged nesting.
    The inferred dtype is kept, so integers stay int64."""
    try:
        array = np.array(data)
    except ValueError:  # ragged nesting
        array = None
    if (array is None or array.ndim != ndim or array.size == 0
            or array.dtype.kind not in "iuf"):
        nesting = "" if ndim == 1 else (f" nested {ndim} deep, whose lists share one "
                                        f"shape at each depth")
        raise ValueError(f"{what} must be a non-empty JSON list of numbers{nesting}")
    return array
