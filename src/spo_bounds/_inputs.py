"""One reader for every input: JSON text goes through ``_read_json``,
objects through ``_read_object``, arrays of numbers through ``_read_array``
and every scalar through ``_require_number``.  The constructors behind them
keep their relational, shape and finiteness checks on arrays."""

from __future__ import annotations

import json
import math

import numpy as np


def _read_json(text: str, what: str):
    """``text`` parsed as JSON.  A document nested past Python's recursion
    limit is refused as a ``ValueError``, as malformed JSON is."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to read") from None


_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def _require_number(name: str, val, integer: bool = False, *, at_least=None, above=None,
                    at_most=None, below=None):
    """``val`` as the Python number it equals, so what echoes it goes through
    ``json.dumps``; the package's one scalar check.  Refused unless it is a
    number (a numpy scalar too, a bool never), an integer where ``integer``
    asks for one, and within its bounds, each given or not: ``at_least``
    (closed) or ``above`` (open) from below, ``at_most`` (closed) or
    ``below`` (open) from above.  NaN is always refused, and an infinity
    unless a closed bound equals it (a norm exponent takes ``math.inf`` with
    ``at_most=math.inf``).  The message reads ``n must be an integer >= 1,
    got 0``."""
    if (isinstance(val, _INTEGERS if integer else _NUMBERS) and not isinstance(val, bool)
            and (at_least is None or val >= at_least) and (above is None or val > above)
            and (at_most is None or val <= at_most) and (below is None or val < below)
            and (-math.inf < val < math.inf or val == at_least or val == at_most)):
        return val.item() if isinstance(val, np.generic) else val
    low = at_least if above is None else above
    high = at_most if below is None else below
    if low is not None and high is not None:
        span = f" in {'[(' [above is not None]}{low}, {high}{'])' [below is not None]}"
    else:  # one bound or none
        span = "".join(f" {op} {end}" for op, end in (
            (">=", at_least), (">", above), ("<=", at_most), ("<", below)) if end is not None)
    kind = ("an integer" if integer
            else "a number" if low is not None and high is not None else "a finite number")
    raise ValueError(f"{name} must be {kind}{span}, got {val!r}")


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
