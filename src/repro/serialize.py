"""JSON normalisation of experiment outputs.

Every experiment's ``compute`` returns rich Python objects — frozen
dataclasses, dicts keyed by floats, numpy scalars and arrays.  The campaign
run store persists those outputs to disk as JSON, so they must survive a
``json.dumps``/``json.loads`` round trip losslessly.  :func:`to_jsonable` is
that contract: it maps any experiment output onto the plain
dict/list/str/number subset of Python that JSON represents natively.

Rules:

* dataclasses become dicts in field order;
* numpy scalars become their Python equivalents, numpy arrays become
  (nested) lists;
* tuples, lists and any other ``Sequence`` (an archived snapshot's
  positions, a typed ``array``) become lists; sets become sorted lists;
* dict keys are stringified (``{10.0: ...}`` → ``{"10.0": ...}``) because
  JSON object keys are always strings;
* non-finite floats become the strings ``"NaN"`` / ``"Infinity"`` /
  ``"-Infinity"`` — strict JSON has no token for them, and Python's default
  ``json.dumps`` would emit bare ``NaN`` which ``JSON.parse`` and every
  non-Python consumer reject (the run store dumps with ``allow_nan=False``
  to enforce this at the write boundary);
* anything else falls back to ``str(obj)``.

The output contains only types ``json.dumps`` serialises natively, so
``json.loads(json.dumps(to_jsonable(x))) == to_jsonable(x)`` holds for every
experiment (asserted over all experiment ids in the test suite).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from typing import Any

import numpy as np

__all__ = ["to_jsonable"]


def _key(key: Any) -> str:
    """Normalise a dict key to the string JSON requires."""
    if isinstance(key, str):
        return key
    if isinstance(key, np.generic):
        key = key.item()
    return str(key)


def _finite_float(value: float) -> float | str:
    """Map non-finite floats onto their conventional string spellings."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` to JSON-round-trippable plain Python."""
    if isinstance(obj, float):
        # Checked before the catch-all scalar branch: json.dumps would
        # happily emit bare ``NaN``/``Infinity`` tokens that are not JSON.
        return _finite_float(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, Sequence)):
        return [to_jsonable(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(value) for value in sorted(obj, key=str)]
    return str(obj)
