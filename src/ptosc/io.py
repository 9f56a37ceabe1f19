"""JSON helpers: complex values are serialized as {"re": x, "im": y} pairs,
documents are read from files, and the objects and numbers read from
documents are type-checked."""

import json
import math

import numpy as np

from .errors import ParameterError, ShapeError


def read_json(path: str, what: str):
    """The JSON document in the file ``path``; a file that cannot be read or
    parsed raises ParameterError naming ``what`` and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {what} {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"{what} {path!r} is not valid JSON: {exc}") from None


def json_object(value, what: str, required=(), optional=()) -> dict:
    """A JSON object with every required key and no key outside required + optional."""
    if not isinstance(value, dict):
        raise ParameterError(f"{what} must be an object, got {type(value).__name__}")
    if not set(required) <= set(value) <= set(required) | set(optional):
        raise ParameterError(f"{what} takes the required keys {list(required)} and optionally {list(optional)}, got {sorted(value)}")
    return value


def json_number(value, what: str) -> float:
    """A JSON number (not a bool) as a float; ParameterError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{what} must be a number, got {value!r}")
    return float(value)


def json_finite(value, what: str) -> float:
    """A finite JSON number as a float; ParameterError otherwise."""
    x = json_number(value, what)
    if not math.isfinite(x):
        raise ParameterError(f"{what} must be finite, got {x!r}")
    return x


def json_integer(value, what: str) -> int:
    """A JSON integer (an integral float such as 4.0 counts); ParameterError otherwise."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ShapeError(f"not a serialized complex number: {obj!r}")
    return complex(obj["re"], obj["im"])


def matrix_to_json(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in a]


def matrix_from_json(rows, what: str = "a matrix") -> np.ndarray:
    """A complex matrix from a list of equal-length rows; ShapeError otherwise."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows) and len({len(row) for row in rows}) <= 1):
        raise ShapeError(f"{what} must be a list of equal-length lists, got {rows!r}")
    return np.array([[complex_from_json(z) for z in row] for row in rows], dtype=complex)

