"""JSON helpers: complex values are serialized as {"re": x, "im": y} pairs,
and the objects and numbers read from documents are type-checked."""

import math

import numpy as np

from .errors import ParameterError, ShapeError


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


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex_from_json(z) for z in row] for row in rows], dtype=complex)

