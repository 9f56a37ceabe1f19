"""JSON helpers: complex values are serialized as {"re": x, "im": y} pairs."""

import numpy as np

from .errors import ShapeError


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

