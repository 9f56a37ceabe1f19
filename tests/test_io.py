import json

import numpy as np
import pytest

from ptosc.errors import ShapeError
from ptosc.io import (
    complex_from_json,
    complex_to_json,
    matrix_from_json,
    matrix_to_json,
)


def test_complex_round_trip():
    z = 1.5 - 2.25j
    doc = complex_to_json(z)
    assert doc == {"re": 1.5, "im": -2.25}
    assert complex_from_json(doc) == z
    assert complex_from_json(3) == 3 + 0j  # bare reals accepted on input


def test_complex_rejects_malformed():
    with pytest.raises(ShapeError):
        complex_from_json({"re": 1.0})
    with pytest.raises(ShapeError):
        complex_from_json("1+2j")


def test_matrix_round_trip_is_json_safe():
    rng = np.random.default_rng(83)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m2 = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    np.testing.assert_array_equal(m, m2)
