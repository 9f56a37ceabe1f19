import json

import numpy as np
import pytest

from ptosc.errors import ParameterError
from ptosc.io import complex_from_json, matrix_from_json


def test_complex_from_json():
    assert complex_from_json({"re": 1.5, "im": -2.25}) == 1.5 - 2.25j
    assert complex_from_json(3) == 3 + 0j  # bare reals accepted on input


def test_complex_rejects_malformed():
    with pytest.raises(ParameterError):
        complex_from_json({"re": 1.0})
    with pytest.raises(ParameterError):
        complex_from_json("1+2j")


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"re": "1", "im": 0}, "z.re must be a number, got '1'"),
        ({"re": 1, "im": None}, "z.im must be a number, got None"),
        ({"re": 1, "im": True}, "z.im must be a number, got True"),
        (True, "z must be a number, got True"),
        (10**400, "z is an integer too large for a float"),
    ],
    ids=["string-re", "null-im", "bool-im", "bool", "huge-int"],
)
def test_complex_rejects_parts_that_are_not_numbers(obj, message):
    with pytest.raises(ParameterError) as info:
        complex_from_json(obj, "z")
    assert str(info.value) == message


def test_matrix_names_the_malformed_entry():
    with pytest.raises(ParameterError, match=r"^params\.a\[1\]\[0\]\.re must be a number"):
        matrix_from_json([[1.0, 0.0], [{"re": "0", "im": 0.0}, 1.0]], "params.a")


def test_matrix_round_trip_is_json_safe():
    rng = np.random.default_rng(83)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = [[{"re": z.real, "im": z.imag} for z in row.tolist()] for row in m]
    m2 = matrix_from_json(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(m, m2)
