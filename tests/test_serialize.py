"""Wire formats: decimal-string matrices and canonical JSON."""

import json

import pytest

from pingpong.errors import ConfigError
from pingpong.matrices import IntMatrix
from pingpong.serialize import (
    canonical_json,
    format_float,
    matrix_from_obj,
    matrix_to_obj,
    pair_from_obj,
    pair_to_obj,
)

H = IntMatrix.from_rows([[2, 1], [1, 1]])


def test_matrix_round_trip_preserves_huge_entries():
    g = H.power(300)  # hundreds of digits per entry
    obj = matrix_to_obj(g)
    assert all(isinstance(x, str) for row in obj for x in row)
    assert matrix_from_obj(json.loads(json.dumps(obj))) == g


def test_matrix_from_obj_rejects_garbage():
    with pytest.raises(ConfigError):
        matrix_from_obj([["1", "x"], ["0", "1"]])
    # only JSON integers and decimal-integer strings: nothing is truncated or coerced
    for bad in (2.9, 1.0, True, False, None, "1_0", " 1", "1 ", "+-1", "", "-", "0x1", "²", "٣"):
        with pytest.raises(ConfigError, match="not an integer"):
            matrix_from_obj([[bad, 0], [0, 1]])
    # a row or a matrix that is a string or an object, not an array
    for bad in (["21", "11"], [{"2": 0, "1": 0}, ["1", "1"]], "2111", {"21": 0, "11": 0}):
        with pytest.raises(ConfigError, match="array of row arrays"):
            matrix_from_obj(bad)
    assert matrix_from_obj([["+1", "-0"], [0, 1]]) == IntMatrix.identity(2)
    assert matrix_from_obj([["1" + "0" * 40, -1], [1, 0]]).entries[0][0] == 10**40


def test_pair_round_trip():
    g1, g2 = H, H.power(2)
    assert pair_from_obj(pair_to_obj(g1, g2)) == (g1, g2)
    with pytest.raises(ConfigError):
        pair_from_obj({"g1": [["1"]]})
    with pytest.raises(ConfigError, match="1x1 matrices; need n >= 2"):
        pair_from_obj({"g1": [["1"]], "g2": [["1"]]})


def test_format_float_significant_digits():
    assert format_float(0.1 + 0.2) == "0.3"
    assert format_float(1.0) == "1"
    assert format_float(1.35475564568123) == "1.35475564568"


def test_canonical_json_idempotent_under_parse():
    obj = {"a": 1.2345678901234567, "b": [1, 2.5, None, True], "c": "x"}
    text = canonical_json(obj)
    assert canonical_json(json.loads(text)) == text
