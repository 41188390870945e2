"""Wire formats: decimal-string matrices, word strings, canonical JSON.

Matrices cross process boundaries as JSON arrays of decimal strings so
that arbitrary-precision entries survive a round-trip.  Canonical JSON
fixes key order (insertion order of the emitting dict) and formats every
float with 12 significant digits, which makes emit(parse(emit(x)))
byte-identical to emit(x).
"""

from __future__ import annotations

import json

from .errors import ConfigError
from .matrices import IntMatrix


def matrix_to_obj(m: IntMatrix | list[list[int]]) -> list[list[str]]:
    rows = m.entries if isinstance(m, IntMatrix) else m
    return [[str(x) for x in row] for row in rows]


def matrix_from_obj(obj) -> IntMatrix:
    try:
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in obj))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a valid matrix object: {exc}") from exc


def pair_to_obj(g1: IntMatrix, g2: IntMatrix) -> dict:
    return {"g1": matrix_to_obj(g1), "g2": matrix_to_obj(g2)}


def pair_from_obj(obj) -> tuple[IntMatrix, IntMatrix]:
    if not isinstance(obj, dict) or "g1" not in obj or "g2" not in obj:
        raise ConfigError('pair file must be a JSON object with keys "g1" and "g2"')
    g1, g2 = matrix_from_obj(obj["g1"]), matrix_from_obj(obj["g2"])
    if g1.n != g2.n:
        raise ConfigError(f"pair holds a {g1.n}x{g1.n} and a {g2.n}x{g2.n} matrix")
    if g1.n < 2:
        raise ConfigError(f"pair holds {g1.n}x{g1.n} matrices; need n >= 2")
    return g1, g2


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_pair(path: str) -> tuple[IntMatrix, IntMatrix]:
    return pair_from_obj(load_json(path))


def format_float(x: float) -> str:
    return format(float(x), ".12g")


def canonical_json(obj) -> str:
    """Serialize with insertion-order keys and 12-significant-digit floats."""
    return _emit(obj) + "\n"


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise ConfigError(f"cannot canonically serialize {type(obj).__name__}")
