"""Every function the benchmark's tracer wraps is still bound where it looks.

``bench/spans.py`` records spans by replacing names in ``BINDINGS`` on
their ``pingpong`` modules; a name that disappears breaks the traced
benchmark run (``python3 bench/run.py --trace 1``).  The definitions that
``tests/test_reach.py`` keeps only for the tracer are the ones it wraps.
"""

import importlib
import sys
from pathlib import Path

from test_reach import BENCH_ONLY, TEST_ONLY

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans").BINDINGS
    finally:
        sys.path.remove(str(BENCH))


def test_bench_bindings_resolve():
    bindings = _bindings()
    assert bindings
    for mod, attrs in bindings.items():
        module = importlib.import_module(f"pingpong.{mod}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"pingpong.{mod}.{attr}"


def test_bench_wraps_every_bench_only_definition_and_no_test_only_one():
    bound = set()
    for mod, attrs in _bindings().items():
        module = importlib.import_module(f"pingpong.{mod}")
        for attr in attrs:
            fn = getattr(module, attr)
            bound.add(f"{fn.__module__.removeprefix('pingpong.')}.{fn.__name__}")
    assert bound & (set(TEST_ONLY) | BENCH_ONLY) == BENCH_ONLY
