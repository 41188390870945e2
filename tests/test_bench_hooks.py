"""Every function the benchmark's tracer wraps is still bound where it looks.

``bench/spans.py`` records spans by replacing names in ``BINDINGS`` on
their ``pingpong`` modules; a name that disappears breaks the traced
benchmark run (``python3 bench/run.py --trace 1``).
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_bindings_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
    assert spans.BINDINGS
    for mod, attrs in spans.BINDINGS.items():
        module = importlib.import_module(f"pingpong.{mod}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"pingpong.{mod}.{attr}"
