"""Every module-level function and class in ``src/pingpong`` is reached.

A definition is reached when another part of ``src/`` uses it as code: an
``ast.Name`` or ``ast.Attribute`` that resolves to it, outside its own
body.  An import alone does not count, so neither do ``__init__.py``'s
exports nor the bench-only imports that ``bench/spans.py`` wraps; nor does
a string or a comment.  What is left unreached must be named either in
``bench/spans.BINDINGS`` or in ``TEST_ONLY`` below, with the reason it
stays.  A new unreached definition fails here, and so does a pinned one
that gained a caller or was deleted.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pingpong"
BENCH = ROOT / "bench"

# library API that only the tests and acceptance criteria call: each is
# the reference a test compares the array passes or the theory against
TEST_ONLY = {
    "dynamics.check_twoops": "acceptance criterion 11: the two-ops inequality on reduced words",
    "haar.gap_fraction": "acceptance criteria 07 and 08: Haar-volume fractions of gap regions",
    "wedge.wedge_matrix": "exact compound matrices: criteria 02 and 03 check witnesses with them",
    "sampler.in_ball": "the exact membership predicate per matrix, against enumeration",
    "matrices.evaluate_word": "re-evaluates an oracle relation to the identity exactly",
    "wedge.proj_distance": "the projective sine metric of the contraction tests",
    "haar.haar_density": "the Cartan density against closed forms",
    "serialize.pair_to_obj": "writes pair files for the CLI tests",
}

# unreached in src/, and kept only because the benchmark's tracer wraps them
BENCH_ONLY = {"wedge.attractor_repeller", "spectral.singular_gap", "certify.very_proximal"}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}


def _definitions(modules):
    return {
        f"{mod}.{node.name}"
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _references(mod, tree, defined):
    """Qualified names that module ``mod`` uses as code, outside their own bodies."""
    # local name -> qualified name, for the package's relative imports
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                target = f"{node.module}.{alias.name}" if node.module else alias.name
                imported[local] = target

    def resolve(name):
        own = f"{mod}.{name}"
        return own if own in defined else imported.get(name)

    found = set()
    for node in tree.body:
        refs = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.add(resolve(sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                # module.attr, for a module imported as ``from . import module``
                if imported.get(sub.value.id) == sub.value.id:
                    refs.add(f"{sub.value.id}.{sub.attr}")
        # a definition's references to itself (recursion) do not reach it
        refs.discard(f"{mod}.{getattr(node, 'name', '')}")
        found |= refs
    return found & defined


def _bench_bound():
    """The definitions bench/spans.py wraps, read as tests/test_bench_hooks.py reads it."""
    sys.path.insert(0, str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
    bound = set()
    for mod, attrs in spans.BINDINGS.items():
        module = importlib.import_module(f"pingpong.{mod}")
        for attr in attrs:
            fn = getattr(module, attr)
            bound.add(f"{fn.__module__.removeprefix('pingpong.')}.{fn.__name__}")
    return bound


def _unreached():
    modules = _modules()
    defined = _definitions(modules)
    reached = set()
    for mod, tree in modules.items():
        if mod != "__init__":
            reached |= _references(mod, tree, defined)
    return defined - reached


def test_every_definition_is_reached_or_pinned():
    unreached = _unreached()
    bound = _bench_bound()
    assert unreached - bound == set(TEST_ONLY)
    assert unreached & bound == BENCH_ONLY


def test_reach_counts_code_not_imports_strings_or_self_calls():
    tree = ast.parse(
        "from .spectral import singular_gap  # noqa: F401\n"
        "from .dynamics import find_relations\n"
        "from . import serialize\n"
        "def walk(k):\n"
        "    return walk(k - 1) + find_relations(k) + serialize.canonical_json(k)\n"
        "NOTE = 'svd_batch'  # svd_batch\n"
    )
    defined = {
        "harness.walk",
        "spectral.singular_gap",
        "spectral.svd_batch",
        "dynamics.find_relations",
        "serialize.canonical_json",
    }
    found = _references("harness", tree, defined)
    assert found == {"dynamics.find_relations", "serialize.canonical_json"}
