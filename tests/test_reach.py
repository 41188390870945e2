"""Every function, class, method and property in ``src/pingpong`` is reached.

A module-level definition is reached when another part of ``src/`` uses it
as code: an ``ast.Name`` or ``ast.Attribute`` that resolves to it, outside
its own body.  An import alone does not count, so neither do
``__init__.py``'s exports nor the bench-only imports that ``bench/spans.py``
wraps; nor does a string or a comment.  A method or property (dunders
aside) is reached by an ``ast.Attribute`` of its name outside its own body,
whatever the receiver, unless that attribute is called with arguments its
signature cannot take: numpy's ``v.transpose(0, 2, 1)`` does not reach
``IntMatrix.transpose``.  What is left unreached must be named either in
``TEST_ONLY`` below, with the reason it stays, or in ``BENCH_ONLY``, which
``tests/test_bench_hooks.py`` checks against ``bench/spans.BINDINGS``.  A
new unreached definition fails here, and so does a pinned one that gained
a caller or was deleted.  Likewise every name a module of
``src/pingpong`` or ``tests`` imports is used there as code, unless the
line says ``# noqa: F401`` (the bench-only imports); ``__init__.py`` only
exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pingpong"
TESTS = ROOT / "tests"

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
    "matrices.IntMatrix.power": "builds the block-power and Schottky fixtures of the tests",
    "matrices.IntMatrix.transpose": "the Gram matrix g^t g of the Cauchy-Binet property test",
}

# unreached in src/, and kept only because the benchmark's tracer wraps them
# (tests/test_bench_hooks.py checks that it does)
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


def _methods(modules):
    """mod.Class.name -> the ast.arguments of every method and property, dunders aside."""
    return {
        f"{mod}.{node.name}.{item.name}": item
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("__")
    }


def _fits(method, call):
    """Whether a call's arguments fit the method's signature; a starred one always may."""
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    if starred or any(k.arg is None for k in call.keywords):
        return True
    args = method.args
    params = [a.arg for a in args.posonlyargs + args.args]
    if not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list):
        params = params[1:]  # self or cls
    given = len(call.args)
    if given > len(params) and args.vararg is None:
        return False
    names = {k.arg for k in call.keywords}
    kwonly = [a.arg for a in args.kwonlyargs]
    if args.kwarg is None and not names <= set(params[given:] + kwonly):
        return False
    required = params[given : len(params) - len(args.defaults)]
    required += [a for a, d in zip(kwonly, args.kw_defaults) if d is None]
    return set(required) <= names


def _attribute_uses(tree):
    """(attribute, call or None, enclosing Class.method or None) for each ast.Attribute."""
    uses = []
    for node in tree.body:
        bodies = [(node, None)]
        if isinstance(node, ast.ClassDef):
            bodies = [(item, f"{node.name}.{getattr(item, 'name', '')}") for item in node.body]
        for body, owner in bodies:
            calls = {id(c.func): c for c in ast.walk(body) if isinstance(c, ast.Call)}
            for sub in ast.walk(body):
                if isinstance(sub, ast.Attribute):
                    uses.append((sub.attr, calls.get(id(sub)), owner))
    return uses


def _unreached_methods(modules):
    methods = _methods(modules)
    reached = set()
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        for attr, call, owner in _attribute_uses(tree):
            for name, method in methods.items():
                own = owner is not None and name == f"{mod}.{owner}"
                if name.endswith(f".{attr}") and not own and (call is None or _fits(method, call)):
                    reached.add(name)
    return set(methods) - reached


def _unreached():
    modules = _modules()
    defined = _definitions(modules)
    reached = set()
    for mod, tree in modules.items():
        if mod != "__init__":
            reached |= _references(mod, tree, defined)
    return defined - reached | _unreached_methods(modules)


def test_every_definition_is_reached_or_pinned():
    assert not BENCH_ONLY & set(TEST_ONLY)
    assert _unreached() == set(TEST_ONLY) | BENCH_ONLY


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


def test_reach_of_methods_counts_fitting_calls_outside_their_own_body():
    modules = {
        "matrices": ast.parse(
            "class M:\n"
            "    @property\n"
            "    def n(self):\n"
            "        return 2\n"
            "    def power(self, e):\n"
            "        return self.power(e - 1)\n"
            "    def transpose(self):\n"
            "        return self\n"
            "    @staticmethod\n"
            "    def make(rows, *, exact=True):\n"
            "        return M()\n"
            "    def __matmul__(self, other):\n"
            "        return self\n"
        ),
        "harness": ast.parse(
            "def run(v, g):\n"
            "    return v.transpose(0, 2, 1), g.n, M.make([1], exact=False), 'power'\n"
        ),
    }
    assert _unreached_methods(modules) == {"matrices.M.power", "matrices.M.transpose"}


def _unused_imports(source: str) -> list:
    """Names a module imports but never uses as code; noqa: F401 lines aside."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        if not future and not noqa:
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {
        p.relative_to(ROOT).as_posix(): _unused_imports(p.read_text())
        for p in paths
        if p.name != "__init__.py"
    }
    assert {path: names for path, names in unused.items() if names} == {}


def test_import_check_counts_code_not_strings_or_comments():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from .matrices import inverse  # noqa: F401\n"
        "from .certify import (  # noqa: F401\n"
        "    svd,\n"
        ")\n"
        "def f(x):\n"
        "    return np.abs(x), os.path.sep, 'Fraction'  # Fraction\n"
    )
    assert _unused_imports(source) == ["Fraction (line 4)"]
