"""Every public name of the package has a caller in the program.

A name in `altproj.__all__` or in a module's `__all__` must be used by
another module of `src/altproj`, by its own module beyond its definition,
or by the benchmark under `perfbench/`.  Public API that only the tests use
is dead weight: it has to be kept equal to the code that does the work.
The names in `TEST_ONLY` are the only exceptions, each with its reason.

Uses are read from the syntax tree: a name imported from its module, an
attribute of a name bound to that module (`spiral.alpha_chain`,
`altproj.spiral.alpha_chain`, `altproj.BACKEND`), and, in the module itself,
a load of the name.  An attribute that merely shares the name is not a use:
`np.finfo(x).eps` is not `spiral.eps`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "altproj"
PACKAGE = "__init__"

#: (module, name) -> why the name stays public without a caller.
TEST_ONLY = {
    ("counterexample", "run_corollary"):
        "the library's retrace check of the corollary: the acceptance tests rest on it",
}

TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _all(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _owners() -> dict:
    """Each name of the package namespace -> (defining module, name)."""
    owners = {name: (PACKAGE, name) for name in _all(TREES[PACKAGE])}
    for node in TREES[PACKAGE].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                owners[alias.asname or alias.name] = (node.module, alias.name)
    return owners


OWNERS = _owners()


def _source(node: ast.ImportFrom):
    """The package module an import reads from, or None for a foreign one."""
    if node.level == 1:
        return node.module or PACKAGE
    if node.level == 0 and node.module == "altproj":
        return PACKAGE
    if node.level == 0 and node.module and node.module.startswith("altproj."):
        return node.module.split(".", 1)[1]
    return None


def uses(tree: ast.Module, here=None) -> set:
    """The (module, name) pairs of the package that `tree` refers to;
    `here` is the tree's own module, whose loads count as uses."""
    found, modules = set(), {}

    def refer(module, name):
        if module == PACKAGE and name in TREES:
            return
        found.add(OWNERS.get(name, (module, name)) if module == PACKAGE else (module, name))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, sub = alias.name.partition(".")
                if top == "altproj":
                    # `import altproj.cli` binds `altproj`; `... as c` binds the module
                    modules[alias.asname or top] = (sub or PACKAGE) if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom) and (source := _source(node)) is not None:
            for alias in node.names:
                if source == PACKAGE and alias.name in TREES:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    refer(source, alias.name)

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and module_of(expr.value) == PACKAGE:
            return expr.attr if expr.attr in TREES else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (module := module_of(node.value)) is not None:
            refer(module, node.attr)
        elif here is not None and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((here, node.id))
    return found


def public_names() -> set:
    names = set()
    for module, tree in TREES.items():
        for name in _all(tree):
            names.add(OWNERS[name] if module == PACKAGE else (module, name))
    return names


def program_uses() -> set:
    # the package's own imports are the re-exports under test, not uses
    found = set()
    for module, tree in TREES.items():
        if module != PACKAGE:
            found |= uses(tree, module)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        found |= uses(ast.parse(path.read_text(), str(path)))
    return found


def test_every_public_name_has_a_program_caller():
    orphans = sorted(public_names() - program_uses() - TEST_ONLY.keys())
    assert orphans == [], f"public names only the tests use: {orphans}"


def test_every_exemption_is_public_and_still_without_a_caller():
    for key, reason in TEST_ONLY.items():
        assert key in public_names() and key not in program_uses(), key
        assert reason


def test_a_shared_attribute_name_is_not_a_use():
    tree = ast.parse("import numpy as np\nx = np.finfo(float).eps\ny = obj.alpha_chain\n")
    assert uses(tree) == set()
    tree = ast.parse("from altproj import spiral\nx = spiral.eps\n")
    assert uses(tree) == {("spiral", "eps")}


def test_imports_and_module_attributes_are_uses():
    tree = ast.parse("import altproj\nimport altproj.cli\nfrom altproj import generate\n"
                     "from altproj.euclid import Ball as B\nimport altproj.map_driver as md\n"
                     "altproj.BACKEND, altproj.spiral.columns, altproj.cli.main, md.run\n")
    assert uses(tree) == {("__init__", "BACKEND"), ("sequence", "generate"), ("euclid", "Ball"),
                          ("spiral", "columns"), ("cli", "main"), ("map_driver", "run")}
    tree = ast.parse("from . import euclid\nfrom .spiral import advance\n"
                     "def f():\n    return euclid._integer, helper\n")
    assert uses(tree, "sequence") == {("euclid", "_integer"), ("spiral", "advance"),
                                      ("sequence", "euclid"), ("sequence", "helper")}
