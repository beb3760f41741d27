"""One owner for the leaf bound, and two callers.

`_CloudIndex.search`, the one cloud search, and `sequence.verify_nearest`
prune leaves by `_CloudIndex.bounds`, whose bound is shrunk by
`_BOUND_SLACK` so that rounding never prunes a leaf holding a point within
the threshold.  A second bound expression written inline would have to
repeat that shrinking exactly, and a third caller of `bounds` would be a
second cloud search with its own pruning to prove.  Read from the syntax
tree, this fails on any read of `_BOUND_SLACK` in the package outside
`_CloudIndex.bounds`, and on any call of a `bounds` method outside the two
callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "altproj"

#: The one function that may read the slack, as (class, function).
OWNER = ("_CloudIndex", "bounds")

#: The functions that may call `bounds`, as (module, where).
CALLERS = {("euclid", "_CloudIndex.search"), ("sequence", "verify_nearest")}


def _scan(tree: ast.Module, found) -> list:
    """(line, where) for each node for which `found(node, where)` holds,
    `where` the tuple of class and function names around it."""
    hits = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (*where, node.name)
        if found(node, where):
            hits.append((node.lineno, ".".join(where) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, ())
    return hits


def slack_reads(tree: ast.Module) -> list:
    """(line, where) for each read of `_BOUND_SLACK` outside its owner."""
    return _scan(tree, lambda node, where: where != OWNER and (
        (isinstance(node, ast.Name) and node.id == "_BOUND_SLACK"
         and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "_BOUND_SLACK")))


def bounds_calls(tree: ast.Module) -> list:
    """(line, where) for each call of a `bounds` method."""
    return _scan(tree, lambda node, where: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bounds"))


def _package():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_only_bounds_reads_the_bound_slack():
    found = {name: reads for name, tree in _package().items()
             if (reads := slack_reads(tree))}
    assert found == {}
    euclid = ast.parse((SRC / "euclid.py").read_text())
    owner = [n for n in ast.walk(euclid) if isinstance(n, ast.ClassDef) and n.name == OWNER[0]]
    assert any(isinstance(n, ast.Name) and n.id == "_BOUND_SLACK"
               for n in ast.walk(owner[0]))  # the owner itself still shrinks its bound


def test_the_guard_sees_a_second_bound():
    tree = ast.parse(
        "_BOUND_SLACK = 1.0 - 8.0 * eps\n"
        "class _CloudIndex:\n"
        "    def bounds(self, lo, hi):\n"
        "        return gap * _BOUND_SLACK\n"
        "    def search_many(self, queries):\n"
        "        bound = gap * _BOUND_SLACK\n"
        "def bounds(lo, hi):\n"
        "    return gap * _BOUND_SLACK\n"
        "slack = euclid._BOUND_SLACK\n"
        "class Other:\n"
        "    def bounds(self):\n"
        "        return _BOUND_SLACK\n")
    assert slack_reads(tree) == [(6, "_CloudIndex.search_many"), (8, "bounds"),
                                 (9, "<module>"), (12, "Other.bounds")]


def callers(trees: dict) -> set:
    """(module, where) for each function calling `bounds` in `trees`, the
    syntax trees of modules by name."""
    return {(name, where) for name, tree in trees.items() for _, where in bounds_calls(tree)}


def test_only_search_and_verify_nearest_call_bounds():
    assert callers(_package()) == CALLERS


def test_the_guard_sees_a_third_caller():
    euclid = ast.parse(
        "class _CloudIndex:\n"
        "    def search(self, queries):\n"
        "        return self.bounds(queries, queries)\n"
        "    def search_many(self, queries):\n"
        "        return self.bounds(queries, queries)\n")
    sequence = ast.parse(
        "def verify_nearest(index):\n"
        "    bounds = index.lo\n"
        "    return index.bounds(lo, hi)\n")
    assert bounds_calls(euclid) == [(3, "_CloudIndex.search"), (5, "_CloudIndex.search_many")]
    assert bounds_calls(sequence) == [(3, "verify_nearest")]
    assert callers({"euclid": euclid, "sequence": sequence}) - CALLERS == {
        ("euclid", "_CloudIndex.search_many")}
