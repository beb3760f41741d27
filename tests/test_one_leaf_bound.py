"""One owner for the leaf bound.

`search`, `search_many` and `sequence.verify_nearest` prune leaves by
`_CloudIndex.bounds`, whose bound is shrunk by `_BOUND_SLACK` so that
rounding never prunes a leaf holding a point within the threshold.  A
second bound expression written inline would have to repeat that
shrinking exactly.  Read from the syntax tree, this fails on any read of
`_BOUND_SLACK` in the package outside `_CloudIndex.bounds`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "altproj"

#: The one function that may read the slack, as (class, function).
OWNER = ("_CloudIndex", "bounds")


def slack_reads(tree: ast.Module) -> list:
    """(line, where) for each read of `_BOUND_SLACK` outside its owner."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (*where, node.name)
        if (isinstance(node, ast.Name) and node.id == "_BOUND_SLACK"
                and isinstance(node.ctx, ast.Load) and where != OWNER):
            found.append((node.lineno, ".".join(where) or "<module>"))
        elif (isinstance(node, ast.Attribute) and node.attr == "_BOUND_SLACK"
                and where != OWNER):
            found.append((node.lineno, ".".join(where) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, ())
    return found


def test_only_bounds_reads_the_bound_slack():
    found = {path.name: reads for path in sorted(SRC.glob("*.py"))
             if (reads := slack_reads(ast.parse(path.read_text(), str(path))))}
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
