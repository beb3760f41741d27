"""One block loop for the float tables of documents and of the figure.

`serialize._rows` formats one block of rows.  `serialize._table` is the
loop that feeds it a table a block at a time and ends the last row; the
arrays of a JSON document and the points and circles of the SVG figure
go through it.  `sequence._write_rows` keeps its own loop, because it builds
the row-number column one block at a time and names the rows of a
non-finite value.  A third caller of `_rows` would be a third block loop
with its own last-row rule.  Read from the syntax tree, this fails on any
call of `_rows` in the package outside those two.
"""

import ast

from test_one_leaf_bound import _package, _scan

#: The functions that may call `_rows`, as (module, where).
CALLERS = {("serialize", "_table"), ("sequence", "_write_rows")}


def rows_calls(tree: ast.Module) -> list:
    """(line, where) for each call of `_rows`, by name or as an attribute."""
    return _scan(tree, lambda node, where: isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "_rows")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "_rows")))


def callers(trees: dict) -> set:
    """(module, where) for each function calling `_rows` in `trees`, the
    syntax trees of modules by name."""
    return {(name, where) for name, tree in trees.items() for _, where in rows_calls(tree)}


def test_only_table_and_write_rows_call_rows():
    assert callers(_package()) == CALLERS


def test_the_guard_sees_a_third_caller():
    serialize = ast.parse(
        "def _table(fields, pieces, end):\n"
        "    yield _rows(fields, pieces)\n"
        "def _array(obj):\n"
        "    _rows = None\n"
        "    return _rows(obj, pieces)\n")
    figure = ast.parse(
        "from .serialize import _table\n"
        "def render_spiral_svg(report):\n"
        "    return serialize._rows(report.points.T, ROW)\n")
    assert rows_calls(serialize) == [(2, "_table"), (5, "_array")]
    assert rows_calls(figure) == [(3, "render_spiral_svg")]
    assert callers({"serialize": serialize, "figure": figure}) - CALLERS == {
        ("serialize", "_array"), ("figure", "render_spiral_svg")}
