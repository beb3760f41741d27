"""No BLAS entry point in the package.

A BLAS kernel may add a sum of products in any order, and which order
depends on the CPU and the BLAS build, so its last bits would reach the
artifacts.  Every norm and inner product of the projectors and the MAP
driver is therefore `euclid._dot` or `euclid._sq_dists`, sums in axis
order.  Read from the
syntax tree, this fails on a call of an attribute that numpy answers
with BLAS (`np.dot`, `v.dot`, `np.einsum`, ...), on any `linalg`
attribute or import, and on the `@` operator.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "altproj"

#: Attribute calls that numpy may answer with BLAS.
BLAS_CALLS = frozenset({"dot", "vdot", "inner", "matmul", "tensordot", "einsum"})


def blas_uses(tree: ast.Module) -> list:
    """(line, what) for each BLAS entry point in `tree`."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in BLAS_CALLS):
            found.append((node.lineno, f"call of .{node.func.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg attribute"))
        elif isinstance(node, ast.ImportFrom) and (
                "linalg" in (node.module or "").split(".")
                or any(alias.name == "linalg" for alias in node.names)):
            found.append((node.lineno, "linalg import"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@ operator"))
    return found


def test_no_blas_entry_point_in_the_package():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if (uses := blas_uses(ast.parse(path.read_text(), str(path))))}
    assert found == {}


def test_the_guard_sees_each_entry_point():
    tree = ast.parse("np.dot(a, b)\nv.dot(v)\nnp.vdot(a, b)\nnp.inner(a, b)\n"
                     "np.matmul(a, b)\nnp.tensordot(a, b)\nnp.einsum('i,i', a, b)\n"
                     "n = np.linalg.norm\nfrom numpy.linalg import norm\n"
                     "from numpy import linalg\nc = a @ b\nc @= b\n")
    assert sorted(line for line, _ in blas_uses(tree)) == list(range(1, 13))
    # a name that only shares a word is not a use: `inner` as a variable,
    # `dot` as a bare name, a string join
    tree = ast.parse("inner = ', '.join(items)\ndot = 1\nx = obj.dot\n")
    assert blas_uses(tree) == []
