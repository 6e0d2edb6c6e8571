"""No BLAS in the pipeline: no pipeline module multiplies matrices, so no
plan, dose or artifact depends on the BLAS build or its thread count.
A float matrix product goes to BLAS, whose kernel is chosen per CPU and
may start threads of its own.  The AST walk below fails on every `@`,
`dot`, `matmul`, `einsum` and `linalg` in the pipeline modules outside
the functions listed with the reason they stay."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ramcell"
MODULES = ("cell", "cure", "toolpath", "extrusion", "pipeline", "gcode", "kinematics")
PRODUCTS = {"dot", "matmul", "einsum", "linalg"}

ONE_ROW = "a single 4x4 product of the one-row API, which no pipeline pass calls"
ALLOWED = {
    "kinematics.fk": ONE_ROW,
    "kinematics.ik": ONE_ROW,
    "kinematics.jacobian": ONE_ROW,
}


def _is_product(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Attribute):
        return node.attr in PRODUCTS
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy") and (
            "linalg" in node.module or any(a.name in PRODUCTS for a in node.names))
    return False


def products(source: str, module: str) -> dict[str, list[int]]:
    """The lines of each matrix product in source, by the "module.function"
    or "module.Class.method" that holds it ("module" for top-level code)."""
    found: dict[str, list[int]] = {}
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef):
            owners = [(f"{module}.{top.name}", [top])]
        elif isinstance(top, ast.ClassDef):
            methods = [item for item in top.body if isinstance(item, ast.FunctionDef)]
            owners = [(f"{module}.{top.name}.{m.name}", [m]) for m in methods]
            owners.append((f"{module}.{top.name}",
                           [*top.decorator_list, *top.bases,
                            *(item for item in top.body if item not in methods)]))
        else:
            owners = [(module, [top])]
        for owner, nodes in owners:
            lines = [n.lineno for node in nodes for n in ast.walk(node) if _is_product(n)]
            if lines:
                found.setdefault(owner, []).extend(lines)
    return found


def test_pipeline_modules_multiply_no_matrices():
    found = {}
    for module in MODULES:
        found.update(products((SRC / f"{module}.py").read_text(), module))
    outside = {owner: lines for owner, lines in found.items() if owner not in ALLOWED}
    assert not outside, f"matrix products outside the allowlist: {outside}"
    # an entry whose product is gone goes too
    assert sorted(found) == sorted(ALLOWED)


def test_walk_finds_each_kind_of_product():
    source = ("import numpy as np\n"
              "from numpy.linalg import inv\n"
              "def a(x): return x @ x\n"
              "def b(x): x @= x\n"
              "def c(x): return np.linalg.inv(x)\n"
              "def d(x): return np.einsum('ij,jk', x, x) + x.dot(x)\n"
              "class K:\n"
              "    m = np.matmul\n"
              "    def e(self, x): return np.dot(x, x)\n"
              "def clean(x): return x * x\n")
    assert products(source, "m") == {"m": [2], "m.a": [3], "m.b": [4], "m.c": [5],
                                     "m.d": [6, 6], "m.K": [8], "m.K.e": [9]}
