"""No floating point on a correctness path: the modules that count, double,
decide realizability and certify use no true division and no float()."""

import ast
from pathlib import Path

import crossnum

EXACT_MODULES = ("geometry.py", "halving.py", "doubling.py", "signatures.py", "registry.py")


def test_exact_modules_use_no_floats():
    root = Path(crossnum.__file__).parent
    found = []
    for name in EXACT_MODULES:
        for node in ast.walk(ast.parse((root / name).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append((name, node.lineno, "/"))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                found.append((name, node.lineno, "float()"))
    assert not found, found
