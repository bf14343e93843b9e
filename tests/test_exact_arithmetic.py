"""No floating point on a correctness path: the modules that count, double,
decide realizability and certify use no true division and never name a
float route, whether called, passed on (``map(float, ...)``), imported or
read as an attribute (``operator.truediv``, ``math.fsum``)."""

import ast
from pathlib import Path

import crossnum

EXACT_MODULES = ("geometry.py", "halving.py", "doubling.py", "signatures.py", "registry.py")
FLOAT_NAMES = {"float", "truediv", "itruediv", "fsum"}


def float_uses(source):
    """(line, what) of every true division and float name in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in FLOAT_NAMES:
            found.append((node.lineno, node.name))
    return found


def test_exact_modules_use_no_floats():
    root = Path(crossnum.__file__).parent
    found = []
    for name in EXACT_MODULES:
        found += [(name, *use) for use in float_uses((root / name).read_text(encoding="utf-8"))]
    assert not found, found


def test_float_uses_are_found():
    for source in (
        "x = a / b",
        "x /= 2",
        "y = float(x)",
        "y = list(map(float, xs))",
        "from operator import truediv",
        "import operator\ny = list(map(operator.truediv, a, b))",
        "from operator import itruediv as div",
        "import math\ny = math.fsum(xs)",
        "from math import fsum",
    ):
        assert float_uses(source), source
    assert not float_uses("x = a // b\ny = int(x) >> 2\nz = divmod(a, b)")
