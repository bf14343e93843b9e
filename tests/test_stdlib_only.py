"""The runtime stays stdlib-only: every module crossnum imports is either
part of the standard library or crossnum itself."""

import ast
import sys
from pathlib import Path

import crossnum


def test_crossnum_imports_only_the_stdlib():
    sources = sorted(Path(crossnum.__file__).parent.glob("*.py"))
    assert sources
    outside = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "crossnum" and top not in sys.stdlib_module_names:
                    outside.add((path.name, name))
    assert not outside, sorted(outside)
