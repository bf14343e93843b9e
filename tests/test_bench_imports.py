"""Every crossnum name the benchmark harness imports still resolves.

The harness under perfbench/ is read, never changed, so a renamed public
function would otherwise surface only as a failed benchmark run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _crossnum_imports():
    """(file, module, name) for every name imported from crossnum in perfbench;
    name is None for a plain ``import crossnum...``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "crossnum":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "crossnum"]
    return found


def test_perfbench_crossnum_imports_resolve():
    found = _crossnum_imports()
    names = {name for _, _, name in found}
    assert {"count_crossings_sig", "removal_values", "halving_matching_sig"} <= names
    for fname, module, name in found:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{fname}: {module}.{name} does not resolve"
