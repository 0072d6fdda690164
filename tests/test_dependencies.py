"""The runtime depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import gapcert


def test_imports_only_numpy_and_stdlib():
    allowed = {"numpy", *sys.stdlib_module_names}
    outside = []
    for path in sorted(Path(gapcert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
