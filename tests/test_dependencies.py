"""The runtime dependency is numpy alone: every import in the package names
the standard library, numpy or spdpc itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdpc"
ALLOWED = sys.stdlib_module_names | {"numpy", "spdpc"}


def imported_names(path):
    """(line, top-level module) of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [f"{path.name}:{line}: {name}" for path in sources
               for line, name in imported_names(path) if name not in ALLOWED]
    assert outside == []
