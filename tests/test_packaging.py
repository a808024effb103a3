"""Every module that `src/blockspec` imports is in the standard library, is
blockspec itself, or is a declared run-time dependency in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockspec"


def imported_names(path: Path) -> set[str]:
    """Top-level names of every import in a module, those inside functions
    included; relative imports count as blockspec."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("blockspec" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_package_imports_only_declared_dependencies():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in project["dependencies"]}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    undeclared = {
        (path.name, name)
        for path in modules
        for name in imported_names(path)
        if name not in sys.stdlib_module_names and name != "blockspec" and name not in declared
    }
    assert undeclared == set()
