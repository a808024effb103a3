"""Every module that `src/blockspec` imports is in the standard library, is
blockspec itself, or is a declared run-time dependency in pyproject.toml;
every function and class that `src/blockspec` defines has a caller there;
and every module of the package and its tests parses as the oldest Python
that pyproject.toml admits."""

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


def test_every_library_name_has_a_library_caller():
    # a top-level function or class that no module of the package refers to
    # (by name, attribute or import) is test-only code and belongs in tests/
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    referenced = {
        getattr(node, field[type(node)])
        for tree in trees.values()
        for node in ast.walk(tree)
        if type(node) in field
    }
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert sorted((m, name) for m, name in defined if name not in referenced) == []


def test_modules_parse_as_the_oldest_supported_python():
    # pyproject.toml admits Python >= 3.10; feature_version makes a newer
    # interpreter reject the syntax that 3.10 lacks (except*, for example)
    assert re.search(r'requires-python = ">=3\.10"', (ROOT / "pyproject.toml").read_text())
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
