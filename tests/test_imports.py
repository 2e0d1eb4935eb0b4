"""The package is pure Python with no dependencies (``dependencies = []`` in
pyproject.toml): every module of src/morphlab imports only the standard
library and its own package."""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "morphlab").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_has_modules():
    assert any(path.name == "__init__.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = {
        name for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"
