"""The package is pure Python with no dependencies (``dependencies = []`` in
pyproject.toml): every module of src/morphlab imports only the standard
library and its own package.  Its public surface has a pinned set of
defaulted parameters, and no module reads the environment."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import morphlab

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


def test_defaulted_public_parameters_are_pinned():
    # every defaulted parameter of a public function or method is one more
    # configuration to test, so a new one has to be added here on purpose
    found = set()
    for name in morphlab.__all__:
        obj = getattr(morphlab, name)
        if inspect.isfunction(obj):
            members = [(name, obj)]
        elif inspect.isclass(obj):
            members = [(f"{name}.{attr}", getattr(obj, attr))
                       for attr in dir(obj) if not attr.startswith("_")]
        else:
            continue
        for label, member in members:
            if inspect.isfunction(member) or inspect.ismethod(member):  # defined in Python
                found |= {f"{label}({p.name})" for p in inspect.signature(member).parameters.values()
                          if p.default is not p.empty}
    assert found == {
        "verify_net_closed_forms(fib_range)",
        "verify_net_closed_forms(tm_range)",
        "verify_occ_lemmas(max_fib)",
        "verify_occ_lemmas(max_tm)",
        "verify_occ_lemmas(max_lpp)",
        "verify_occurrence_preservation(k)",
        "word(alphabet)",
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_reads_no_environment_variable(path):
    # budgets and caps are module constants, not settings of the process
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.alias) and node.name in names
    )
    assert not reads, f"{path.name} reads the environment at lines {reads}"
