"""The package is pure Python with no dependencies (``dependencies = []`` in
pyproject.toml): every module of src/morphlab imports only the standard
library and its own package.  Its public surface has a pinned set of
names, CLI subcommands and defaulted parameters, no module reads the
environment, and README's examples run as shown."""

import argparse
import ast
import contextlib
import inspect
import io
import sys
from pathlib import Path

import pytest

import morphlab
from morphlab import cli

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "morphlab").glob("*.py"))


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
    assert found == {"verify_occurrence_preservation(k)"}


def test_public_names_are_pinned():
    # a name leaves or joins the package's surface only on purpose
    assert sorted(morphlab.__all__) == [
        "Alphabet", "AlphabetMismatchError", "BINARY", "BudgetExceededError",
        "CircularFactorization", "FIBONACCI", "InterferenceDecision",
        "InterferenceWitness", "Morphism", "MorphlabError", "MusOccurrence",
        "NAMED_MORPHISMS", "NetOccurrence", "NonInjectiveMorphismError",
        "OccurrenceSet", "PreservationReport", "RecognizabilityDecision",
        "THUE_MORSE", "Word", "aho_corasick", "brute_force_is_interference_free",
        "classic", "compute_mus", "compute_net_occurrences",
        "count_circular_factorizations", "count_image_factorizations",
        "enumerate_circular_factorizations", "enumerate_image_factorizations",
        "enumerate_interfered_factorizations", "enumeration", "errors",
        "extensions", "fibonacci_G", "fibonacci_alpha", "fibonacci_delta",
        "fibonacci_number", "fibonacci_word", "flip", "interference",
        "interference_free_on_every_word", "is_inner_image_factor", "is_interference_free_on", "is_recognizable_on",
        "longest_proper_prefix", "morphisms",
        "mus_to_net", "naive_mus", "naive_net_occurrences", "occ_count",
        "occurrences", "repeats", "structural_checks", "thue_morse_word",
        "verify_fibonacci_mus", "verify_net_closed_forms", "verify_occ_lemmas",
        "verify_occurrence_preservation", "verify_tm_mus", "word", "words",
    ]


def subcommands():
    (choices,) = [action.choices for action in cli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return set(choices)


def test_cli_subcommands_are_pinned():
    # a subcommand returns to the command line only on purpose
    assert subcommands() == {
        "check-if", "check-recognizable", "apply", "occ",
        "mus", "netocc", "gen", "verify",
    }


def test_readme_shows_every_subcommand_and_no_other():
    # each line of README's CLI block runs a subcommand that the parser has,
    # and each subcommand has a line there, so a deleted one leaves no example
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("morphlab ") for line in lines), lines
    assert {line.split()[1] for line in lines} == subcommands()


def test_readme_quick_start_prints_what_its_comments_say():
    # the block runs as shown, and each print line ends with a comment that
    # gives what it prints, one line per call, with " / " between the lines
    # of a loop
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Library quick start\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    expected = [printed.strip() for line in block.splitlines() if "print(" in line
                for printed in line.rsplit("# ", 1)[1].split(" / ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


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
