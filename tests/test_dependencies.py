"""The declared dependencies are the imported ones: the third-party imports
of src/chen3 are exactly pyproject's `dependencies`, and those of the tests
lie within them and the `test` extra.  Imports are read from the syntax
tree at any depth, so a lazy import inside a function counts, by their
top-level name.  Relative imports, the standard library, chen3 itself and
the test modules are not third-party."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _names(requirements) -> set[str]:
    """The import names of requirement strings such as "numpy>=1.24"."""
    return {re.match(r"[\w.\-]+", req).group().lower().replace("-", "_") for req in requirements}


def _third_party(files: list[Path]) -> set[str]:
    first_party = {"chen3"} | {path.stem for path in files}
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - first_party - set(sys.stdlib_module_names)


def test_src_imports_are_the_dependencies():
    assert _third_party(sorted((ROOT / "src" / "chen3").glob("*.py"))) == _names(PROJECT["dependencies"])


def test_test_imports_are_declared():
    declared = _names(PROJECT["dependencies"]) | _names(PROJECT["optional-dependencies"]["test"])
    assert _third_party(sorted((ROOT / "tests").glob("*.py"))) <= declared
