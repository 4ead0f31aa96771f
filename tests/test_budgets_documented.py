"""Every resource budget is documented: each module-level name in src/chen3
that ends in _BUDGET, read from the syntax tree, appears in README.md."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _budget_names() -> set[str]:
    found = set()
    for path in sorted((ROOT / "src" / "chen3").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            found.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_BUDGET"))
    return found


def test_every_budget_is_in_the_readme():
    names = _budget_names()
    assert {"DEFAULT_SIEVE_BUDGET", "SURVEY_HI_BUDGET", "ZN_POINT_BUDGET"} <= names
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(names) if not re.search(rf"\b{name}\b", readme)] == []
