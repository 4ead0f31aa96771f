"""Golden CLI payloads: the commands, how one is run, and how two records
compare.

A record is one JSON file in tests/golden/ per command: the command line,
its exit code, its payload (the JSON report without `timestamp`) and the
lines of each CSV it writes.  Integers, strings, flags and exit codes must
match exactly, floats to FLOAT_RTOL relative.  Regenerate the files with
`python tests/make_golden.py`, never from a test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

from chen3.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
FLOAT_RTOL = 1e-12

# beyond README's examples: the bench's smallest and largest desk runs, and
# the paper profile with finite kappa, delta and epsilon under which every
# inequality whose precondition holds passes
EXTRA_COMMANDS = (
    "chen3 transfer --n 30003",
    "chen3 transfer --n 999999",
    "chen3 transfer --n 99999 --profile paper --override kappa=0.9 --override delta=0.2 "
    "--override epsilon=0.05",
)


def readme_commands() -> list[str]:
    """The `chen3 ...` lines of README.md's sh blocks, comments dropped."""
    found, in_sh = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
        elif in_sh and line.startswith("chen3 "):
            found.append(line.split("#", 1)[0].strip())
    return found


def commands() -> list[str]:
    return list(dict.fromkeys(readme_commands() + list(EXTRA_COMMANDS)))


def golden_path(command: str) -> Path:
    slug = re.sub(r"[^A-Za-z0-9.]+", "_", command.removeprefix("chen3 ")).strip("_")
    return GOLDEN_DIR / f"{slug}.json"


def run(command: str) -> dict:
    """Run one command in-process, in the current directory (where its CSV
    lands), and return its record."""
    argv = shlex.split(command)[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    record = {"command": command, "exit_code": code,
              "payload": json.loads(text)["payload"] if text else None, "csv": {}}
    if "--csv" in argv:
        name = argv[argv.index("--csv") + 1]
        record["csv"][name] = Path(name).read_text().splitlines()
    return record


def _cells(lines: list[str]) -> list[list]:
    """CSV lines as rows of int, float or str cells."""
    def cell(text: str):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text

    return [[cell(c) for c in row] for row in csv.reader(lines)]


def differences(got, want, path: str = "") -> list[str]:
    """Where got and want differ: exact but for floats, which may differ by
    FLOAT_RTOL of the larger magnitude."""
    if path.startswith("/csv/") and path.count("/") == 2:
        got, want = _cells(got), _cells(want)
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{path}/{i}")]
    if isinstance(want, float):
        same = math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0) or math.isnan(got) and math.isnan(want)
    else:
        same = got == want
    return [] if same else [f"{path}: {got!r} != {want!r}"]
