"""Regenerate tests/golden/: one record per command of golden_cli.commands().

    PYTHONPATH=src python tests/make_golden.py

Each command runs in-process in a fresh temporary directory.  A change that
moves a recorded value says which values moved, and why, in CHANGES.md.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden_cli import GOLDEN_DIR, commands, golden_path, run  # noqa: E402


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    here = os.getcwd()
    for command in commands():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                record = run(command)
            finally:
                os.chdir(here)
        path = golden_path(command)
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{record['exit_code']}  {path.name}")


if __name__ == "__main__":
    main()
